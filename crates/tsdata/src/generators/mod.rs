//! Synthetic dataset generators, one module per paper benchmark family.

pub mod anomaly;
pub mod classification;
pub mod longrange;
pub mod m4like;

use msd_tensor::rng::Rng;

/// Shared building block: a sum of sinusoids with the given periods and
/// per-component amplitudes/phases, sampled at integer steps.
pub(crate) fn seasonal_mix(t: usize, periods: &[f32], amplitudes: &[f32], phases: &[f32]) -> f32 {
    let mut v = 0.0f32;
    for ((&p, &a), &ph) in periods.iter().zip(amplitudes).zip(phases) {
        v += a * (2.0 * std::f32::consts::PI * t as f32 / p + ph).sin();
    }
    v
}

/// Smooth piecewise-linear trend with occasional slope changes, emulating
/// the regime drifts of real operational series.
pub(crate) struct RegimeTrend {
    slope: f32,
    level: f32,
    steps_left: usize,
    slope_scale: f32,
    segment: usize,
    rng_seed: u64,
    counter: u64,
}

impl RegimeTrend {
    pub fn new(slope_scale: f32, segment: usize, seed: u64) -> Self {
        Self {
            slope: 0.0,
            level: 0.0,
            steps_left: 0,
            slope_scale,
            segment,
            rng_seed: seed,
            counter: 0,
        }
    }

    /// Advances one step and returns the current trend level. The level is
    /// mean-reverting (weak pull toward zero) so train and test regions stay
    /// on comparable levels, as in de-trended operational data — a pure
    /// random walk would make the held-out split systematically offset.
    pub fn next(&mut self, rng: &mut Rng) -> f32 {
        if self.steps_left == 0 {
            self.slope = rng.normal() * self.slope_scale;
            self.steps_left = self.segment / 2 + rng.below(self.segment.max(1));
            self.counter = self.counter.wrapping_add(self.rng_seed);
        }
        self.steps_left -= 1;
        self.level = 0.995 * self.level + self.slope;
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasonal_mix_is_periodic() {
        let periods = [24.0];
        let amps = [1.0];
        let phases = [0.3];
        let a = seasonal_mix(5, &periods, &amps, &phases);
        let b = seasonal_mix(5 + 24, &periods, &amps, &phases);
        assert!((a - b).abs() < 1e-5);
    }

    #[test]
    fn regime_trend_moves() {
        let mut rng = Rng::seed_from(1);
        let mut trend = RegimeTrend::new(0.05, 50, 1);
        let path: Vec<f32> = (0..500).map(|_| trend.next(&mut rng)).collect();
        let range = path.iter().copied().fold(f32::NEG_INFINITY, f32::max)
            - path.iter().copied().fold(f32::INFINITY, f32::min);
        assert!(range > 0.1, "trend should wander, range {range}");
    }
}

//! Long-range multivariate datasets — stand-ins for the eight long-term
//! forecasting benchmarks of Table III (ETTm1/m2, ETTh1/h2, Electricity,
//! Traffic, Weather, Exchange).
//!
//! Each generator produces one long `[C, T]` series combining: multi-scale
//! seasonality (the sampling-frequency analogue of daily/weekly cycles),
//! regime trend, cross-channel coupling through a random mixing matrix,
//! channel-specific phase/amplitude diversity, and observation noise.
//! Exchange is intentionally different: a correlated random walk with no
//! seasonality, matching the character of exchange-rate data (linear/naive
//! methods are competitive there — a crossover the paper's Table IV shows).

use super::{seasonal_mix, RegimeTrend};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Specification of one long-range dataset.
#[derive(Clone, Debug)]
pub struct LongRangeSpec {
    /// Dataset name, matching the paper's Table III rows.
    pub name: &'static str,
    /// Channel count. Electricity/Traffic are capped versus the paper's
    /// 321/862 for CPU-budget reasons (documented in EXPERIMENTS.md).
    pub channels: usize,
    /// Total time steps generated (scaled down from Table III).
    pub total_steps: usize,
    /// Human-readable sampling frequency (informational, from Table III).
    pub frequency: &'static str,
    /// Seasonal periods in steps (e.g. daily cycle at 15-min sampling = 96).
    pub periods: Vec<f32>,
    /// Seasonal amplitude scale.
    pub seasonal_amp: f32,
    /// Trend slope scale (0 disables trend).
    pub trend_scale: f32,
    /// Observation noise standard deviation.
    pub noise: f32,
    /// Cross-channel coupling strength in [0, 1].
    pub coupling: f32,
    /// Pure random walk instead of seasonal structure (Exchange).
    pub random_walk: bool,
    /// Number of alternating seasonal regimes. Real operational series
    /// (ETT load, traffic) switch between patterns (weekday/weekend,
    /// heating/cooling seasons); with ≥2 regimes the *conditional* forecast
    /// depends nonlinearly on which pattern the window shows, so purely
    /// linear models fit the regime-average while nonlinear multi-channel
    /// models can do better — the behaviour Table IV exercises.
    pub regimes: usize,
    /// Mean regime duration in steps (regime boundaries are shared across
    /// channels, rewarding cross-channel inference).
    pub regime_len: usize,
    /// RNG seed so every run regenerates identical data.
    pub seed: u64,
}

impl LongRangeSpec {
    /// Generates the `[C, T]` series for this spec. Deterministic per seed.
    pub fn generate(&self) -> Tensor {
        let mut rng = Rng::seed_from(self.seed);
        let c = self.channels;
        let t_total = self.total_steps;

        if self.random_walk {
            return self.generate_random_walk(&mut rng);
        }

        // Hidden regime sequence, shared across channels.
        let n_regimes = self.regimes.max(1);
        let regime_at: Vec<usize> = {
            let mut seq = Vec::with_capacity(t_total);
            let mut current = 0usize;
            let mut remaining = 0usize;
            while seq.len() < t_total {
                if remaining == 0 {
                    current = rng.below(n_regimes);
                    remaining = self.regime_len / 2 + rng.below(self.regime_len.max(1));
                }
                seq.push(current);
                remaining -= 1;
            }
            seq
        };

        // Latent factors: a couple of shared seasonal/trend drivers that
        // channels mix, producing realistic cross-channel correlation. Each
        // factor has regime-specific phases and amplitudes.
        let n_factors = 3.min(c.max(1));
        let mut factor_series = vec![vec![0.0f32; t_total]; n_factors];
        for (fi, series) in factor_series.iter_mut().enumerate() {
            let regime_params: Vec<(Vec<f32>, Vec<f32>)> = (0..n_regimes)
                .map(|_| {
                    let phases: Vec<f32> = self
                        .periods
                        .iter()
                        .map(|_| rng.uniform() * std::f32::consts::TAU)
                        .collect();
                    let amps: Vec<f32> = self
                        .periods
                        .iter()
                        .enumerate()
                        .map(|(i, _)| {
                            self.seasonal_amp * (0.4 + 1.2 * rng.uniform()) / (1.0 + 0.5 * i as f32)
                        })
                        .collect();
                    (phases, amps)
                })
                .collect();
            let mut trend = RegimeTrend::new(self.trend_scale, 200, self.seed + fi as u64);
            for (t, v) in series.iter_mut().enumerate() {
                let (phases, amps) = &regime_params[regime_at[t]];
                *v = seasonal_mix(t, &self.periods, amps, phases) + trend.next(&mut rng);
            }
        }

        let mut data = vec![0.0f32; c * t_total];
        for ch in 0..c {
            // Channel-specific seasonal component, also regime-dependent.
            let regime_params: Vec<(Vec<f32>, Vec<f32>)> = (0..n_regimes)
                .map(|_| {
                    let phases: Vec<f32> = self
                        .periods
                        .iter()
                        .map(|_| rng.uniform() * std::f32::consts::TAU)
                        .collect();
                    let amps: Vec<f32> = self
                        .periods
                        .iter()
                        .map(|_| self.seasonal_amp * (0.5 + rng.uniform()))
                        .collect();
                    (phases, amps)
                })
                .collect();
            // Mixing weights over latent factors.
            let weights: Vec<f32> = (0..n_factors).map(|_| rng.normal()).collect();
            let own_scale = 1.0 - self.coupling;
            let offset = rng.normal() * 2.0;
            let row = &mut data[ch * t_total..(ch + 1) * t_total];
            for (t, v) in row.iter_mut().enumerate() {
                let (phases, amps) = &regime_params[regime_at[t]];
                let own = seasonal_mix(t, &self.periods, amps, phases);
                let shared: f32 = weights
                    .iter()
                    .zip(&factor_series)
                    .map(|(w, f)| w * f[t])
                    .sum::<f32>()
                    / (n_factors as f32).sqrt();
                *v = offset + own_scale * own + self.coupling * shared + self.noise * rng.normal();
            }
        }
        Tensor::from_vec(&[c, t_total], data)
    }

    fn generate_random_walk(&self, rng: &mut Rng) -> Tensor {
        let c = self.channels;
        let t_total = self.total_steps;
        let mut data = vec![0.0f32; c * t_total];
        // A shared drift factor couples the walks, like co-moving FX rates.
        let shared: Vec<f32> = {
            let mut level = 0.0f32;
            (0..t_total)
                .map(|_| {
                    level += 0.01 * rng.normal();
                    level
                })
                .collect()
        };
        for ch in 0..c {
            let w = self.coupling * rng.normal();
            let mut level = rng.normal();
            let row = &mut data[ch * t_total..(ch + 1) * t_total];
            for (t, v) in row.iter_mut().enumerate() {
                level += self.noise * 0.1 * rng.normal();
                *v = level + w * shared[t];
            }
        }
        Tensor::from_vec(&[c, t_total], data)
    }
}

/// The eight long-term forecasting datasets of Table III, as synthetic
/// stand-ins. Channel counts for Electricity and Traffic are capped (321→32,
/// 862→32); total lengths are scaled to keep CPU training tractable while
/// preserving several thousand sliding windows per dataset.
pub fn long_term_datasets() -> Vec<LongRangeSpec> {
    vec![
        LongRangeSpec {
            name: "ETTm1",
            channels: 7,
            total_steps: 6000,
            frequency: "15 mins",
            periods: vec![96.0, 672.0, 24.0],
            seasonal_amp: 1.0,
            trend_scale: 0.004,
            noise: 0.3,
            coupling: 0.5,
            random_walk: false,
            regimes: 3,
            regime_len: 2200,
            seed: 101,
        },
        LongRangeSpec {
            name: "ETTm2",
            channels: 7,
            total_steps: 6000,
            frequency: "15 mins",
            periods: vec![96.0, 672.0],
            seasonal_amp: 0.8,
            trend_scale: 0.008,
            noise: 0.5,
            coupling: 0.4,
            random_walk: false,
            regimes: 2,
            regime_len: 2000,
            seed: 102,
        },
        LongRangeSpec {
            name: "ETTh1",
            channels: 7,
            total_steps: 4000,
            frequency: "1 hour",
            periods: vec![24.0, 168.0, 12.0],
            seasonal_amp: 1.0,
            trend_scale: 0.005,
            noise: 0.35,
            coupling: 0.5,
            random_walk: false,
            regimes: 3,
            regime_len: 1400,
            seed: 103,
        },
        LongRangeSpec {
            name: "ETTh2",
            channels: 7,
            total_steps: 4000,
            frequency: "1 hour",
            periods: vec![24.0, 168.0],
            seasonal_amp: 0.7,
            trend_scale: 0.01,
            noise: 0.6,
            coupling: 0.4,
            random_walk: false,
            regimes: 2,
            regime_len: 1300,
            seed: 104,
        },
        LongRangeSpec {
            name: "Electricity",
            channels: 32, // paper: 321 (capped; see EXPERIMENTS.md)
            total_steps: 4000,
            frequency: "10 mins",
            periods: vec![144.0, 1008.0, 72.0],
            seasonal_amp: 1.2,
            trend_scale: 0.002,
            noise: 0.25,
            coupling: 0.6,
            random_walk: false,
            regimes: 3,
            regime_len: 1500,
            seed: 105,
        },
        LongRangeSpec {
            name: "Traffic",
            channels: 32, // paper: 862 (capped; see EXPERIMENTS.md)
            total_steps: 4000,
            frequency: "1 hour",
            periods: vec![24.0, 168.0],
            seasonal_amp: 1.5,
            trend_scale: 0.001,
            noise: 0.3,
            coupling: 0.7,
            random_walk: false,
            regimes: 2,
            regime_len: 1400,
            seed: 106,
        },
        LongRangeSpec {
            name: "Weather",
            channels: 21,
            total_steps: 5000,
            frequency: "10 mins",
            periods: vec![144.0, 36.0],
            seasonal_amp: 0.9,
            trend_scale: 0.006,
            noise: 0.45,
            coupling: 0.45,
            random_walk: false,
            regimes: 3,
            regime_len: 1600,
            seed: 107,
        },
        LongRangeSpec {
            name: "Exchange",
            channels: 8,
            total_steps: 4000,
            frequency: "1 day",
            periods: vec![],
            seasonal_amp: 0.0,
            trend_scale: 0.0,
            noise: 1.0,
            coupling: 0.5,
            random_walk: true,
            regimes: 1,
            regime_len: 1000,
            seed: 108,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_tensor::stats::acf;

    #[test]
    fn registry_matches_table_iii_structure() {
        let specs = long_term_datasets();
        assert_eq!(specs.len(), 8);
        let names: Vec<_> = specs.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "ETTm1",
                "ETTm2",
                "ETTh1",
                "ETTh2",
                "Electricity",
                "Traffic",
                "Weather",
                "Exchange"
            ]
        );
        // Paper channel counts preserved where uncapped.
        assert_eq!(specs[0].channels, 7);
        assert_eq!(specs[6].channels, 21);
        assert_eq!(specs[7].channels, 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &long_term_datasets()[0];
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn shapes_match_spec() {
        for spec in long_term_datasets() {
            let data = spec.generate();
            assert_eq!(
                data.shape(),
                &[spec.channels, spec.total_steps],
                "{}",
                spec.name
            );
            assert!(data.data().iter().all(|v| v.is_finite()), "{}", spec.name);
        }
    }

    #[test]
    fn seasonal_datasets_have_periodic_acf() {
        let spec = long_term_datasets()
            .into_iter()
            .find(|s| s.name == "ETTh1")
            .unwrap();
        let data = spec.generate();
        let t = spec.total_steps;
        let ch0 = &data.data()[..t];
        let coeffs = acf(&ch0[..2000], 30);
        // A daily (24-step) cycle shows up as positive ACF at lag 24.
        assert!(coeffs[23] > 0.2, "lag-24 acf {}", coeffs[23]);
    }

    #[test]
    fn exchange_is_nonstationary_random_walk() {
        let spec = long_term_datasets()
            .into_iter()
            .find(|s| s.name == "Exchange")
            .unwrap();
        let data = spec.generate();
        let t = spec.total_steps;
        let ch0 = &data.data()[..t];
        // Random walks have ACF ≈ 1 at small lags (nonstationary).
        let coeffs = acf(ch0, 5);
        assert!(coeffs[0] > 0.95, "lag-1 acf {}", coeffs[0]);
    }

    #[test]
    fn channels_are_correlated_when_coupled() {
        let spec = long_term_datasets()
            .into_iter()
            .find(|s| s.name == "Traffic")
            .unwrap();
        let data = spec.generate();
        let t = spec.total_steps;
        // Average |corr| between first channels should be clearly nonzero.
        let corr = |a: &[f32], b: &[f32]| -> f32 {
            let ma = a.iter().sum::<f32>() / a.len() as f32;
            let mb = b.iter().sum::<f32>() / b.len() as f32;
            let mut num = 0.0;
            let mut da = 0.0;
            let mut db = 0.0;
            for (&x, &y) in a.iter().zip(b) {
                num += (x - ma) * (y - mb);
                da += (x - ma) * (x - ma);
                db += (y - mb) * (y - mb);
            }
            num / (da.sqrt() * db.sqrt() + 1e-9)
        };
        let mut total = 0.0f32;
        let mut count = 0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                total += corr(
                    &data.data()[i * t..(i + 1) * t],
                    &data.data()[j * t..(j + 1) * t],
                )
                .abs();
                count += 1;
            }
        }
        let avg = total / count as f32;
        assert!(avg > 0.1, "average |corr| {avg}");
    }
}

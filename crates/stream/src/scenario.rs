//! Seeded synthetic drift scenario: an unbounded multivariate stream with
//! a permanent regime shift at `drift_at` plus short labelled anomaly
//! spikes — the workload the `msd-stream` harness bin and the tier-1
//! replay gate run.
//!
//! Each sample draws exactly `channels` normals from one sequential RNG,
//! so the stream (values *and* labels) is a pure function of the seed and
//! the sample index — the foundation of the replay-determinism gate.

use msd_tensor::rng::Rng;

/// Shape of the synthetic stream.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Channels per sample.
    pub channels: usize,
    /// RNG seed for phases and observation noise.
    pub seed: u64,
    /// Sample index at which the regime shifts permanently.
    pub drift_at: u64,
    /// First sample index eligible for an anomaly spike.
    pub spike_start: u64,
    /// Spike period: a spike segment begins every `spike_every` samples.
    pub spike_every: u64,
    /// Length of each spike segment, in samples.
    pub spike_len: u64,
    /// Additive offset of a spike, in raw signal units.
    pub spike_height: f32,
    /// Observation noise standard deviation.
    pub noise: f32,
}

impl ScenarioConfig {
    /// The smoke-scale scenario shared by the harness bin, the replay
    /// tests, and the tier-1 gate.
    pub fn smoke(seed: u64) -> Self {
        Self {
            channels: 2,
            seed,
            drift_at: 1600,
            spike_start: 420,
            spike_every: 96,
            spike_len: 2,
            spike_height: 6.0,
            noise: 0.1,
        }
    }
}

/// The generator: call [`DriftScenario::next_sample`] forever.
pub struct DriftScenario {
    cfg: ScenarioConfig,
    rng: Rng,
    phases: Vec<f32>,
    t: u64,
}

impl DriftScenario {
    /// Builds the stream for `cfg`, drawing per-channel phases first.
    pub fn new(cfg: ScenarioConfig) -> Self {
        assert!(cfg.channels > 0, "need at least one channel");
        assert!(cfg.spike_every > cfg.spike_len, "spikes must be separated");
        let mut rng = Rng::seed_from(cfg.seed);
        let phases = (0..cfg.channels)
            .map(|_| rng.uniform() * std::f32::consts::TAU)
            .collect();
        Self {
            cfg,
            rng,
            phases,
            t: 0,
        }
    }

    /// Samples generated so far (the index of the next sample).
    pub fn step(&self) -> u64 {
        self.t
    }

    /// Whether sample `t` falls inside a labelled spike segment.
    pub fn is_spike(cfg: &ScenarioConfig, t: u64) -> bool {
        t >= cfg.spike_start && (t - cfg.spike_start) % cfg.spike_every < cfg.spike_len
    }

    /// The next sample and its anomaly label.
    ///
    /// Pre-drift regime: channel `ch` follows a sinusoid of period
    /// `24 + 4·ch` with unit amplitude. Post-drift (`t ≥ drift_at`): the
    /// period shortens to `15 + 3·ch`, the amplitude grows to 1.6 and the
    /// level shifts by +0.75 — a regime a model trained pre-drift cannot
    /// reconstruct. Spikes add `spike_height` on every channel.
    pub fn next_sample(&mut self) -> (Vec<f32>, bool) {
        let t = self.t;
        self.t += 1;
        let drifted = t >= self.cfg.drift_at;
        let spike = Self::is_spike(&self.cfg, t);
        let mut out = Vec::with_capacity(self.cfg.channels);
        for ch in 0..self.cfg.channels {
            let (period, amp, level) = if drifted {
                ((15 + 3 * ch) as f32, 1.6, 0.75)
            } else {
                ((24 + 4 * ch) as f32, 1.0, 0.0)
            };
            let mut v = level
                + amp * (std::f32::consts::TAU * t as f32 / period + self.phases[ch]).sin()
                + self.cfg.noise * self.rng.normal();
            if spike {
                v += self.cfg.spike_height;
            }
            out.push(v);
        }
        (out, spike)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_bit_identically() {
        let mut a = DriftScenario::new(ScenarioConfig::smoke(7));
        let mut b = DriftScenario::new(ScenarioConfig::smoke(7));
        for _ in 0..2000 {
            let (va, la) = a.next_sample();
            let (vb, lb) = b.next_sample();
            assert_eq!(la, lb);
            assert!(va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn labels_mark_spike_segments() {
        let cfg = ScenarioConfig::smoke(7);
        let mut s = DriftScenario::new(cfg.clone());
        let mut labelled = 0u64;
        for t in 0..1000 {
            let (_, label) = s.next_sample();
            assert_eq!(label, DriftScenario::is_spike(&cfg, t));
            labelled += label as u64;
        }
        assert!(labelled > 0, "the first 1000 steps must contain spikes");
        // Roughly spike_len per spike_every after spike_start.
        let expected = (1000 - cfg.spike_start) / cfg.spike_every * cfg.spike_len;
        assert!(labelled >= expected && labelled <= expected + cfg.spike_len);
    }

    #[test]
    fn regime_shift_changes_the_signal() {
        let cfg = ScenarioConfig {
            noise: 0.0,
            ..ScenarioConfig::smoke(3)
        };
        let mut s = DriftScenario::new(cfg.clone());
        let mut pre = Vec::new();
        let mut post = Vec::new();
        for t in 0..cfg.drift_at + 600 {
            let (v, label) = s.next_sample();
            if label {
                continue;
            }
            if t < cfg.drift_at {
                pre.push(v[0]);
            } else {
                post.push(v[0]);
            }
        }
        let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len() as f32;
        // The post-drift level shift is visible in the mean.
        assert!(
            (mean(&post) - mean(&pre)).abs() > 0.4,
            "pre {} post {}",
            mean(&pre),
            mean(&post)
        );
    }
}

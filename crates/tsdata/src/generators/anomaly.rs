//! Anomaly-detection streams — stand-ins for the five benchmark datasets of
//! Table VIII (SMD, MSL, SMAP, SWaT, PSM).
//!
//! Each stream has a *normal* regime (multi-period seasonal dynamics with
//! channel coupling and noise) used for training, and a test segment
//! contaminated with labelled anomalies of four kinds: point spikes, level
//! shifts, variance bursts, and correlation breaks. This matches the
//! reconstruction-based protocol (Sec. IV-E): train on normal data only,
//! flag test points whose reconstruction error is large.

use super::seasonal_mix;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Specification of one anomaly benchmark stream.
#[derive(Clone, Debug)]
pub struct AnomalySpec {
    /// Dataset name, matching Table VIII.
    pub name: &'static str,
    /// Channel count (capped vs the paper where large).
    pub channels: usize,
    /// Training steps (normal regime only).
    pub train_steps: usize,
    /// Test steps (contaminated).
    pub test_steps: usize,
    /// Fraction of test points that are anomalous.
    pub anomaly_ratio: f32,
    /// Seasonal periods of the normal dynamics.
    pub periods: Vec<f32>,
    /// Observation noise.
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

/// A generated stream: train split (normal), test split, and point labels.
pub struct AnomalyStream {
    /// The generating spec.
    pub spec: AnomalySpec,
    /// Normal training data `[C, train_steps]`.
    pub train: Tensor,
    /// Contaminated test data `[C, test_steps]`.
    pub test: Tensor,
    /// Per-time-step truth labels for the test split.
    pub labels: Vec<bool>,
}

impl AnomalySpec {
    /// Generates the stream. Deterministic per seed.
    pub fn generate(&self) -> AnomalyStream {
        let mut rng = Rng::seed_from(self.seed);
        let c = self.channels;
        let total = self.train_steps + self.test_steps;

        // Normal dynamics: channel-specific seasonal mixtures + noise.
        let mut phases = Vec::with_capacity(c);
        let mut amps = Vec::with_capacity(c);
        for _ in 0..c {
            phases.push(
                self.periods
                    .iter()
                    .map(|_| rng.uniform() * std::f32::consts::TAU)
                    .collect::<Vec<f32>>(),
            );
            amps.push(
                self.periods
                    .iter()
                    .map(|_| 0.5 + rng.uniform())
                    .collect::<Vec<f32>>(),
            );
        }
        let mut data = vec![0.0f32; c * total];
        for ch in 0..c {
            for t in 0..total {
                data[ch * total + t] = seasonal_mix(t, &self.periods, &amps[ch], &phases[ch])
                    + self.noise * rng.normal();
            }
        }

        // Inject anomalies into the test region only.
        let mut labels = vec![false; self.test_steps];
        let target_points = (self.test_steps as f32 * self.anomaly_ratio) as usize;
        let mut injected = 0usize;
        while injected < target_points {
            let kind = rng.below(4);
            let len = match kind {
                0 => 1,                  // point spike
                1 => 10 + rng.below(30), // level shift
                2 => 10 + rng.below(20), // variance burst
                _ => 10 + rng.below(20), // correlation break
            };
            let start = rng.below(self.test_steps.saturating_sub(len).max(1));
            let affected: Vec<usize> = {
                // Anomalies hit a subset of channels.
                let k = 1 + rng.below(c.max(1));
                let mut chs: Vec<usize> = (0..c).collect();
                rng.shuffle(&mut chs);
                chs.truncate(k.min(3));
                chs
            };
            for dt in 0..len {
                let t = self.train_steps + start + dt;
                for &ch in &affected {
                    let v = &mut data[ch * total + t];
                    match kind {
                        0 => {
                            *v += (4.0 + 4.0 * rng.uniform())
                                * if rng.uniform() < 0.5 { 1.0 } else { -1.0 }
                        }
                        1 => *v += 3.0,
                        2 => *v += 3.0 * rng.normal(),
                        _ => *v = -*v + 2.0 * rng.normal(),
                    }
                }
                if !labels[start + dt] {
                    labels[start + dt] = true;
                    injected += 1;
                }
            }
        }

        // Split.
        let mut train = vec![0.0f32; c * self.train_steps];
        let mut test = vec![0.0f32; c * self.test_steps];
        for ch in 0..c {
            train[ch * self.train_steps..(ch + 1) * self.train_steps]
                .copy_from_slice(&data[ch * total..ch * total + self.train_steps]);
            test[ch * self.test_steps..(ch + 1) * self.test_steps]
                .copy_from_slice(&data[ch * total + self.train_steps..(ch + 1) * total]);
        }
        AnomalyStream {
            spec: self.clone(),
            train: Tensor::from_vec(&[c, self.train_steps], train),
            test: Tensor::from_vec(&[c, self.test_steps], test),
            labels,
        }
    }
}

/// The five anomaly benchmarks of Table VIII as synthetic stand-ins.
/// Channel counts follow the paper (MSL 55→24, SWaT 51→24 capped); lengths
/// are scaled down; anomaly ratios approximate the originals.
pub fn anomaly_datasets() -> Vec<AnomalySpec> {
    vec![
        AnomalySpec {
            name: "SMD",
            channels: 24,
            train_steps: 4000,
            test_steps: 4000,
            anomaly_ratio: 0.042,
            periods: vec![50.0, 200.0],
            noise: 0.25,
            seed: 301,
        },
        AnomalySpec {
            name: "MSL",
            channels: 24,
            train_steps: 3000,
            test_steps: 3000,
            anomaly_ratio: 0.105,
            periods: vec![40.0, 160.0],
            noise: 0.35,
            seed: 302,
        },
        AnomalySpec {
            name: "SMAP",
            channels: 25,
            train_steps: 3500,
            test_steps: 3500,
            anomaly_ratio: 0.128,
            periods: vec![60.0, 240.0],
            noise: 0.3,
            seed: 303,
        },
        AnomalySpec {
            name: "SWaT",
            channels: 24,
            train_steps: 4000,
            test_steps: 4000,
            anomaly_ratio: 0.121,
            periods: vec![100.0, 25.0],
            noise: 0.2,
            seed: 304,
        },
        AnomalySpec {
            name: "PSM",
            channels: 25,
            train_steps: 3500,
            test_steps: 3000,
            anomaly_ratio: 0.278,
            periods: vec![80.0, 20.0],
            noise: 0.3,
            seed: 305,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_viii_rows() {
        let specs = anomaly_datasets();
        let names: Vec<_> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["SMD", "MSL", "SMAP", "SWaT", "PSM"]);
    }

    #[test]
    fn shapes_and_labels_consistent() {
        for spec in anomaly_datasets() {
            let s = spec.generate();
            assert_eq!(s.train.shape(), &[spec.channels, spec.train_steps]);
            assert_eq!(s.test.shape(), &[spec.channels, spec.test_steps]);
            assert_eq!(s.labels.len(), spec.test_steps);
        }
    }

    #[test]
    fn anomaly_ratio_is_approximately_respected() {
        let spec = anomaly_datasets()[0].clone();
        let s = spec.generate();
        let ratio = s.labels.iter().filter(|&&l| l).count() as f32 / s.labels.len() as f32;
        assert!(
            (ratio - spec.anomaly_ratio).abs() < 0.02,
            "ratio {ratio} vs spec {}",
            spec.anomaly_ratio
        );
    }

    #[test]
    fn anomalous_points_deviate_more_than_normal() {
        let spec = anomaly_datasets()[0].clone();
        let s = spec.generate();
        let t = spec.test_steps;
        // Mean |value| at anomalous vs normal test positions (channel max).
        let mut anom = 0.0f32;
        let mut anom_n = 0;
        let mut norm = 0.0f32;
        let mut norm_n = 0;
        for (ti, &lbl) in s.labels.iter().enumerate() {
            let m = (0..spec.channels)
                .map(|c| s.test.data()[c * t + ti].abs())
                .fold(0.0f32, f32::max);
            if lbl {
                anom += m;
                anom_n += 1;
            } else {
                norm += m;
                norm_n += 1;
            }
        }
        let anom_mean = anom / anom_n.max(1) as f32;
        let norm_mean = norm / norm_n.max(1) as f32;
        assert!(
            anom_mean > norm_mean * 1.1,
            "anomalies not distinguishable: {anom_mean} vs {norm_mean}"
        );
    }

    #[test]
    fn train_split_is_label_free_normal_data() {
        // The train region must look like the normal regime: bounded values.
        let spec = anomaly_datasets()[1].clone();
        let s = spec.generate();
        let max = s.train.abs().max_all();
        // Normal regime: seasonal amplitudes ≤ ~2.5 sum + noise.
        assert!(max < 8.0, "train split contains outliers: max {max}");
    }
}

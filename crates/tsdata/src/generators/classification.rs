//! Labeled series collections — stand-ins for the ten UEA classification
//! subsets of Table X.
//!
//! Class identity is encoded at several timescales simultaneously — base
//! frequency, harmonic content, amplitude envelope, and the channel mixing
//! pattern — so that multi-scale sub-series modeling (the paper's claim)
//! genuinely matters. Within a class, series vary in phase, amplitude and
//! noise, so memorisation does not suffice.

use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Specification of one classification dataset.
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Dataset abbreviation, matching Table X.
    pub name: &'static str,
    /// Channel count (capped where the original is very wide).
    pub channels: usize,
    /// Series length (capped where the original is very long).
    pub series_len: usize,
    /// Number of classes.
    pub classes: usize,
    /// Training-set size.
    pub train_size: usize,
    /// Test-set size.
    pub test_size: usize,
    /// Noise level (higher = harder).
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

/// A generated dataset: series stacked as `[N, C, L]` plus labels.
pub struct LabeledDataset {
    /// The generating spec.
    pub spec: ClassSpec,
    /// Training series `[train_size, C, L]`.
    pub train_x: Tensor,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test series `[test_size, C, L]`.
    pub test_x: Tensor,
    /// Test labels.
    pub test_y: Vec<usize>,
}

impl ClassSpec {
    /// Generates the dataset. Deterministic per seed.
    pub fn generate(&self) -> LabeledDataset {
        let mut rng = Rng::seed_from(self.seed);
        // Class prototypes: frequency, harmonic weight, envelope period, and
        // per-channel gain pattern.
        struct Proto {
            base_freq: f32,
            harmonic: f32,
            envelope_period: f32,
            channel_gain: Vec<f32>,
            chirp: f32,
            /// Class-specific phase lag between adjacent channels. Two
            /// classes can share a frequency yet differ only in this lag —
            /// a discriminator that is *invisible* to channel-independent
            /// models (each channel alone has a uniformly random phase),
            /// rewarding cross-channel modeling as in the paper's Sec. IV-F
            /// argument.
            channel_lag: f32,
        }
        // Class frequencies are spaced geometrically: the discriminative
        // signal in frequency-derived statistics scales with the frequency
        // *ratio* between classes (within-class amplitude/frequency jitter is
        // multiplicative), so additive spacing would make high-k classes
        // progressively harder to tell apart. The ratio is capped so the top
        // class's first harmonic stays below Nyquist for every registry spec.
        let protos: Vec<Proto> = (0..self.classes)
            .map(|k| Proto {
                base_freq: 2.0 * 1.3f32.powi(k as i32) * (1.0 + 0.1 * rng.uniform()),
                harmonic: 0.2 + 0.6 * rng.uniform(),
                envelope_period: self.series_len as f32 / (1.0 + (k % 3) as f32),
                channel_gain: (0..self.channels)
                    .map(|c| if (c + k) % 2 == 0 { 1.0 } else { 0.35 } + 0.2 * rng.normal())
                    .collect(),
                chirp: 0.3 * ((k % 2) as f32),
                channel_lag: 0.4 + 2.2 * ((k as f32 * 0.618) % 1.0),
            })
            .collect();

        let gen_split = |n: usize, rng: &mut Rng| -> (Tensor, Vec<usize>) {
            let mut xs = Vec::with_capacity(n * self.channels * self.series_len);
            let mut ys = Vec::with_capacity(n);
            for i in 0..n {
                let k = i % self.classes; // balanced
                let p = &protos[k];
                let phase = rng.uniform() * std::f32::consts::TAU;
                let amp = 0.7 + 0.6 * rng.uniform();
                for ch in 0..self.channels {
                    let gain = p.channel_gain[ch] * amp;
                    let ch_phase = phase + p.channel_lag * ch as f32;
                    for t in 0..self.series_len {
                        let u = t as f32 / self.series_len as f32;
                        let freq = p.base_freq * (1.0 + p.chirp * u);
                        let carrier = (std::f32::consts::TAU * freq * u + ch_phase).sin()
                            + p.harmonic
                                * (2.0 * std::f32::consts::TAU * freq * u + ch_phase).sin();
                        let envelope = 0.6
                            + 0.4 * (std::f32::consts::TAU * t as f32 / p.envelope_period).cos();
                        xs.push(gain * envelope * carrier + self.noise * rng.normal());
                    }
                }
                ys.push(k);
            }
            (
                Tensor::from_vec(&[n, self.channels, self.series_len], xs),
                ys,
            )
        };

        let (train_x, train_y) = gen_split(self.train_size, &mut rng);
        let (test_x, test_y) = gen_split(self.test_size, &mut rng);
        LabeledDataset {
            spec: self.clone(),
            train_x,
            train_y,
            test_x,
            test_y,
        }
    }
}

/// The ten UEA-like classification datasets of Table X. Very wide or very
/// long originals are capped (FD 144→16 ch, MI 3000→256 len, CR 1197→320
/// len, …); class counts and the train/test balance character are kept.
pub fn classification_datasets() -> Vec<ClassSpec> {
    vec![
        ClassSpec {
            name: "AWR",
            channels: 9,
            series_len: 144,
            classes: 10,
            train_size: 150,
            test_size: 150,
            noise: 0.4,
            seed: 401,
        },
        ClassSpec {
            name: "AF",
            channels: 2,
            series_len: 160,
            classes: 3,
            train_size: 30,
            test_size: 30,
            noise: 0.7,
            seed: 402,
        },
        ClassSpec {
            name: "CT",
            channels: 3,
            series_len: 120,
            classes: 8,
            train_size: 240,
            test_size: 240,
            noise: 0.35,
            seed: 403,
        },
        ClassSpec {
            name: "CR",
            channels: 6,
            series_len: 160,
            classes: 6,
            train_size: 108,
            test_size: 72,
            noise: 0.4,
            seed: 404,
        },
        ClassSpec {
            name: "FD",
            channels: 16,
            series_len: 62,
            classes: 2,
            train_size: 300,
            test_size: 200,
            noise: 0.9,
            seed: 405,
        },
        ClassSpec {
            name: "FM",
            channels: 12,
            series_len: 50,
            classes: 2,
            train_size: 160,
            test_size: 100,
            noise: 0.8,
            seed: 406,
        },
        ClassSpec {
            name: "MI",
            channels: 16,
            series_len: 256,
            classes: 2,
            train_size: 140,
            test_size: 100,
            noise: 1.0,
            seed: 407,
        },
        ClassSpec {
            name: "SCP1",
            channels: 6,
            series_len: 224,
            classes: 2,
            train_size: 134,
            test_size: 146,
            noise: 0.5,
            seed: 408,
        },
        ClassSpec {
            name: "SCP2",
            channels: 7,
            series_len: 288,
            classes: 2,
            train_size: 100,
            test_size: 90,
            noise: 0.9,
            seed: 409,
        },
        ClassSpec {
            name: "UWGL",
            channels: 3,
            series_len: 160,
            classes: 8,
            train_size: 120,
            test_size: 160,
            noise: 0.45,
            seed: 410,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_x_rows() {
        let specs = classification_datasets();
        assert_eq!(specs.len(), 10);
        let names: Vec<_> = specs.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["AWR", "AF", "CT", "CR", "FD", "FM", "MI", "SCP1", "SCP2", "UWGL"]
        );
        // Uncapped dims preserved.
        assert_eq!(specs[0].channels, 9);
        assert_eq!(specs[9].classes, 8);
    }

    #[test]
    fn shapes_and_label_ranges() {
        for spec in classification_datasets().into_iter().take(3) {
            let d = spec.generate();
            assert_eq!(
                d.train_x.shape(),
                &[spec.train_size, spec.channels, spec.series_len]
            );
            assert_eq!(d.test_y.len(), spec.test_size);
            assert!(d.train_y.iter().all(|&y| y < spec.classes));
            assert!(d.test_y.iter().all(|&y| y < spec.classes));
        }
    }

    #[test]
    fn labels_are_balanced() {
        let spec = classification_datasets()[2].clone(); // CT, 8 classes
        let d = spec.generate();
        let mut counts = vec![0usize; spec.classes];
        for &y in &d.train_y {
            counts[y] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= 1, "unbalanced classes: {counts:?}");
    }

    #[test]
    fn classes_are_separable_by_a_simple_statistic() {
        // A nearest-centroid classifier in a crude spectral feature space
        // should beat chance comfortably — i.e. class signal exists.
        let spec = ClassSpec {
            noise: 0.3,
            ..classification_datasets()[3].clone() // CR
        };
        let d = spec.generate();
        let (n, c, l) = (spec.train_size, spec.channels, spec.series_len);
        // Feature: mean |first difference| per channel (frequency proxy).
        let feat = |x: &Tensor, i: usize| -> Vec<f32> {
            (0..c)
                .map(|ch| {
                    let base = (i * c + ch) * l;
                    let row = &x.data()[base..base + l];
                    row.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f32>() / (l - 1) as f32
                })
                .collect()
        };
        // Class centroids from train.
        let mut centroids = vec![vec![0.0f32; c]; spec.classes];
        let mut counts = vec![0usize; spec.classes];
        for i in 0..n {
            let f = feat(&d.train_x, i);
            for (acc, v) in centroids[d.train_y[i]].iter_mut().zip(&f) {
                *acc += v;
            }
            counts[d.train_y[i]] += 1;
        }
        for (cent, &cnt) in centroids.iter_mut().zip(&counts) {
            for v in cent.iter_mut() {
                *v /= cnt.max(1) as f32;
            }
        }
        // Evaluate on test.
        let mut correct = 0;
        for i in 0..spec.test_size {
            let f = feat(&d.test_x, i);
            let pred = (0..spec.classes)
                .min_by(|&a, &b| {
                    let da: f32 = centroids[a]
                        .iter()
                        .zip(&f)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum();
                    let db: f32 = centroids[b]
                        .iter()
                        .zip(&f)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if pred == d.test_y[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / spec.test_size as f32;
        let chance = 1.0 / spec.classes as f32;
        assert!(acc > chance * 2.0, "accuracy {acc} vs chance {chance}");
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = classification_datasets()[0].clone();
        assert_eq!(spec.generate().train_x, spec.generate().train_x);
    }
}

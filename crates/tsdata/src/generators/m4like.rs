//! M4-like univariate short-term forecasting collections — stand-ins for
//! the six M4 competition subsets of Table V.
//!
//! Each subset keeps the competition's forecast horizon and seasonal
//! periodicity; series counts are scaled down from the 100k-series archive.
//! Every series has its own trend/level/seasonality/noise draw, so models
//! must learn *general* temporal patterns across heterogeneous series, as in
//! the competition.

use msd_tensor::rng::Rng;

/// Specification of one M4-like frequency subset.
#[derive(Clone, Debug)]
pub struct M4Spec {
    /// Subset name (Yearly, Quarterly, …), matching Table V.
    pub name: &'static str,
    /// Forecast horizon `H` (the competition's, also Table V's "series
    /// length" column).
    pub horizon: usize,
    /// Model look-back window (the 2×H convention of the benchmark suite).
    pub input_len: usize,
    /// Seasonal periodicity `m` used by MASE and Naive2.
    pub periodicity: usize,
    /// Number of series generated (scaled down from Table V).
    pub num_series: usize,
    /// RNG seed.
    pub seed: u64,
}

/// One generated subset: per-series history and future.
pub struct M4Collection {
    /// The generating spec.
    pub spec: M4Spec,
    /// Per-series in-sample history (length `input_len + horizon` history
    /// beyond the input is kept for MASE scaling).
    pub insample: Vec<Vec<f32>>,
    /// Per-series future ground truth (length `horizon`).
    pub future: Vec<Vec<f32>>,
}

impl M4Spec {
    /// Generates the subset. Deterministic per seed.
    pub fn generate(&self) -> M4Collection {
        let mut rng = Rng::seed_from(self.seed);
        let hist_len = self.input_len + self.horizon; // extra history for MASE
        let mut insample = Vec::with_capacity(self.num_series);
        let mut future = Vec::with_capacity(self.num_series);
        for _ in 0..self.num_series {
            let total = hist_len + self.horizon;
            let level = 2.0 + 8.0 * rng.uniform();
            let slope = 0.01 * rng.normal();
            let curvature = 0.00005 * rng.normal();
            let m = self.periodicity.max(1) as f32;
            let seasonal_amp = if self.periodicity > 1 {
                0.3 + 0.7 * rng.uniform()
            } else {
                0.0
            };
            let phase = rng.uniform() * std::f32::consts::TAU;
            // Second harmonic makes the shape non-sinusoidal.
            let h2_amp = seasonal_amp * 0.4 * rng.uniform();
            let noise = 0.05 + 0.15 * rng.uniform();
            let mut series = Vec::with_capacity(total);
            for t in 0..total {
                let tf = t as f32;
                let trend = level + slope * tf + curvature * tf * tf;
                let season = if self.periodicity > 1 {
                    seasonal_amp * (std::f32::consts::TAU * tf / m + phase).sin()
                        + h2_amp * (2.0 * std::f32::consts::TAU * tf / m + phase).sin()
                } else {
                    0.0
                };
                series.push(trend * (1.0 + 0.1 * season) + noise * rng.normal());
            }
            let fut = series.split_off(hist_len);
            insample.push(series);
            future.push(fut);
        }
        M4Collection {
            spec: self.clone(),
            insample,
            future,
        }
    }
}

impl M4Collection {
    /// The model input for series `i`: the last `input_len` points of the
    /// history.
    pub fn input_window(&self, i: usize) -> &[f32] {
        let s = &self.insample[i];
        &s[s.len() - self.spec.input_len..]
    }
}

/// The six frequency subsets of Table V with the competition's horizons and
/// periodicities; series counts scaled for CPU training.
pub fn m4_subsets() -> Vec<M4Spec> {
    vec![
        M4Spec {
            name: "Yearly",
            horizon: 6,
            input_len: 12,
            periodicity: 1,
            num_series: 160,
            seed: 201,
        },
        M4Spec {
            name: "Quarterly",
            horizon: 8,
            input_len: 16,
            periodicity: 4,
            num_series: 160,
            seed: 202,
        },
        M4Spec {
            name: "Monthly",
            horizon: 18,
            input_len: 36,
            periodicity: 12,
            num_series: 160,
            seed: 203,
        },
        M4Spec {
            name: "Weekly",
            horizon: 13,
            input_len: 26,
            periodicity: 1,
            num_series: 80,
            seed: 204,
        },
        M4Spec {
            name: "Daily",
            horizon: 14,
            input_len: 28,
            periodicity: 1,
            num_series: 100,
            seed: 205,
        },
        M4Spec {
            name: "Hourly",
            horizon: 48,
            input_len: 96,
            periodicity: 24,
            num_series: 60,
            seed: 206,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_v_horizons() {
        let specs = m4_subsets();
        let horizons: Vec<usize> = specs.iter().map(|s| s.horizon).collect();
        assert_eq!(horizons, vec![6, 8, 18, 13, 14, 48]);
        let periods: Vec<usize> = specs.iter().map(|s| s.periodicity).collect();
        assert_eq!(periods, vec![1, 4, 12, 1, 1, 24]);
    }

    #[test]
    fn generated_lengths_are_consistent() {
        for spec in m4_subsets() {
            let col = spec.generate();
            assert_eq!(col.insample.len(), spec.num_series);
            assert_eq!(col.future.len(), spec.num_series);
            for (h, f) in col.insample.iter().zip(&col.future) {
                assert_eq!(h.len(), spec.input_len + spec.horizon);
                assert_eq!(f.len(), spec.horizon);
            }
            assert_eq!(col.input_window(0).len(), spec.input_len);
        }
    }

    #[test]
    fn series_are_heterogeneous() {
        let col = m4_subsets()[2].generate(); // Monthly
        let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
        let m0 = mean(&col.insample[0]);
        let m1 = mean(&col.insample[1]);
        assert!(
            (m0 - m1).abs() > 0.05,
            "series levels too similar: {m0} vs {m1}"
        );
    }

    #[test]
    fn seasonal_subsets_show_periodicity() {
        let spec = m4_subsets()
            .into_iter()
            .find(|s| s.name == "Hourly")
            .unwrap();
        let col = spec.generate();
        // Average lag-24 autocorrelation across series should be positive.
        let mut total = 0.0f32;
        for s in col.insample.iter().take(20) {
            let coeffs = msd_tensor::stats::acf(s, 24);
            total += coeffs[23];
        }
        assert!(total / 20.0 > 0.1, "avg lag-24 acf {}", total / 20.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = m4_subsets()[0].clone();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.insample[0], b.insample[0]);
        assert_eq!(a.future[5], b.future[5]);
    }
}

//! Small statistical utilities shared across the workspace: autocorrelation
//! and white-noise bounds, as used by the paper's Residual Loss (Sec. III-E)
//! and the Figure 4 case study.

/// Sample autocorrelation coefficients of `series` for lags `1..=max_lag`,
/// following Eq. 5 of the paper:
///
/// `a_j = Σ_{t=j+1..L} (z_t − z̄)(z_{t−j} − z̄) / Σ_t (z_t − z̄)²`
///
/// Returns zeros when the series is (numerically) constant, matching the
/// convention that a constant series carries no autocorrelation signal.
pub fn acf(series: &[f32], max_lag: usize) -> Vec<f32> {
    let l = series.len();
    if l == 0 {
        return vec![0.0; max_lag];
    }
    let mean = series.iter().sum::<f32>() / l as f32;
    let centered: Vec<f64> = series.iter().map(|&z| (z - mean) as f64).collect();
    let denom: f64 = centered.iter().map(|y| y * y).sum();
    if denom < 1e-12 {
        return vec![0.0; max_lag];
    }
    (1..=max_lag)
        .map(|j| {
            if j >= l {
                return 0.0;
            }
            let num: f64 = (j..l).map(|t| centered[t] * centered[t - j]).sum();
            (num / denom) as f32
        })
        .collect()
}

/// The `±2/√L` white-noise band classically used to judge whether
/// autocorrelation coefficients are consistent with white noise.
pub fn white_noise_bound(len: usize) -> f32 {
    2.0 / (len.max(1) as f32).sqrt()
}

/// Fraction of the first `max_lag` autocorrelation coefficients that fall
/// outside the white-noise band — a scalar summary used when reporting the
/// Figure 4 case study.
pub fn acf_violation_rate(series: &[f32], max_lag: usize) -> f32 {
    let bound = white_noise_bound(series.len());
    let coeffs = acf(series, max_lag);
    if coeffs.is_empty() {
        return 0.0;
    }
    coeffs.iter().filter(|a| a.abs() > bound).count() as f32 / coeffs.len() as f32
}

/// Welford's online mean/variance accumulator.
///
/// All arithmetic is sequential `f64`, so the result depends only on the
/// order of `push` calls — never on the kernel tier.
/// That makes it safe to use on the streaming hot path under the repo's
/// replay-determinism contract. `variance` is the *population* variance
/// (`M2 / n`), matching [`crate::stats`]-style normalisation and the
/// `StandardScaler` convention in `msd-data`; it is `0.0` until two samples
/// have been pushed.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`0.0` while empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Running population variance `M2 / n` (`0.0` for fewer than two
    /// observations; never negative).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0)
        }
    }

    /// `variance().sqrt()`.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_on_random_data() {
        let mut rng = crate::rng::Rng::seed_from(42);
        let xs: Vec<f64> = (0..1000).map(|_| rng.normal() as f64 * 3.0 + 7.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12, "mean {} vs {}", w.mean(), mean);
        assert!((w.variance() - var).abs() < 1e-12, "var {} vs {}", w.variance(), var);
    }

    #[test]
    fn welford_constant_series_has_zero_variance() {
        let mut w = Welford::new();
        for _ in 0..100 {
            w.push(3.25);
        }
        assert_eq!(w.mean(), 3.25);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std(), 0.0);
    }

    #[test]
    fn welford_edge_counts() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        let mut w1 = Welford::new();
        w1.push(-4.5);
        assert_eq!(w1.count(), 1);
        assert_eq!(w1.mean(), -4.5);
        assert_eq!(w1.variance(), 0.0, "one sample has no spread");
    }

    #[test]
    fn acf_of_constant_is_zero() {
        let s = vec![5.0; 32];
        assert!(acf(&s, 5).iter().all(|&a| a == 0.0));
    }

    #[test]
    fn acf_lag_is_one_for_linear_trend_at_small_lags() {
        // A strongly trending series has ACF near 1 at lag 1.
        let s: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let a = acf(&s, 3);
        assert!(a[0] > 0.9, "lag-1 acf {}", a[0]);
    }

    #[test]
    fn acf_of_alternating_series_is_negative_at_lag_one() {
        let s: Vec<f32> = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let a = acf(&s, 2);
        assert!(a[0] < -0.9, "lag-1 acf {}", a[0]);
        assert!(a[1] > 0.9, "lag-2 acf {}", a[1]);
    }

    #[test]
    fn acf_of_period_series_peaks_at_period() {
        let s: Vec<f32> = (0..200)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 10.0).sin())
            .collect();
        let a = acf(&s, 20);
        // Lag 10 (one full period) should be strongly positive; lag 5 negative.
        assert!(a[9] > 0.8, "lag-10 acf {}", a[9]);
        assert!(a[4] < -0.8, "lag-5 acf {}", a[4]);
    }

    #[test]
    fn white_noise_mostly_inside_band() {
        let mut rng = crate::rng::Rng::seed_from(11);
        let s: Vec<f32> = (0..512).map(|_| rng.normal()).collect();
        let rate = acf_violation_rate(&s, 64);
        assert!(rate < 0.15, "violation rate {rate}");
    }

    #[test]
    fn bound_shrinks_with_length() {
        assert!(white_noise_bound(400) < white_noise_bound(100));
        assert!((white_noise_bound(100) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn lags_beyond_length_are_zero() {
        let s = vec![1.0, 2.0, 3.0];
        let a = acf(&s, 5);
        assert_eq!(a.len(), 5);
        assert_eq!(a[3], 0.0);
        assert_eq!(a[4], 0.0);
    }
}

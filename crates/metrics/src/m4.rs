//! M4-competition metrics for short-term forecasting (Eq. 8): SMAPE, MASE,
//! and OWA relative to the Naive2 reference method.

/// Symmetric mean absolute percentage error, in the M4 convention scaled to
/// `[0, 200]`.
pub fn smape(pred: &[f32], truth: &[f32]) -> f32 {
    assert_eq!(pred.len(), truth.len(), "smape length mismatch");
    assert!(!pred.is_empty(), "smape of empty slices");
    let sum: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| {
            let denom = (p.abs() + t.abs()) as f64;
            if denom < 1e-9 {
                0.0
            } else {
                ((p - t).abs() as f64) / denom
            }
        })
        .sum();
    (200.0 * sum / pred.len() as f64) as f32
}

/// Mean absolute scaled error: forecast MAE scaled by the in-sample MAE of
/// the seasonal-naive method at periodicity `m` over `insample` (the
/// historical series the forecast was made from).
///
/// Returns `f32::INFINITY` when the in-sample scale is (numerically) zero,
/// i.e. the history is seasonal-naive-predictable exactly.
pub fn mase(pred: &[f32], truth: &[f32], insample: &[f32], m: usize) -> f32 {
    assert_eq!(pred.len(), truth.len(), "mase length mismatch");
    assert!(!pred.is_empty(), "mase of empty forecast");
    let m = m.max(1);
    assert!(
        insample.len() > m,
        "mase needs an in-sample series longer than the period"
    );
    let scale: f64 = (m..insample.len())
        .map(|t| ((insample[t] - insample[t - m]).abs()) as f64)
        .sum::<f64>()
        / (insample.len() - m) as f64;
    if scale < 1e-9 {
        return f32::INFINITY;
    }
    let err: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| ((p - t).abs()) as f64)
        .sum::<f64>()
        / pred.len() as f64;
    (err / scale) as f32
}

/// The overall weighted average (Eq. 8): the mean of SMAPE and MASE, each
/// normalised by the Naive2 reference values.
pub fn owa(smape_model: f32, mase_model: f32, smape_naive2: f32, mase_naive2: f32) -> f32 {
    assert!(
        smape_naive2 > 0.0 && mase_naive2 > 0.0,
        "owa reference must be positive"
    );
    0.5 * (smape_model / smape_naive2 + mase_model / mase_naive2)
}

/// A bundle of the three short-term metrics for one benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct M4Score {
    /// Symmetric MAPE (0–200).
    pub smape: f32,
    /// Mean absolute scaled error.
    pub mase: f32,
    /// Overall weighted average vs Naive2.
    pub owa: f32,
}

impl M4Score {
    /// Weighted average of per-subset scores with the given weights
    /// (typically test-set sizes), the M4 aggregation rule.
    pub fn weighted_average(scores: &[(M4Score, f32)]) -> M4Score {
        let total: f32 = scores.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "weights must be positive");
        let mut acc = M4Score {
            smape: 0.0,
            mase: 0.0,
            owa: 0.0,
        };
        for (s, w) in scores {
            acc.smape += s.smape * w / total;
            acc.mase += s.mase * w / total;
            acc.owa += s.owa * w / total;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smape_perfect_is_zero_and_bounded() {
        assert_eq!(smape(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        // Opposite signs give the maximum 200.
        assert_eq!(smape(&[1.0], &[-1.0]), 200.0);
    }

    #[test]
    fn smape_known_value() {
        // |3-1| / (3+1) = 0.5 → 100
        assert_eq!(smape(&[3.0], &[1.0]), 100.0);
    }

    #[test]
    fn smape_handles_double_zero() {
        assert_eq!(smape(&[0.0], &[0.0]), 0.0);
    }

    #[test]
    fn mase_of_naive_on_random_walk_is_about_one() {
        // For a random walk, the one-step naive forecast achieves MASE ≈ 1
        // by construction (same error process in and out of sample).
        let mut rng = 1234u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut series = vec![0.0f32];
        for _ in 0..500 {
            let last = *series.last().unwrap();
            series.push(last + next());
        }
        let (insample, future) = series.split_at(400);
        let pred: Vec<f32> = std::iter::once(insample[insample.len() - 1])
            .chain(future[..future.len() - 1].iter().copied())
            .collect();
        let m = mase(&pred, future, insample, 1);
        assert!((m - 1.0).abs() < 0.35, "mase {m}");
    }

    #[test]
    fn mase_infinite_for_constant_insample() {
        let insample = vec![2.0; 20];
        assert_eq!(mase(&[1.0], &[2.0], &insample, 1), f32::INFINITY);
    }

    #[test]
    fn owa_of_reference_method_is_one() {
        assert_eq!(owa(10.0, 2.0, 10.0, 2.0), 1.0);
    }

    #[test]
    fn owa_better_than_reference_below_one() {
        assert!(owa(5.0, 1.0, 10.0, 2.0) < 1.0);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = M4Score {
            smape: 10.0,
            mase: 1.0,
            owa: 0.8,
        };
        let b = M4Score {
            smape: 20.0,
            mase: 2.0,
            owa: 1.2,
        };
        let avg = M4Score::weighted_average(&[(a, 3.0), (b, 1.0)]);
        assert!((avg.smape - 12.5).abs() < 1e-5);
        assert!((avg.mase - 1.25).abs() < 1e-5);
        assert!((avg.owa - 0.9).abs() < 1e-5);
    }
}

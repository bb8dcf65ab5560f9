//! Property-based tests for the metric definitions: bounds, symmetries,
//! and scale behaviours that must hold for arbitrary inputs.
//!
//! Cases are generated by looping over deterministic seeds with the in-tree
//! RNG, so the suite runs fully offline with no external dependency.

use msd_metrics::anomaly::{point_adjusted_scores, threshold_by_ratio};
use msd_metrics::{accuracy, mae, mase, mean_ranks, mse, owa, smape, win_counts};
use msd_tensor::rng::Rng;

fn series(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| 200.0 * rng.uniform() - 100.0).collect()
}

#[test]
fn mse_mae_nonnegative_and_zero_on_self() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let s = series(&mut rng, 16);
        assert_eq!(mse(&s, &s), 0.0);
        assert_eq!(mae(&s, &s), 0.0);
        let shifted: Vec<f32> = s.iter().map(|v| v + 1.0).collect();
        assert!(mse(&s, &shifted) > 0.0);
        assert!((mae(&s, &shifted) - 1.0).abs() < 1e-4);
    }
}

#[test]
fn mse_dominates_mae_squared() {
    // Jensen: E[d²] ≥ (E|d|)².
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = series(&mut rng, 16);
        let b = series(&mut rng, 16);
        let m2 = mse(&a, &b);
        let m1 = mae(&a, &b);
        assert!(m2 + 1e-3 >= m1 * m1);
    }
}

#[test]
fn mse_is_symmetric() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = series(&mut rng, 12);
        let b = series(&mut rng, 12);
        assert!((mse(&a, &b) - mse(&b, &a)).abs() < 1e-4);
        assert!((mae(&a, &b) - mae(&b, &a)).abs() < 1e-4);
    }
}

#[test]
fn smape_bounded_and_symmetric() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = series(&mut rng, 10);
        let b = series(&mut rng, 10);
        let s = smape(&a, &b);
        assert!((0.0..=200.0 + 1e-3).contains(&s));
        assert!((s - smape(&b, &a)).abs() < 1e-3);
    }
}

#[test]
fn smape_scale_invariant() {
    // SMAPE is invariant to multiplying both series by a positive k.
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = series(&mut rng, 10);
        let k = 0.5 + 3.5 * rng.uniform();
        let b: Vec<f32> = a.iter().map(|v| v * 0.7 + 1.0).collect();
        let ka: Vec<f32> = a.iter().map(|v| v * k).collect();
        let kb: Vec<f32> = b.iter().map(|v| v * k).collect();
        assert!((smape(&a, &b) - smape(&ka, &kb)).abs() < 1e-2);
    }
}

#[test]
fn mase_scales_inversely_with_insample_roughness() {
    // Doubling the in-sample variation halves MASE for a fixed error.
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let insample: Vec<f32> = (0..50).map(|_| rng.normal()).collect();
        let insample2: Vec<f32> = insample.iter().map(|v| v * 2.0).collect();
        let truth = vec![0.0f32; 8];
        let pred = vec![1.0f32; 8];
        let m1 = mase(&pred, &truth, &insample, 1);
        let m2 = mase(&pred, &truth, &insample2, 1);
        assert!((m1 / m2 - 2.0).abs() < 0.05, "{m1} vs {m2}");
    }
}

#[test]
fn owa_is_one_for_the_reference() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let s = 1.0 + 49.0 * rng.uniform();
        let m = 0.1 + 4.9 * rng.uniform();
        assert!((owa(s, m, s, m) - 1.0).abs() < 1e-6);
        // Halving both components halves OWA.
        assert!((owa(s / 2.0, m / 2.0, s, m) - 0.5).abs() < 1e-6);
    }
}

#[test]
fn accuracy_bounds() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let n = 1 + rng.below(39);
        let preds: Vec<usize> = (0..n).map(|_| rng.below(5)).collect();
        let truth: Vec<usize> = preds.iter().map(|&p| (p + 1) % 5).collect();
        assert_eq!(accuracy(&preds, &preds), 1.0);
        assert_eq!(accuracy(&preds, &truth), 0.0);
    }
}

#[test]
fn win_counts_total_at_least_benchmarks() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let rows = 1 + rng.below(9);
        let models = 2 + rng.below(4);
        let scores: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..models).map(|_| rng.uniform()).collect())
            .collect();
        let wins = win_counts(&scores);
        assert_eq!(wins.len(), models);
        let total: usize = wins.iter().sum();
        assert!(total >= rows, "ties only add");
    }
}

#[test]
fn mean_ranks_average_to_midpoint() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let rows = 1 + rng.below(9);
        let models = 2 + rng.below(4);
        let scores: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..models).map(|_| rng.uniform()).collect())
            .collect();
        let ranks = mean_ranks(&scores);
        // Sum of ranks per benchmark is fixed: models(models+1)/2.
        let avg: f32 = ranks.iter().sum::<f32>();
        let expect = models as f32 * (models as f32 + 1.0) / 2.0;
        assert!((avg - expect).abs() < 1e-3, "{avg} vs {expect}");
        for r in ranks {
            assert!((1.0..=models as f32).contains(&r));
        }
    }
}

#[test]
fn point_adjust_never_reduces_scores() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let n = 4 + rng.below(60);
        let truth: Vec<bool> = (0..n).map(|_| rng.uniform() < 0.2).collect();
        let pred: Vec<bool> = (0..n).map(|_| rng.uniform() < 0.2).collect();
        let adjusted = point_adjusted_scores(&pred, &truth);
        // Raw (non-adjusted) recall computed directly:
        let tp = pred.iter().zip(&truth).filter(|(&p, &t)| p && t).count() as f32;
        let fn_ = pred.iter().zip(&truth).filter(|(&p, &t)| !p && t).count() as f32;
        let raw_recall = if tp + fn_ == 0.0 {
            0.0
        } else {
            tp / (tp + fn_)
        };
        assert!(adjusted.recall + 1e-6 >= raw_recall);
        assert!((0.0..=1.0).contains(&adjusted.f1));
    }
}

#[test]
fn threshold_flags_at_most_ratio() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let n = 10 + rng.below(190);
        let ratio = 0.01 + 0.49 * rng.uniform();
        // Distinct scores to avoid tie inflation.
        let scores: Vec<f32> = (0..n).map(|i| i as f32 + 0.5 * rng.uniform()).collect();
        let thr = threshold_by_ratio(&scores, ratio);
        let flagged = scores.iter().filter(|&&s| s > thr).count();
        assert!(flagged as f32 <= ratio * n as f32 + 1.0);
    }
}

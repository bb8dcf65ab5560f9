//! Anomaly-detection scoring: point-wise precision/recall/F1 with the
//! *point-adjust* convention used by the paper's benchmark suite (an event
//! counts as detected if any point inside it is flagged; the whole event is
//! then credited).

/// Precision / recall / F1 for one detection run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionScores {
    /// Fraction of flagged points that are truly anomalous.
    pub precision: f32,
    /// Fraction of anomalous points that were flagged.
    pub recall: f32,
    /// Harmonic mean of precision and recall.
    pub f1: f32,
}

impl DetectionScores {
    fn from_counts(tp: usize, fp: usize, fn_: usize) -> Self {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f32 / (tp + fp) as f32
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f32 / (tp + fn_) as f32
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// Applies the point-adjust rule in place: for every contiguous true-anomaly
/// segment that contains at least one predicted point, all its points are
/// marked predicted.
pub fn point_adjust(pred: &mut [bool], truth: &[bool]) {
    assert_eq!(pred.len(), truth.len(), "point_adjust length mismatch");
    let n = truth.len();
    let mut i = 0;
    while i < n {
        if truth[i] {
            let start = i;
            while i < n && truth[i] {
                i += 1;
            }
            if pred[start..i].iter().any(|&p| p) {
                for p in &mut pred[start..i] {
                    *p = true;
                }
            }
        } else {
            i += 1;
        }
    }
}

/// Point-adjusted precision/recall/F1 of `pred` against `truth`.
pub fn point_adjusted_scores(pred: &[bool], truth: &[bool]) -> DetectionScores {
    let mut adjusted = pred.to_vec();
    point_adjust(&mut adjusted, truth);
    let mut tp = 0;
    let mut fp = 0;
    let mut fn_ = 0;
    for (&p, &t) in adjusted.iter().zip(truth) {
        match (p, t) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    DetectionScores::from_counts(tp, fp, fn_)
}

/// Point-adjusted F1 of thresholded `scores` against `truth`: flags every
/// point with `score > threshold`, applies [`point_adjust`], and returns the
/// resulting F1. This is the single number the paper's Sec. IV anomaly
/// protocol reports per (dataset, threshold) pair; pick `threshold` with
/// [`threshold_by_ratio`] to reproduce the anomaly-ratio convention.
pub fn point_adjusted_f1(scores: &[f32], truth: &[bool], threshold: f32) -> f32 {
    assert_eq!(
        scores.len(),
        truth.len(),
        "point_adjusted_f1 length mismatch"
    );
    let pred: Vec<bool> = scores.iter().map(|&s| s > threshold).collect();
    point_adjusted_scores(&pred, truth).f1
}

/// Chooses the detection threshold as the `(1 − ratio)` quantile of the
/// anomaly scores — the "anomaly ratio" convention of the benchmark suite
/// (flag the top `ratio` fraction of points).
pub fn threshold_by_ratio(scores: &[f32], ratio: f32) -> f32 {
    assert!(!scores.is_empty(), "threshold of empty scores");
    assert!((0.0..=1.0).contains(&ratio), "ratio in [0,1]");
    let mut sorted = scores.to_vec();
    sorted.sort_by(f32::total_cmp);
    let idx = ((sorted.len() as f32) * (1.0 - ratio)) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detection() {
        let truth = [false, true, true, false];
        let pred = [false, true, true, false];
        let s = point_adjusted_scores(&pred, &truth);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
    }

    #[test]
    fn point_adjust_credits_whole_event() {
        let truth = [false, true, true, true, false];
        // Only one point of the 3-point event is flagged.
        let pred = [false, false, true, false, false];
        let s = point_adjusted_scores(&pred, &truth);
        assert_eq!(s.recall, 1.0, "point-adjust should credit the whole event");
        assert_eq!(s.precision, 1.0);
    }

    #[test]
    fn missed_event_not_credited() {
        let truth = [true, true, false, true, true];
        let pred = [true, false, false, false, false];
        let s = point_adjusted_scores(&pred, &truth);
        // First event credited (2 TP), second missed (2 FN).
        assert_eq!(s.recall, 0.5);
    }

    #[test]
    fn false_positives_hurt_precision() {
        let truth = [false, false, false, true];
        let pred = [true, true, false, true];
        let s = point_adjusted_scores(&pred, &truth);
        assert!((s.precision - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn no_predictions_gives_zero_f1() {
        let truth = [true, false];
        let pred = [false, false];
        let s = point_adjusted_scores(&pred, &truth);
        assert_eq!(s.f1, 0.0);
    }

    /// Known-answer case, hand-computed: truth has one 4-point segment at
    /// [2, 6); pred hits only index 4. Point-adjust expands the hit to the
    /// whole segment, so the adjusted prediction is exactly the truth mask:
    /// tp = 4, fp = 0, fn = 0 → precision = recall = f1 = 1.
    #[test]
    fn single_point_hit_expands_to_whole_segment() {
        let truth = [false, false, true, true, true, true, false, false];
        let mut pred = [false, false, false, false, true, false, false, false];
        point_adjust(&mut pred, &truth);
        assert_eq!(pred, truth, "adjusted mask must equal the segment mask");
        let s = point_adjusted_scores(
            &[false, false, false, false, true, false, false, false],
            &truth,
        );
        assert_eq!((s.precision, s.recall, s.f1), (1.0, 1.0, 1.0));
    }

    /// Hand-computed mixed case: two segments [1,3) and [5,8), 5 anomalous
    /// points total. Pred hits index 2 (credits segment one: 2 TP), misses
    /// segment two entirely (3 FN), and flags normal index 4 (1 FP).
    /// precision = 2/3, recall = 2/5, f1 = 2·(2/3)·(2/5)/(2/3 + 2/5) = 1/2.
    #[test]
    fn known_answer_two_segments_one_missed() {
        let truth = [false, true, true, false, false, true, true, true];
        let pred = [false, false, true, false, true, false, false, false];
        let s = point_adjusted_scores(&pred, &truth);
        assert!(
            (s.precision - 2.0 / 3.0).abs() < 1e-6,
            "precision {}",
            s.precision
        );
        assert!((s.recall - 2.0 / 5.0).abs() < 1e-6, "recall {}", s.recall);
        assert!((s.f1 - 0.5).abs() < 1e-6, "f1 {}", s.f1);
    }

    /// Empty-label edge case: no true anomalies. Any prediction is a false
    /// positive (precision 0), and with zero positives recall is defined to
    /// 0 — so F1 is 0, never NaN.
    #[test]
    fn empty_labels_give_zero_f1_not_nan() {
        let truth = [false; 6];
        let s = point_adjusted_scores(&[false, true, false, true, false, false], &truth);
        assert_eq!((s.precision, s.recall, s.f1), (0.0, 0.0, 0.0));
        let quiet = point_adjusted_scores(&[false; 6], &truth);
        assert_eq!(quiet.f1, 0.0);
        assert!(!quiet.f1.is_nan() && !s.f1.is_nan());
        // Degenerate empty slices are also defined (all counts zero).
        let empty = point_adjusted_scores(&[], &[]);
        assert_eq!(empty.f1, 0.0);
    }

    /// All-anomalous edge case: the series is one giant segment, so a single
    /// flagged point yields perfect scores after adjustment, while an empty
    /// prediction stays at zero.
    #[test]
    fn all_anomalous_series() {
        let truth = [true; 5];
        let one_hit = point_adjusted_scores(&[false, false, true, false, false], &truth);
        assert_eq!(
            (one_hit.precision, one_hit.recall, one_hit.f1),
            (1.0, 1.0, 1.0)
        );
        let silent = point_adjusted_scores(&[false; 5], &truth);
        assert_eq!(
            (silent.precision, silent.recall, silent.f1),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn point_adjusted_f1_thresholds_scores() {
        // Scores: segment [1,3) peaks at 0.9 on index 1 only; index 4 is a
        // borderline normal point at exactly the threshold (NOT flagged —
        // the comparison is strict).
        let truth = [false, true, true, false, false];
        let scores = [0.1, 0.9, 0.2, 0.1, 0.5];
        let f1 = point_adjusted_f1(&scores, &truth, 0.5);
        assert_eq!(f1, 1.0, "one in-segment hit expands to a perfect match");
        // Lowering the threshold pulls in index 4 as a false positive:
        // tp = 2, fp = 1 → precision 2/3, recall 1, f1 = 0.8.
        let f1_loose = point_adjusted_f1(&scores, &truth, 0.4);
        assert!((f1_loose - 0.8).abs() < 1e-6, "f1 {f1_loose}");
    }

    #[test]
    fn threshold_selects_top_fraction() {
        let scores: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let thr = threshold_by_ratio(&scores, 0.1);
        let flagged = scores.iter().filter(|&&s| s > thr).count();
        assert!(flagged <= 10, "flagged {flagged}");
        assert!(flagged >= 8, "flagged {flagged}");
    }
}

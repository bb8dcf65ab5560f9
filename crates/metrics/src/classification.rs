//! Classification metrics.

/// Fraction of predictions equal to the label.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f32 {
    assert_eq!(pred.len(), truth.len(), "accuracy length mismatch");
    assert!(!pred.is_empty(), "accuracy of empty predictions");
    let correct = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    correct as f32 / pred.len() as f32
}

/// Per-class precision/recall aggregated into a macro-F1 — useful as a
/// secondary classification diagnostic on imbalanced synthetic sets.
pub fn macro_f1(pred: &[usize], truth: &[usize], classes: usize) -> f32 {
    assert_eq!(pred.len(), truth.len(), "macro_f1 length mismatch");
    assert!(classes > 0, "need at least one class");
    let mut f1_sum = 0.0f32;
    for c in 0..classes {
        let tp = pred
            .iter()
            .zip(truth)
            .filter(|(&p, &t)| p == c && t == c)
            .count() as f32;
        let fp = pred
            .iter()
            .zip(truth)
            .filter(|(&p, &t)| p == c && t != c)
            .count() as f32;
        let fn_ = pred
            .iter()
            .zip(truth)
            .filter(|(&p, &t)| p != c && t == c)
            .count() as f32;
        let precision = if tp + fp == 0.0 { 0.0 } else { tp / (tp + fp) };
        let recall = if tp + fn_ == 0.0 {
            0.0
        } else {
            tp / (tp + fn_)
        };
        f1_sum += if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
    }
    f1_sum / classes as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_known_values() {
        assert_eq!(accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]), 0.75);
        assert_eq!(accuracy(&[5], &[5]), 1.0);
        assert_eq!(accuracy(&[0], &[1]), 0.0);
    }

    #[test]
    fn macro_f1_perfect_is_one() {
        assert_eq!(macro_f1(&[0, 1, 0, 1], &[0, 1, 0, 1], 2), 1.0);
    }

    #[test]
    fn macro_f1_penalises_minority_class_failure() {
        // Majority class always predicted: class 1 has F1 = 0.
        let pred = [0, 0, 0, 0];
        let truth = [0, 0, 0, 1];
        let f1 = macro_f1(&pred, &truth, 2);
        assert!(f1 < 0.5, "macro f1 {f1}");
    }
}

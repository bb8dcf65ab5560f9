//! Observation masks for the imputation task (Sec. IV-D): random positions
//! are marked missing and replaced by zeros at the model input; the model is
//! scored on how well it recovers them.

use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Draws a random observation mask of the given shape: 1 = observed,
/// 0 = missing, with `missing_ratio` of positions missing in expectation.
pub fn random_observed_mask(shape: &[usize], missing_ratio: f32, rng: &mut Rng) -> Tensor {
    assert!(
        (0.0..=1.0).contains(&missing_ratio),
        "missing ratio in [0,1]"
    );
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| {
            if rng.uniform() < missing_ratio {
                0.0
            } else {
                1.0
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Applies a mask: observed positions keep their value, missing positions
/// become zero — the model-input convention of the benchmark suite.
pub fn apply_mask(data: &Tensor, observed_mask: &Tensor) -> Tensor {
    data.mul(observed_mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_ratio_is_approximate() {
        let mut rng = Rng::seed_from(11);
        let mask = random_observed_mask(&[100, 100], 0.25, &mut rng);
        let missing = mask.data().iter().filter(|&&m| m == 0.0).count() as f32 / 10_000.0;
        assert!((missing - 0.25).abs() < 0.02, "missing fraction {missing}");
    }

    #[test]
    fn mask_is_binary() {
        let mut rng = Rng::seed_from(12);
        let mask = random_observed_mask(&[50], 0.5, &mut rng);
        assert!(mask.data().iter().all(|&m| m == 0.0 || m == 1.0));
    }

    #[test]
    fn apply_mask_zeroes_missing() {
        let data = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let mask = Tensor::from_vec(&[4], vec![1.0, 0.0, 1.0, 0.0]);
        let masked = apply_mask(&data, &mask);
        assert_eq!(masked.data(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn zero_ratio_keeps_everything() {
        let mut rng = Rng::seed_from(13);
        let mask = random_observed_mask(&[64], 0.0, &mut rng);
        assert!(mask.data().iter().all(|&m| m == 1.0));
    }
}

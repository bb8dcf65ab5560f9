//! Weight initialisers.

use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Glorot/Xavier uniform initialisation for a `[fan_in, fan_out]` weight:
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`. The default for all
/// linear layers in this workspace (matching the PyTorch reference).
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(&[fan_in, fan_out], -a, a, rng)
}

/// Kaiming/He normal initialisation: `N(0, sqrt(2 / fan_in))`, appropriate
/// ahead of ReLU nonlinearities.
pub fn kaiming_normal(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(&[fan_in, fan_out], std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = Rng::seed_from(0);
        let w = xavier_uniform(64, 64, &mut rng);
        let a = (6.0 / 128.0f32).sqrt();
        assert!(w.data().iter().all(|&x| x >= -a && x < a));
    }

    #[test]
    fn xavier_variance_scales_with_fans() {
        let mut rng = Rng::seed_from(1);
        let small = xavier_uniform(256, 256, &mut rng).var_all();
        let large = xavier_uniform(16, 16, &mut rng).var_all();
        assert!(
            large > small,
            "var(16) {large} should exceed var(256) {small}"
        );
    }

    #[test]
    fn kaiming_std_is_plausible() {
        let mut rng = Rng::seed_from(2);
        let w = kaiming_normal(200, 200, &mut rng);
        let std = w.var_all().sqrt();
        let expect = (2.0f32 / 200.0).sqrt();
        assert!(
            (std - expect).abs() / expect < 0.15,
            "std {std} vs {expect}"
        );
    }
}

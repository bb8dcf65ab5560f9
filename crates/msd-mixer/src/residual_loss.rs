//! The Residual Loss (Sec. III-E, Eq. 6).
//!
//! `L_r = Σ relu(|a_{i,j}| − α/√L) / (C(L−1))  +  Σ z²/(CL)`
//!
//! The first term pushes the residual's autocorrelation inside the classical
//! white-noise band; the second minimises its magnitude so no energy is left
//! undecomposed. For imputation the ACF term is skipped (missing values make
//! autocorrelation ill-defined, Sec. IV-D).

use msd_autograd::{Graph, Var};

/// Builds the Residual Loss node for the final residual `z` (`[B, C, L]`).
///
/// * `alpha` — white-noise tolerance multiplier (Eq. 6);
/// * `magnitude_only` — skip the ACF term (imputation mode).
pub fn residual_loss(g: &Graph, z: Var, alpha: f32, magnitude_only: bool) -> Var {
    let magnitude = g.mean_all(g.square(z));
    if magnitude_only {
        return magnitude;
    }
    let acf = g.acf_hinge_loss(z, alpha);
    g.add(acf, magnitude)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_tensor::rng::Rng;
    use msd_tensor::Tensor;

    #[test]
    fn white_noise_loss_is_just_its_energy() {
        let mut rng = Rng::seed_from(30);
        let z = Tensor::randn(&[1, 2, 128], 0.5, &mut rng);
        let energy = z.square().mean_all();
        let g = Graph::new();
        let v = g.input(z);
        let loss = g.value(residual_loss(&g, v, 2.0, false)).item();
        // ACF term ~0 for white noise; total ≈ magnitude term.
        assert!(
            (loss - energy).abs() < 0.01,
            "loss {loss} vs energy {energy}"
        );
    }

    #[test]
    fn periodic_residual_penalised_beyond_energy() {
        let l = 96;
        let data: Vec<f32> = (0..l)
            .map(|i| 0.5 * (2.0 * std::f32::consts::PI * i as f32 / 24.0).sin())
            .collect();
        let z = Tensor::from_vec(&[1, 1, l], data);
        let energy = z.square().mean_all();
        let g = Graph::new();
        let v = g.input(z);
        let loss = g.value(residual_loss(&g, v, 2.0, false)).item();
        assert!(
            loss > energy + 0.05,
            "loss {loss} should exceed energy {energy}"
        );
    }

    #[test]
    fn magnitude_only_ignores_autocorrelation() {
        let l = 96;
        let data: Vec<f32> = (0..l)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 24.0).sin())
            .collect();
        let z = Tensor::from_vec(&[1, 1, l], data);
        let energy = z.square().mean_all();
        let g = Graph::new();
        let v = g.input(z);
        let loss = g.value(residual_loss(&g, v, 2.0, true)).item();
        assert!((loss - energy).abs() < 1e-5);
    }

    #[test]
    fn minimising_residual_loss_whitens_a_free_residual() {
        // Gradient-descend the loss directly on a free tensor: the result
        // must have less autocorrelation violation and less energy.
        let l = 64;
        let mut rng = Rng::seed_from(31);
        let mut z = Tensor::from_vec(
            &[1, 1, l],
            (0..l)
                .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 16.0).sin() + 0.1 * rng.normal())
                .collect(),
        );
        let initial_violation = msd_tensor::stats::acf_violation_rate(z.data(), l - 1);
        let initial_energy = z.square().mean_all();
        for _ in 0..500 {
            let g = Graph::new();
            let v = g.param(0, z.clone());
            let loss = residual_loss(&g, v, 2.0, false);
            let grads = g.backward(loss);
            z.axpy(-0.05, grads.get(0).unwrap());
        }
        let final_violation = msd_tensor::stats::acf_violation_rate(z.data(), l - 1);
        let final_energy = z.square().mean_all();
        assert!(
            final_energy < initial_energy * 0.5,
            "energy {initial_energy} -> {final_energy}"
        );
        assert!(
            final_violation <= initial_violation,
            "violation {initial_violation} -> {final_violation}"
        );
    }
}

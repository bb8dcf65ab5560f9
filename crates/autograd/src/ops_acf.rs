//! Fused autocorrelation hinge loss — the first term of the paper's
//! Residual Loss (Eq. 6).
//!
//! For the residual `Z_k ∈ R^{B×C×L}` the paper penalises autocorrelation
//! coefficients that exceed the white-noise tolerance `α/√L`:
//!
//! `L_acf = Σ_{i,j} relu(|a_{i,j}| − α/√L) / (C·(L−1))`
//!
//! The hinge is linear, not squared: a squared penalty's gradient vanishes
//! as a lag approaches the tolerance band, so borderline lags keep counting
//! as violations while receiving negligible pressure. The linear hinge keeps
//! a constant-magnitude gradient on every violating lag until it is strictly
//! inside the band, which is what drives the violation *rate* to zero.
//!
//! with `a_{i,j}` the lag-`j` autocorrelation of channel `i` (Eq. 5),
//! averaged over the batch. Because the coefficient involves a quotient of
//! two reductions over the centred series, building it from primitive tape
//! ops would create O(L) nodes per channel; instead this module computes the
//! loss *and* its input gradient analytically in one pass, and registers a
//! single fused node.
//!
//! Gradient derivation (per channel, centred series `y_t = z_t − m`,
//! `D = Σ y²`, `N_j = Σ_{t>j} y_t y_{t−j}`, `a_j = N_j/D`):
//!
//! * `∂N_j/∂y_s = y_{s−j}·[s−j ≥ 0] + y_{s+j}·[s+j < L]`
//! * `∂a_j/∂y_s = (∂N_j/∂y_s − 2·a_j·y_s) / D`
//! * `∂L/∂a_j  = sign(a_j)·[|a_j| > c] / (B·C·(L−1))`
//! * chain through the centring: `∂L/∂z_s = g_s − mean_t(g_t)`.
//!
//! The adjoint is validated against finite differences in
//! `tests/gradcheck.rs`.

use crate::graph::{Graph, Op, Var};
use msd_tensor::ops::kernels::{self as k, reduce as kred};
use msd_tensor::Tensor;

impl Graph {
    /// Fused ACF hinge loss over the trailing (time) axis of `z`, shape
    /// `[B, C, L]` or `[C, L]`. `alpha` is the white-noise tolerance
    /// multiplier of Eq. 6 (the paper's default corresponds to the classical
    /// `±2/√L` band, i.e. `alpha = 2`).
    ///
    /// Returns a scalar node. Channels whose centred energy is numerically
    /// zero contribute nothing (a constant residual has no autocorrelation).
    pub fn acf_hinge_loss(&self, z: Var, alpha: f32) -> Var {
        let (loss, grad) = self.with_value(z, |t| acf_hinge_forward_backward(t, alpha));
        self.push_unary(z, loss, Op::AcfHinge { input_grad: grad })
    }
}

/// Computes the hinge loss and its gradient with respect to `z` in one pass.
///
/// The per-row mean, energy `D`, numerators `N_j`, and gradient mean all
/// run through the spec'd reductions of the kernel layer, and the loss
/// keeps one `f64` partial per fixed row block ([`k::row_blocks`]), folded
/// in block order — so loss and gradient are bit-identical for every SIMD
/// tier.
fn acf_hinge_forward_backward(z: &Tensor, alpha: f32) -> (Tensor, Tensor) {
    let nd = z.ndim();
    assert!(
        nd >= 2,
        "acf_hinge_loss expects [..., C, L], got {:?}",
        z.shape()
    );
    let l = z.shape()[nd - 1];
    let rows = z.len() / l;
    assert!(l >= 2, "acf needs at least 2 time steps");
    let c = alpha / (l as f32).sqrt();
    let norm = 1.0 / (rows as f32 * (l - 1) as f32);

    let tier = k::tier();
    let mut grad = Tensor::zeros(z.shape());
    let data = z.data();

    let (rows_per_block, _) = k::row_blocks(rows, l);
    let mut total = 0.0f64;
    let mut y = vec![0.0f32; l];
    let mut gy = vec![0.0f32; l];
    for (b, chunk) in grad.data_mut().chunks_mut(rows_per_block * l).enumerate() {
        let r0 = b * rows_per_block;
        let mut block_total = 0.0f64;
        for (i, out) in chunk.chunks_exact_mut(l).enumerate() {
            let row = &data[(r0 + i) * l..(r0 + i + 1) * l];
            let mean = kred::sum_seq(tier, row) / l as f32;
            for (yt, &zt) in y.iter_mut().zip(row) {
                *yt = zt - mean;
            }
            let d = kred::dot_seq(tier, &y, &y);
            if d < 1e-9 {
                continue;
            }
            gy.iter_mut().for_each(|g| *g = 0.0);
            let inv_d = 1.0 / d;
            // Accumulated Σ_j w_j · a_j for the −2·a_j·y_s term.
            let mut wa_sum = 0.0f32;
            for j in 1..l {
                let n = kred::dot_seq(tier, &y[j..], &y[..l - j]);
                let a = n * inv_d;
                let excess = a.abs() - c;
                if excess <= 0.0 {
                    continue;
                }
                block_total += excess as f64;
                let w = a.signum() * norm;
                wa_sum += w * a;
                // ∂N_j/∂y_s contributions (exact per-element scatter).
                let wd = w * inv_d;
                for s in j..l {
                    gy[s] += wd * y[s - j];
                    gy[s - j] += wd * y[s];
                }
            }
            if wa_sum != 0.0 {
                let kk = 2.0 * wa_sum * inv_d;
                for (g, &yv) in gy.iter_mut().zip(&y) {
                    *g -= kk * yv;
                }
            }
            // Chain through the centring: dz_s = g_s − mean(g).
            let gmean = kred::sum_seq(tier, &gy) / l as f32;
            for (o, &g) in out.iter_mut().zip(&gy) {
                *o = g - gmean;
            }
        }
        // The per-block partial is part of the spec: adding each row's
        // terms straight into `total` would round differently.
        total += block_total;
    }

    (Tensor::scalar((total * norm as f64) as f32), grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use msd_tensor::rng::Rng;
    use msd_tensor::stats::acf;

    #[test]
    fn white_noise_has_near_zero_loss() {
        let mut rng = Rng::seed_from(2);
        let z = Tensor::randn(&[1, 2, 256], 1.0, &mut rng);
        let g = Graph::new();
        let v = g.input(z);
        let loss = g.acf_hinge_loss(v, 2.0);
        assert!(g.value(loss).item() < 5e-3, "loss {}", g.value(loss).item());
    }

    #[test]
    fn periodic_residual_has_large_loss() {
        let l = 96;
        let data: Vec<f32> = (0..l)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 12.0).sin())
            .collect();
        let z = Tensor::from_vec(&[1, 1, l], data);
        let g = Graph::new();
        let v = g.input(z);
        let loss = g.acf_hinge_loss(v, 2.0);
        assert!(g.value(loss).item() > 0.05, "loss {}", g.value(loss).item());
    }

    #[test]
    fn constant_residual_contributes_nothing() {
        let z = Tensor::full(&[1, 1, 32], 7.0);
        let g = Graph::new();
        let v = g.param(0, z);
        let loss = g.acf_hinge_loss(v, 2.0);
        assert_eq!(g.value(loss).item(), 0.0);
        let grads = g.backward(loss);
        assert!(grads.get(0).unwrap().data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn forward_matches_direct_acf_computation() {
        // Recompute the hinge loss from the reference acf() and compare.
        let mut rng = Rng::seed_from(4);
        let l = 48;
        let mut data = Vec::new();
        for _ in 0..2 {
            // A mix of signal and noise so some lags violate the band.
            for i in 0..l {
                let s = (2.0 * std::f32::consts::PI * i as f32 / 8.0).sin();
                data.push(s + 0.3 * rng.normal());
            }
        }
        let z = Tensor::from_vec(&[1, 2, l], data.clone());
        let g = Graph::new();
        let v = g.input(z);
        let alpha = 2.0;
        let fused = g.value(g.acf_hinge_loss(v, alpha)).item();

        let c = alpha / (l as f32).sqrt();
        let mut reference = 0.0f32;
        for ch in 0..2 {
            let row = &data[ch * l..(ch + 1) * l];
            for a in acf(row, l - 1) {
                reference += (a.abs() - c).max(0.0);
            }
        }
        reference /= 2.0 * (l - 1) as f32;
        assert!(
            (fused - reference).abs() < 1e-4,
            "fused {fused} vs reference {reference}"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from(5);
        let l = 16;
        let z0 = {
            // signal + noise so the hinge is active at several lags
            let data: Vec<f32> = (0..2 * l)
                .map(|i| {
                    (2.0 * std::f32::consts::PI * (i % l) as f32 / 4.0).sin() + 0.2 * rng.normal()
                })
                .collect();
            Tensor::from_vec(&[1, 2, l], data)
        };
        let f = |t: &Tensor| -> f32 {
            let g = Graph::new();
            let v = g.input(t.clone());
            g.value(g.acf_hinge_loss(v, 2.0)).item()
        };
        let g = Graph::new();
        let v = g.param(0, z0.clone());
        let loss = g.acf_hinge_loss(v, 2.0);
        let grads = g.backward(loss);
        let analytic = grads.get(0).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 3, 7, 15, 16, 25, 31] {
            let mut plus = z0.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = z0.clone();
            minus.data_mut()[idx] -= eps;
            let fd = (f(&plus) - f(&minus)) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "idx {idx}: fd {fd} vs analytic {an}"
            );
        }
    }
}

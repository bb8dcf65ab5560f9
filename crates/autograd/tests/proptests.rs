//! Property-based tests for the autograd engine: algebraic identities that
//! must hold for arbitrary inputs, both in forward values and gradients.
//!
//! Cases are generated by looping over deterministic seeds with the in-tree
//! RNG, so the suite runs fully offline with no external dependency.

use msd_autograd::Graph;
use msd_tensor::{allclose, rng::Rng, Tensor};

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(shape, 1.0, &mut rng)
}

#[test]
fn linearity_of_gradients() {
    // d/dx mean(a·x) = a/n elementwise, for any a.
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from(seed);
        let a = 0.5 + 2.5 * rng.uniform();
        let x0 = randn(&[6], seed);
        let g = Graph::new();
        let x = g.param(0, x0.clone());
        let y = g.scale(x, a);
        let loss = g.mean_all(y);
        let grads = g.backward(loss);
        let gx = grads.get(0).unwrap();
        assert!(gx.data().iter().all(|&v| (v - a / 6.0).abs() < 1e-5));
    }
}

#[test]
fn sum_rule_of_differentiation() {
    // grad of f(x) + h(x) equals grad f + grad h.
    for seed in 0..64u64 {
        let x0 = randn(&[5], seed);
        let grad_of = |combined: bool| -> Tensor {
            let g = Graph::new();
            let x = g.param(0, x0.clone());
            let f = g.square(x);
            let h = g.gelu(x);
            let loss = if combined {
                g.sum_all(g.add(f, h))
            } else {
                // Separate losses, summed at the scalar level.
                g.add(g.sum_all(f), g.sum_all(h))
            };
            g.backward(loss).get(0).unwrap().clone()
        };
        assert!(allclose(&grad_of(true), &grad_of(false), 1e-5));
    }
}

#[test]
fn chain_through_reshape_is_transparent() {
    // Reshaping must not change the loss or the gradient values.
    for seed in 0..64u64 {
        let x0 = randn(&[2, 6], seed);
        let direct = {
            let g = Graph::new();
            let x = g.param(0, x0.clone());
            let loss = g.mean_all(g.square(x));
            (
                g.value(loss).item(),
                g.backward(loss).get(0).unwrap().clone(),
            )
        };
        let reshaped = {
            let g = Graph::new();
            let x = g.param(0, x0.clone());
            let r = g.reshape(x, &[3, 4]);
            let loss = g.mean_all(g.square(r));
            (
                g.value(loss).item(),
                g.backward(loss).get(0).unwrap().clone(),
            )
        };
        assert!((direct.0 - reshaped.0).abs() < 1e-6);
        assert!(allclose(&direct.1, &reshaped.1.reshape(&[2, 6]), 1e-6));
    }
}

#[test]
fn permute_preserves_loss_and_gradient_multiset() {
    for seed in 0..64u64 {
        let x0 = randn(&[3, 4], seed);
        let g = Graph::new();
        let x = g.param(0, x0.clone());
        let p = g.permute(x, &[1, 0]);
        let loss = g.mean_all(g.square(p));
        let loss_val = g.value(loss).item();
        let gx = g.backward(loss).get(0).unwrap().clone();

        let g2 = Graph::new();
        let x2 = g2.param(0, x0);
        let loss2 = g2.mean_all(g2.square(x2));
        assert!((loss_val - g2.value(loss2).item()).abs() < 1e-6);
        let gx2 = g2.backward(loss2).get(0).unwrap().clone();
        assert!(allclose(&gx, &gx2, 1e-6));
    }
}

#[test]
fn mse_loss_is_nonnegative_and_zero_iff_equal() {
    for seed in 0..64u64 {
        let x0 = randn(&[8], seed);
        let g = Graph::new();
        let x = g.input(x0.clone());
        let self_loss = g.mse_loss(x, &x0);
        assert_eq!(g.value(self_loss).item(), 0.0);
        let other = randn(&[8], seed.wrapping_add(1));
        let g = Graph::new();
        let x = g.input(x0.clone());
        let loss = g.mse_loss(x, &other);
        assert!(g.value(loss).item() >= 0.0);
    }
}

#[test]
fn softmax_ce_at_least_uniform_entropy_bound() {
    // CE >= 0 always; for the true label the loss of a uniform logit
    // vector is ln(classes).
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from(seed);
        let classes = 2 + rng.below(4);
        let g = Graph::new();
        let logits = g.input(randn(&[1, classes], seed));
        let loss = g.value(g.softmax_cross_entropy(logits, &[0])).item();
        assert!(loss >= 0.0);
        let g = Graph::new();
        let logits = g.input(Tensor::zeros(&[1, classes]));
        let loss = g.value(g.softmax_cross_entropy(logits, &[0])).item();
        assert!((loss - (classes as f32).ln()).abs() < 1e-5);
    }
}

#[test]
fn acf_loss_is_shift_invariant() {
    // Autocorrelation is invariant to adding a constant: the ACF term
    // must not change under a level shift.
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from(seed);
        let shift = 6.0 * rng.uniform() - 3.0;
        let z = randn(&[1, 1, 32], seed);
        let shifted = z.add_scalar(shift);
        let eval = |t: &Tensor| {
            let g = Graph::new();
            let v = g.input(t.clone());
            g.value(g.acf_hinge_loss(v, 2.0)).item()
        };
        assert!((eval(&z) - eval(&shifted)).abs() < 1e-3);
    }
}

#[test]
fn dropout_mask_is_binary_scaled() {
    for seed in 0..64u64 {
        let g = Graph::new();
        let mut rng = Rng::seed_from(seed);
        let p = 0.05 + 0.85 * rng.uniform();
        let x = g.input(Tensor::ones(&[64]));
        let y = g.value(g.dropout(x, p, &mut rng));
        let keep = 1.0 / (1.0 - p);
        assert!(y
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - keep).abs() < 1e-5));
    }
}

#[test]
fn maxpool_output_bounds_inputs() {
    for seed in 0..64u64 {
        let x = randn(&[2, 8], seed);
        let g = Graph::new();
        let v = g.input(x.clone());
        let y = g.value(g.maxpool_last(v, 4));
        let max_in = x.max_all();
        assert!(y.max_all() <= max_in + 1e-6);
        // Every pooled value must appear in the input.
        for &p in y.data() {
            assert!(x.data().iter().any(|&v| (v - p).abs() < 1e-6));
        }
    }
}

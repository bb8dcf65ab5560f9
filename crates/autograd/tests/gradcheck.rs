//! Finite-difference validation of every differentiable op's adjoint.
//!
//! Each test carries `// gradcheck: <Name>` marker lines naming the tape ops
//! whose adjoints it exercises. `tests/op_coverage.rs` enumerates
//! `msd_autograd::ALL_OPS` and fails if any registered op lacks a marker
//! here, so a new op cannot ship without a gradient check (or a documented
//! exemption).

use msd_autograd::check::assert_gradcheck;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(shape, 1.0, &mut rng)
}

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

// gradcheck: Add
// gradcheck: Sub
// gradcheck: Mul
// gradcheck: MeanAll
#[test]
fn grad_add_sub_mul() {
    let other = randn(&[3, 4], 100);
    assert_gradcheck(&randn(&[3, 4], 1), EPS, TOL, |g, x| {
        let c = g.input(other.clone());
        let s = g.add(x, c);
        let d = g.sub(s, c);
        let m = g.mul(d, c);
        g.mean_all(m)
    });
}

// gradcheck: SumAll
#[test]
fn grad_mul_self() {
    assert_gradcheck(&randn(&[5], 2), EPS, TOL, |g, x| {
        let y = g.mul(x, x);
        g.sum_all(y)
    });
}

// gradcheck: Div
#[test]
fn grad_div() {
    // Keep the denominator away from zero.
    let denom = randn(&[4], 3).map(|v| v.abs() + 1.0);
    assert_gradcheck(&randn(&[4], 4), EPS, TOL, |g, x| {
        let d = g.input(denom.clone());
        let q = g.div(x, d);
        g.mean_all(q)
    });
    // And gradient through the denominator.
    let numer = randn(&[4], 5);
    assert_gradcheck(&randn(&[4], 6).map(|v| v.abs() + 1.5), EPS, TOL, |g, x| {
        let n = g.input(numer.clone());
        let q = g.div(n, x);
        g.mean_all(q)
    });
}

// gradcheck: Scale
// gradcheck: Neg
// gradcheck: Square
#[test]
fn grad_scale_neg_square() {
    assert_gradcheck(&randn(&[6], 7), EPS, TOL, |g, x| {
        let a = g.scale(x, 3.0);
        let b = g.neg(a);
        let c = g.square(b);
        g.mean_all(c)
    });
}

// gradcheck: Recip
// gradcheck: Sqrt
#[test]
fn grad_recip_sqrt() {
    assert_gradcheck(&randn(&[5], 8).map(|v| v.abs() + 1.0), EPS, TOL, |g, x| {
        let r = g.recip(x);
        let s = g.sqrt(x);
        let sum = g.add(r, s);
        g.mean_all(sum)
    });
}

// gradcheck: Linear
#[test]
fn grad_linear_input_weight_bias() {
    let w0 = randn(&[4, 3], 9);
    let b0 = randn(&[3], 10);
    // Gradient w.r.t. input.
    assert_gradcheck(&randn(&[2, 4], 11), EPS, TOL, |g, x| {
        let w = g.input(w0.clone());
        let b = g.input(b0.clone());
        let y = g.linear(x, w, Some(b));
        g.mean_all(g.square(y))
    });
    // Gradient w.r.t. weight.
    let x0 = randn(&[2, 4], 12);
    assert_gradcheck(&w0, EPS, TOL, |g, w| {
        let x = g.input(x0.clone());
        let y = g.linear(x, w, None);
        g.mean_all(g.square(y))
    });
    // Gradient w.r.t. bias.
    assert_gradcheck(&b0, EPS, TOL, |g, b| {
        let x = g.input(x0.clone());
        let w = g.input(w0.clone());
        let y = g.linear(x, w, Some(b));
        g.mean_all(g.square(y))
    });
}

#[test]
fn grad_linear_high_rank_input() {
    let w0 = randn(&[3, 2], 13);
    assert_gradcheck(&randn(&[2, 2, 2, 3], 14), EPS, TOL, |g, x| {
        let w = g.input(w0.clone());
        let y = g.linear(x, w, None);
        g.mean_all(g.square(y))
    });
}

// gradcheck: Matmul
#[test]
fn grad_matmul_batched() {
    let b0 = randn(&[2, 3, 2], 15);
    assert_gradcheck(&randn(&[2, 2, 3], 16), EPS, TOL, |g, a| {
        let b = g.input(b0.clone());
        let y = g.matmul(a, b);
        g.mean_all(g.square(y))
    });
    let a0 = randn(&[2, 2, 3], 17);
    assert_gradcheck(&b0, EPS, TOL, |g, b| {
        let a = g.input(a0.clone());
        let y = g.matmul(a, b);
        g.mean_all(g.square(y))
    });
}

#[test]
fn grad_matmul_2d_rhs() {
    let b0 = randn(&[3, 4], 18);
    assert_gradcheck(&randn(&[2, 2, 3], 19), EPS, TOL, |g, a| {
        let b = g.input(b0.clone());
        let y = g.matmul(a, b);
        g.mean_all(g.square(y))
    });
    let a0 = randn(&[2, 2, 3], 20);
    assert_gradcheck(&b0, EPS, TOL, |g, b| {
        let a = g.input(a0.clone());
        let y = g.matmul(a, b);
        g.mean_all(g.square(y))
    });
}

#[test]
fn grad_linear_across_microkernel_boundaries() {
    // The linear adjoint computes dX = dY·Wᵀ and dW = Xᵀ·dY through the
    // strided matmul_nt / matmul_tn paths. Shapes straddle the SGEMM
    // microkernel tile (MR = 6 rows, NR = 16 columns) so the ragged-edge
    // packing code sits on the gradient path, not just the interior kernel.
    let w0 = randn(&[7, 17], 50).scale(0.4);
    let x0 = randn(&[13, 7], 51);
    assert_gradcheck(&x0, EPS, TOL, |g, x| {
        let w = g.input(w0.clone());
        let y = g.linear(x, w, None);
        g.mean_all(g.square(y))
    });
    assert_gradcheck(&w0, EPS, TOL, |g, w| {
        let x = g.input(x0.clone());
        let y = g.linear(x, w, None);
        g.mean_all(g.square(y))
    });
}

#[test]
fn grad_matmul_batched_across_microkernel_boundaries() {
    // Equal-rank batched adjoint: dA = G·Bᵀ and dB = Aᵀ·G run one strided
    // gemm per batch entry. Ragged (m, k, n) = (7, 5, 17) crosses NR = 16.
    let b0 = randn(&[3, 5, 17], 52).scale(0.4);
    assert_gradcheck(&randn(&[3, 7, 5], 53), EPS, TOL, |g, a| {
        let b = g.input(b0.clone());
        let y = g.matmul(a, b);
        g.mean_all(g.square(y))
    });
    let a0 = randn(&[3, 7, 5], 54);
    assert_gradcheck(&b0, EPS, TOL, |g, b| {
        let a = g.input(a0.clone());
        let y = g.matmul(a, b);
        g.mean_all(g.square(y))
    });
}

// gradcheck: PadAxis
// gradcheck: Reshape
// gradcheck: Permute
// gradcheck: Narrow
// gradcheck: MulConst
#[test]
fn grad_layout_chain() {
    // pad → reshape → permute → narrow, with a position-dependent weighting.
    let w = randn(&[3, 2, 2], 21);
    assert_gradcheck(&randn(&[2, 6], 22), EPS, TOL, |g, x| {
        let p = g.pad_axis(x, 1, 2, 0); // [2, 8]
        let r = g.reshape(p, &[2, 4, 2]);
        let t = g.permute(r, &[1, 0, 2]); // [4, 2, 2]
        let n = g.narrow(t, 0, 1, 3); // [3, 2, 2]
        let wn = g.mul_const(n, &w);
        g.sum_all(wn)
    });
}

// gradcheck: Concat
#[test]
fn grad_concat() {
    let other = randn(&[2, 3], 23);
    assert_gradcheck(&randn(&[2, 2], 24), EPS, TOL, |g, x| {
        let o = g.input(other.clone());
        let c = g.concat(&[x, o], 1);
        g.mean_all(g.square(c))
    });
}

// gradcheck: Gelu
// gradcheck: Relu
// gradcheck: Tanh
#[test]
fn grad_activations() {
    assert_gradcheck(&randn(&[8], 25), EPS, TOL, |g, x| {
        let y = g.gelu(x);
        g.mean_all(g.square(y))
    });
    assert_gradcheck(&randn(&[8], 26).map(|v| v + 0.3), EPS, TOL, |g, x| {
        // Shift away from the ReLU kink where FD is ill-defined.
        let y = g.relu(x);
        g.mean_all(g.square(y))
    });
    assert_gradcheck(&randn(&[8], 27), EPS, TOL, |g, x| {
        let y = g.tanh(x);
        g.mean_all(g.square(y))
    });
}

// gradcheck: SumAxis
// gradcheck: MeanAxis
#[test]
fn grad_reductions() {
    assert_gradcheck(&randn(&[3, 4], 28), EPS, TOL, |g, x| {
        let s = g.sum_axis(x, 0);
        let m = g.mean_axis(x, 1);
        let a = g.sum_all(g.square(s));
        let b = g.sum_all(g.square(m));
        g.add(a, b)
    });
}

// gradcheck: BroadcastLast
#[test]
fn grad_broadcast_last() {
    assert_gradcheck(&randn(&[3], 29), EPS, TOL, |g, x| {
        let b = g.broadcast_last(x, 4);
        g.mean_all(g.square(b))
    });
}

// gradcheck: SoftmaxLast
#[test]
fn grad_softmax() {
    assert_gradcheck(&randn(&[2, 5], 30), EPS, TOL, |g, x| {
        let s = g.softmax_last(x);
        g.mean_all(g.square(s))
    });
}

// gradcheck: SoftmaxCe
#[test]
fn grad_softmax_cross_entropy() {
    assert_gradcheck(&randn(&[3, 4], 31), EPS, TOL, |g, x| {
        g.softmax_cross_entropy(x, &[0, 2, 3])
    });
}

// gradcheck: FusedLoss
#[test]
fn grad_fused_losses() {
    let target = randn(&[2, 6], 32);
    assert_gradcheck(&randn(&[2, 6], 33), EPS, TOL, |g, x| g.mse_loss(x, &target));
    let mask = Tensor::from_vec(
        &[2, 6],
        vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0],
    );
    assert_gradcheck(&randn(&[2, 6], 34), EPS, TOL, |g, x| {
        g.masked_mse_loss(x, &target, &mask)
    });
}

#[test]
fn grad_mae_away_from_kink() {
    // Shift values away from the target so |diff| > eps everywhere.
    let target = Tensor::zeros(&[6]);
    let x0 = randn(&[6], 35).map(|v| if v >= 0.0 { v + 0.5 } else { v - 0.5 });
    assert_gradcheck(&x0, 1e-3, TOL, |g, x| g.mae_loss(x, &target));
}

#[test]
fn grad_composed_mlp_block() {
    // Linear → GELU → Linear → residual add: exactly the paper's MLP block
    // shape (Fig. 3a) without droppath.
    let w1 = randn(&[4, 8], 36).scale(0.5);
    let w2 = randn(&[8, 4], 37).scale(0.5);
    assert_gradcheck(&randn(&[3, 4], 38), EPS, TOL, |g, x| {
        let w1v = g.input(w1.clone());
        let w2v = g.input(w2.clone());
        let h = g.linear(x, w1v, None);
        let h = g.gelu(h);
        let h = g.linear(h, w2v, None);
        let y = g.add(x, h);
        g.mean_all(g.square(y))
    });
}

#[test]
fn grad_decomposition_subtract_chain() {
    // Mimics Z_i = Z_{i-1} − S_i with S produced by a linear map: gradients
    // must flow both through the subtraction and the component path.
    let w = randn(&[6, 6], 39).scale(0.3);
    assert_gradcheck(&randn(&[2, 6], 40), EPS, TOL, |g, x| {
        let wv = g.input(w.clone());
        let s1 = g.linear(x, wv, None);
        let z1 = g.sub(x, s1);
        let s2 = g.linear(z1, wv, None);
        let z2 = g.sub(z1, s2);
        let recon = g.mean_all(g.square(z2));
        let comp = g.mean_all(g.square(s1));
        g.add(recon, comp)
    });
}

// gradcheck: MulBcastLast
// gradcheck: AddBcastLast
#[test]
fn grad_bcast_last_ops() {
    let b0 = randn(&[4], 41);
    assert_gradcheck(&randn(&[3, 4], 42), EPS, TOL, |g, x| {
        let b = g.input(b0.clone());
        let y = g.mul_bcast_last(x, b);
        let z = g.add_bcast_last(y, b);
        g.mean_all(g.square(z))
    });
    let x0 = randn(&[3, 4], 43);
    assert_gradcheck(&b0, EPS, TOL, |g, b| {
        let x = g.input(x0.clone());
        let y = g.mul_bcast_last(x, b);
        let z = g.add_bcast_last(y, b);
        g.mean_all(g.square(z))
    });
}

#[test]
fn grad_shared_parameter_accumulates() {
    // The same tensor used through two leaves of one tape: Gradients must
    // merge both contributions under the one ParamId.
    use msd_autograd::Graph;
    let g = Graph::new();
    let t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
    let p1 = g.param(9, t.clone());
    let p2 = g.param(9, t);
    let y = g.mul(p1, p2); // x^2 elementwise
    let loss = g.sum_all(y);
    let grads = g.backward(loss);
    assert_eq!(grads.len(), 1);
    assert_eq!(grads.get(9).unwrap().data(), &[2.0, 4.0]);
}

// gradcheck: MaxPoolLast
#[test]
fn grad_maxpool_last() {
    // Values spread out so the argmax is stable under the FD perturbation.
    let x0 = Tensor::from_vec(
        &[2, 6],
        vec![1.0, 5.0, 2.0, 9.0, 3.0, 4.0, 8.0, 1.0, 6.0, 2.0, 7.0, 3.0],
    );
    assert_gradcheck(&x0, 1e-3, TOL, |g, x| {
        let y = g.maxpool_last(x, 3);
        g.mean_all(g.square(y))
    });
}

#[test]
fn maxpool_forward_values() {
    use msd_autograd::Graph;
    let g = Graph::new();
    let x = g.input(Tensor::from_vec(&[1, 4], vec![1.0, 3.0, -2.0, 0.0]));
    let y = g.maxpool_last(x, 2);
    assert_eq!(g.value(y).data(), &[3.0, 0.0]);
    assert_eq!(g.shape_of(y), vec![1, 2]);
}

// gradcheck: Abs
// gradcheck: AddConst
// gradcheck: AddScalar
#[test]
fn grad_abs_and_add_const() {
    // Shift values away from |x| = 0 so FD never straddles the kink.
    let shift = randn(&[6], 44);
    let x0 = randn(&[6], 45).map(|v| if v >= 0.0 { v + 0.5 } else { v - 0.5 });
    assert_gradcheck(&x0, 1e-3, TOL, |g, x| {
        let a = g.abs(x);
        let b = g.add_scalar(a, 0.75);
        let c = g.add_const(b, &shift);
        g.mean_all(g.square(c))
    });
}

// gradcheck: LinearGelu
#[test]
fn grad_linear_gelu() {
    let w0 = randn(&[4, 5], 46).scale(0.5);
    let b0 = randn(&[5], 47);
    let x0 = randn(&[3, 4], 48);
    // Gradient w.r.t. input, weight, and bias of the fused node.
    assert_gradcheck(&x0, EPS, TOL, |g, x| {
        let w = g.input(w0.clone());
        let b = g.input(b0.clone());
        let y = g.linear_gelu(x, w, Some(b));
        g.mean_all(g.square(y))
    });
    assert_gradcheck(&w0, EPS, TOL, |g, w| {
        let x = g.input(x0.clone());
        let y = g.linear_gelu(x, w, None);
        g.mean_all(g.square(y))
    });
    assert_gradcheck(&b0, EPS, TOL, |g, b| {
        let x = g.input(x0.clone());
        let w = g.input(w0.clone());
        let y = g.linear_gelu(x, w, Some(b));
        g.mean_all(g.square(y))
    });
}

#[test]
fn linear_gelu_forward_matches_composed() {
    // The fused node must be bit-identical to gelu(linear(x, w, b)).
    use msd_autograd::Graph;
    let x0 = randn(&[7, 4], 55);
    let w0 = randn(&[4, 9], 56).scale(0.5);
    let b0 = randn(&[9], 57);
    let g = Graph::new();
    let x = g.input(x0);
    let w = g.input(w0);
    let b = g.input(b0);
    let fused = g.linear_gelu(x, w, Some(b));
    let composed = g.gelu(g.linear(x, w, Some(b)));
    let fv = g.value(fused);
    let cv = g.value(composed);
    for (a, b) in fv.data().iter().zip(cv.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

// gradcheck: LayerNorm
#[test]
fn grad_layer_norm() {
    let gamma0 = randn(&[6], 58).map(|v| v * 0.3 + 1.0);
    let beta0 = randn(&[6], 59).scale(0.3);
    let x0 = randn(&[4, 6], 60);
    // Gradient w.r.t. the normalised input.
    assert_gradcheck(&x0, EPS, TOL, |g, x| {
        let gamma = g.input(gamma0.clone());
        let beta = g.input(beta0.clone());
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        g.mean_all(g.square(y))
    });
    // Gradient w.r.t. the gain.
    assert_gradcheck(&gamma0, EPS, TOL, |g, gamma| {
        let x = g.input(x0.clone());
        let beta = g.input(beta0.clone());
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        g.mean_all(g.square(y))
    });
    // Gradient w.r.t. the shift.
    assert_gradcheck(&beta0, EPS, TOL, |g, beta| {
        let x = g.input(x0.clone());
        let gamma = g.input(gamma0.clone());
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        g.mean_all(g.square(y))
    });
}

// gradcheck: AcfHinge
#[test]
fn grad_acf_hinge() {
    // Signal + noise so the hinge is active at several lags; small eps keeps
    // FD perturbations from flipping lags across the tolerance band.
    let mut rng = Rng::seed_from(61);
    let l = 16;
    let data: Vec<f32> = (0..2 * l)
        .map(|i| (2.0 * std::f32::consts::PI * (i % l) as f32 / 4.0).sin() + 0.2 * rng.normal())
        .collect();
    let z0 = Tensor::from_vec(&[1, 2, l], data);
    assert_gradcheck(&z0, 1e-3, TOL, |g, z| g.acf_hinge_loss(z, 2.0));
}

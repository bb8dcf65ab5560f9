//! Layers: linear, the paper's MLP block (Fig. 3a), and layer norm.

use crate::{xavier_uniform, Ctx, ParamStore};
use msd_autograd::Var;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Affine layer over the last axis: `y = x · W + b`.
pub struct Linear {
    w: msd_autograd::ParamId,
    b: Option<msd_autograd::ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a Xavier-initialised linear layer with bias.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self::with_bias(store, rng, name, in_dim, out_dim, true)
    }

    /// Creates a zero-initialised linear layer (with zero bias). Used for
    /// the output projections of residual decomposition stacks so each
    /// layer's initial contribution is exactly zero — a standard
    /// stabilisation for doubly-residual architectures that markedly speeds
    /// up MSD-Mixer convergence.
    pub fn zeroed(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = store.register(format!("{name}.w"), Tensor::zeros(&[in_dim, out_dim]));
        let b = Some(store.register(format!("{name}.b"), Tensor::zeros(&[out_dim])));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Creates a linear layer initialised to the averaging map `W = 1/in_dim`
    /// (zero bias), as in the reference LTSF-Linear implementation: the layer
    /// starts out predicting the input mean, a sane seq→seq forecast, instead
    /// of a random projection that gradient descent must first unlearn. This
    /// matters at small step budgets — the same warm-start rationale as
    /// [`Linear::zeroed`] for the decomposition stacks.
    pub fn averaging(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = store.register(
            format!("{name}.w"),
            Tensor::full(&[in_dim, out_dim], 1.0 / in_dim as f32),
        );
        let b = Some(store.register(format!("{name}.b"), Tensor::zeros(&[out_dim])));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Creates a Xavier-initialised linear layer, optionally without bias.
    pub fn with_bias(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.register(format!("{name}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = bias.then(|| store.register(format!("{name}.b"), Tensor::zeros(&[out_dim])));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to `x` of shape `[..., in_dim]`.
    pub fn forward(&self, ctx: &Ctx, x: Var) -> Var {
        let w = ctx.p(self.w);
        let b = self.b.map(|id| ctx.p(id));
        ctx.g.linear(x, w, b)
    }

    /// Applies the layer followed by GELU as one fused tape node
    /// (`Graph::linear_gelu`) — numerically identical to
    /// `gelu(forward(x))` but with one kernel pass per direction.
    pub fn forward_gelu(&self, ctx: &Ctx, x: Var) -> Var {
        let w = ctx.p(self.w);
        let b = self.b.map(|id| ctx.p(id));
        ctx.g.linear_gelu(x, w, b)
    }
}

/// The paper's MLP block (Fig. 3a): `x + DropPath(FC(GELU(FC(x))))`.
///
/// Both fully-connected layers map `dim → hidden → dim` over the *last* axis
/// of the input; mixing along a different axis is achieved by permuting that
/// axis into last position before calling this block (see `msd-mixer`).
pub struct MlpBlock {
    fc1: Linear,
    fc2: Linear,
    drop_path: f32,
}

impl MlpBlock {
    /// Creates an MLP block with the given mixing dimension, hidden width,
    /// and droppath rate.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        hidden: usize,
        drop_path: f32,
    ) -> Self {
        Self {
            fc1: Linear::new(store, rng, &format!("{name}.fc1"), dim, hidden),
            fc2: Linear::new(store, rng, &format!("{name}.fc2"), hidden, dim),
            drop_path,
        }
    }

    /// The mixing dimension (input and output extent of the last axis).
    pub fn dim(&self) -> usize {
        self.fc1.in_dim()
    }

    /// Applies the block to `x` of shape `[..., dim]`.
    pub fn forward(&self, ctx: &Ctx, x: Var) -> Var {
        let h = self.fc1.forward_gelu(ctx, x);
        let h = self.fc2.forward(ctx, h);
        let h = ctx.drop_path(h, self.drop_path);
        ctx.g.add(x, h)
    }
}

/// Layer normalisation over the last axis with learned gain and shift.
pub struct LayerNorm {
    gamma: msd_autograd::ParamId,
    beta: msd_autograd::ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over a trailing axis of extent `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Tensor::ones(&[dim]));
        let beta = store.register(format!("{name}.beta"), Tensor::zeros(&[dim]));
        Self {
            gamma,
            beta,
            dim,
            eps: 1e-5,
        }
    }

    /// Applies layer norm to `x` of shape `[..., dim]` as one fused tape
    /// node (`Graph::layer_norm`): the SIMD normalization kernel computes
    /// mean and rstd per row and the backward uses the stored statistics
    /// instead of rebuilding the nine-node primitive chain.
    pub fn forward(&self, ctx: &Ctx, x: Var) -> Var {
        let g = ctx.g;
        debug_assert_eq!(*g.shape_of(x).last().unwrap(), self.dim, "LayerNorm dim");
        g.layer_norm(x, ctx.p(self.gamma), ctx.p(self.beta), self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_autograd::Graph;

    fn ctx_fixture() -> (ParamStore, Rng) {
        (ParamStore::new(), Rng::seed_from(7))
    }

    #[test]
    fn linear_shapes_and_bias() {
        let (mut store, mut rng) = ctx_fixture();
        let layer = Linear::new(&mut store, &mut rng, "l", 4, 3);
        assert_eq!(store.len(), 2);
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(0);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let x = g.input(Tensor::ones(&[5, 4]));
        let y = layer.forward(&ctx, x);
        assert_eq!(g.shape_of(y), vec![5, 3]);
    }

    #[test]
    fn linear_trains_toward_target() {
        // One layer fits y = 2x under Adam-free plain gradient steps.
        let (mut store, mut rng) = ctx_fixture();
        let layer = Linear::new(&mut store, &mut rng, "l", 1, 1);
        let xs = Tensor::from_vec(&[8, 1], (0..8).map(|i| i as f32 / 8.0).collect());
        let ys = xs.scale(2.0);
        for _ in 0..300 {
            let g = Graph::new();
            let mut step_rng = Rng::seed_from(0);
            let ctx = Ctx::new(&g, &store, &mut step_rng);
            let x = g.input(xs.clone());
            let pred = layer.forward(&ctx, x);
            let loss = g.mse_loss(pred, &ys);
            let grads = g.backward(loss);
            for (id, grad) in grads.iter() {
                store.get_mut(id).axpy(-0.5, grad);
            }
        }
        let g = Graph::eval();
        let mut step_rng = Rng::seed_from(0);
        let ctx = Ctx::new(&g, &store, &mut step_rng);
        let x = g.input(xs.clone());
        let pred = g.value(layer.forward(&ctx, x));
        let err = pred.sub(&ys).abs().mean_all();
        assert!(err < 0.01, "mean abs error {err}");
    }

    #[test]
    fn mlp_block_preserves_shape_and_differs_from_input() {
        let (mut store, mut rng) = ctx_fixture();
        let block = MlpBlock::new(&mut store, &mut rng, "b", 6, 12, 0.0);
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(1);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let x0 = Tensor::randn(&[2, 3, 6], 1.0, &mut rng);
        let x = g.input(x0.clone());
        let y = block.forward(&ctx, x);
        assert_eq!(g.shape_of(y), vec![2, 3, 6]);
        assert!(!msd_tensor::allclose(&g.value(y), &x0, 1e-6));
    }

    #[test]
    fn mlp_block_gradients_reach_all_params() {
        let (mut store, mut rng) = ctx_fixture();
        let block = MlpBlock::new(&mut store, &mut rng, "b", 4, 8, 0.0);
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(2);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let x = g.input(Tensor::randn(&[2, 4], 1.0, &mut rng));
        let y = block.forward(&ctx, x);
        let loss = g.mean_all(g.square(y));
        let grads = g.backward(loss);
        assert_eq!(
            grads.len(),
            store.len(),
            "every parameter should get a gradient"
        );
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let (mut store, mut rng) = ctx_fixture();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(3);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let x = g.input(Tensor::randn(&[4, 8], 5.0, &mut rng).add_scalar(3.0));
        let y = g.value(ln.forward(&ctx, x));
        for row in y.data().chunks_exact(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row var {var}");
        }
    }

    #[test]
    fn layer_norm_grads_flow_to_gain_and_shift() {
        let (mut store, mut rng) = ctx_fixture();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let g = Graph::new();
        let mut rng2 = Rng::seed_from(4);
        let ctx = Ctx::new(&g, &store, &mut rng2);
        let x = g.input(Tensor::randn(&[3, 4], 1.0, &mut rng));
        let y = ln.forward(&ctx, x);
        let loss = g.mean_all(g.square(y));
        let grads = g.backward(loss);
        assert_eq!(grads.len(), 2);
    }
}

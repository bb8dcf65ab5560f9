//! Linear-algebra graph ops: fused linear and (batched) matmul.

use crate::graph::{Graph, Node, Op, Var};
use msd_tensor::Tensor;

impl Graph {
    /// Affine map over the last axis: `y = x · W (+ b)`.
    ///
    /// `x` is `[..., in]`, `weight` is `[in, out]`, `bias` (optional) is
    /// `[out]`. Gradients flow to all differentiable parents.
    pub fn linear(&self, x: Var, weight: Var, bias: Option<Var>) -> Var {
        let value = self.with_value(x, |tx| {
            self.with_value(weight, |tw| match bias {
                Some(b) => self.with_value(b, |tb| tx.linear(tw, Some(tb))),
                None => tx.linear(tw, None),
            })
        });
        let mut parents = vec![x, weight];
        if let Some(b) = bias {
            parents.push(b);
        }
        let needs_grad = {
            let nodes = self.nodes.borrow();
            parents.iter().any(|p| nodes[p.0 as usize].needs_grad)
        };
        self.push(Node {
            value,
            op: Op::Linear,
            parents,
            needs_grad,
            param: None,
        })
    }

    /// Fused `gelu(x · W (+ b))` — the hot composition of every MLP block.
    ///
    /// One node instead of two: the linear result (pre-activation) is kept
    /// for the backward pass instead of re-deriving it, and both the
    /// activation and its adjoint run through the SIMD GELU kernel.
    /// Numerically identical to `g.gelu(g.linear(x, w, b))`.
    pub fn linear_gelu(&self, x: Var, weight: Var, bias: Option<Var>) -> Var {
        let pre = self.with_value(x, |tx| {
            self.with_value(weight, |tw| match bias {
                Some(b) => self.with_value(b, |tb| tx.linear(tw, Some(tb))),
                None => tx.linear(tw, None),
            })
        });
        let mut out = vec![0.0f32; pre.len()];
        msd_tensor::ops::kernels::ew::gelu(pre.data(), &mut out);
        let value = Tensor::from_vec(pre.shape(), out);
        let mut parents = vec![x, weight];
        if let Some(b) = bias {
            parents.push(b);
        }
        let needs_grad = {
            let nodes = self.nodes.borrow();
            parents.iter().any(|p| nodes[p.0 as usize].needs_grad)
        };
        self.push(Node {
            value,
            op: Op::LinearGelu { pre },
            parents,
            needs_grad,
            param: None,
        })
    }

    /// Matrix product with the same shape rules as [`Tensor::matmul`]:
    /// either `[..., m, k] · [k, n]` (2-D right-hand side broadcast over
    /// batches) or equal-rank batched `[..., m, k] · [..., k, n]`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let rhs_is_2d =
            self.with_value(b, |tb| tb.ndim() == 2) && self.with_value(a, |ta| ta.ndim() > 2);
        let value = self.with_value(a, |ta| self.with_value(b, |tb| ta.matmul(tb)));
        self.push_binary(a, b, value, Op::Matmul { rhs_is_2d })
    }
}

/// Adjoint of [`Graph::linear`].
///
/// With `x: [R, in]` flattened over leading axes, `W: [in, out]`:
/// `dX = dY · Wᵀ`, `dW = Xᵀ · dY`, `db = Σ_rows dY`. The transposed
/// products go through [`Tensor::matmul_nt`] / [`Tensor::matmul_tn`], which
/// read the transposed operand through strides — no transposed copy of `W`
/// or `X` is ever materialised.
pub(crate) fn linear_backward(
    node: &Node,
    grad_out: &Tensor,
    nodes: &[Node],
) -> Vec<Option<Tensor>> {
    let x = &nodes[node.parents[0].0 as usize].value;
    let w = &nodes[node.parents[1].0 as usize].value;
    let in_dim = w.shape()[0];
    let out_dim = w.shape()[1];
    let rows = x.len() / in_dim;

    let x2 = x.reshape(&[rows, in_dim]);
    let g2 = grad_out.reshape(&[rows, out_dim]);

    let dx = g2.matmul_nt(w).reshape(x.shape());
    let dw = x2.matmul_tn(&g2);

    let mut out = vec![Some(dx), Some(dw)];
    if node.parents.len() == 3 {
        out.push(Some(g2.sum_axis(0)));
    }
    out
}

/// Adjoint of [`Graph::matmul`].
pub(crate) fn matmul_backward(
    node: &Node,
    grad_out: &Tensor,
    nodes: &[Node],
    rhs_is_2d: bool,
) -> Vec<Option<Tensor>> {
    let a = &nodes[node.parents[0].0 as usize].value;
    let b = &nodes[node.parents[1].0 as usize].value;
    if rhs_is_2d {
        // a: [..., m, k], b: [k, n]
        let k = b.shape()[0];
        let n = b.shape()[1];
        let m = a.shape()[a.ndim() - 2];
        let batch = a.len() / (m * k);
        // dA = G · Bᵀ, batched with 2-D rhs, read through strides.
        let da = grad_out.matmul_nt(b);
        // dB = Σ_batches Aᵀ · G: flatten batches into rows.
        let a2 = a.reshape(&[batch * m, k]);
        let g2 = grad_out.reshape(&[batch * m, n]);
        let db = a2.matmul_tn(&g2);
        vec![Some(da), Some(db)]
    } else {
        // Equal-rank batched: dA = G · Bᵀ, dB = Aᵀ · G, per batch.
        let da = grad_out.matmul_nt(b);
        let db = a.matmul_tn(grad_out);
        vec![Some(da), Some(db)]
    }
}

#[cfg(test)]
mod tests {
    use crate::Graph;
    use msd_tensor::Tensor;

    #[test]
    fn linear_forward_matches_tensor() {
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(
            &[2, 3],
            (0..6).map(|i| i as f32).collect(),
        ));
        let w = g.param(0, Tensor::from_vec(&[3, 2], vec![1.0; 6]));
        let b = g.param(1, Tensor::from_vec(&[2], vec![0.5, -0.5]));
        let y = g.linear(x, w, Some(b));
        let expect = g.value(x).linear(&g.value(w), Some(&g.value(b)));
        assert_eq!(g.value(y), expect);
    }

    #[test]
    fn linear_weight_grad_known_values() {
        // loss = sum(x·W), x = [[1, 2]], W: [2,1] => dW = [[1],[2]]
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(&[1, 2], vec![1.0, 2.0]));
        let w = g.param(0, Tensor::from_vec(&[2, 1], vec![0.0, 0.0]));
        let y = g.linear(x, w, None);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn linear_bias_grad_counts_rows() {
        let g = Graph::new();
        let x = g.input(Tensor::zeros(&[4, 3]));
        let w = g.param(0, Tensor::zeros(&[3, 2]));
        let b = g.param(1, Tensor::zeros(&[2]));
        let y = g.linear(x, w, Some(b));
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(1).unwrap().data(), &[4.0, 4.0]);
    }

    #[test]
    fn matmul_batched_grads_have_right_shapes() {
        let g = Graph::new();
        let mut rng = msd_tensor::rng::Rng::seed_from(0);
        let a = g.param(0, Tensor::randn(&[2, 3, 4], 1.0, &mut rng));
        let b = g.param(1, Tensor::randn(&[2, 4, 5], 1.0, &mut rng));
        let y = g.matmul(a, b);
        assert_eq!(g.shape_of(y), vec![2, 3, 5]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().shape(), &[2, 3, 4]);
        assert_eq!(grads.get(1).unwrap().shape(), &[2, 4, 5]);
    }

    #[test]
    fn matmul_2d_rhs_broadcast_grads() {
        let g = Graph::new();
        let mut rng = msd_tensor::rng::Rng::seed_from(1);
        let a = g.param(0, Tensor::randn(&[3, 2, 4], 1.0, &mut rng));
        let b = g.param(1, Tensor::randn(&[4, 2], 1.0, &mut rng));
        let y = g.matmul(a, b);
        assert_eq!(g.shape_of(y), vec![3, 2, 2]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().shape(), &[3, 2, 4]);
        assert_eq!(grads.get(1).unwrap().shape(), &[4, 2]);
    }
}

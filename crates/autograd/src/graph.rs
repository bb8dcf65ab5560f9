//! The tape: node storage, leaf creation, and the backward driver.

use msd_tensor::Tensor;
use std::cell::RefCell;

/// Handle to a node on a [`Graph`]'s tape. Cheap to copy; only valid for the
/// graph that produced it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) u32);

/// Opaque identity of a trainable parameter, assigned by the caller
/// (`msd-nn`'s parameter store). [`Gradients`] is indexed by it.
pub type ParamId = usize;

/// Declares the op registry: the `Op` enum, [`Op::name`], and the public
/// [`ALL_OPS`] name list, all generated from ONE variant list so they can
/// never drift apart. The gradcheck completeness test enumerates
/// [`ALL_OPS`] and fails if any op lacks a gradcheck entry, so adding a
/// variant here forces adding a gradient test.
macro_rules! define_ops {
    (
        $( $(#[$m:meta])* $name:ident
            $(( $($tty:ty),+ $(,)? ))?
            $({ $( $(#[$fm:meta])* $fname:ident : $ftype:ty ),+ $(,)? })?
        ),+ $(,)?
    ) => {
        /// Backward rule selector, with whatever forward context the
        /// adjoint needs.
        pub(crate) enum Op {
            $(
                $(#[$m])*
                $name
                    $(( $($tty),+ ))?
                    $({ $( $(#[$fm])* $fname: $ftype ),+ })?
            ),+
        }

        impl Op {
            /// The variant's registry name, as listed in [`ALL_OPS`].
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $( Op::$name { .. } => stringify!($name) ),+
                }
            }
        }

        impl std::fmt::Debug for Op {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }

        /// Name of every registered op, in declaration order. Enumerated by
        /// the gradcheck completeness test (`tests/op_coverage.rs`): every
        /// entry must have a matching `// gradcheck: <Name>` marker in
        /// `tests/gradcheck.rs`.
        pub const ALL_OPS: &[&str] = &[ $( stringify!($name) ),+ ];
    };
}

define_ops! {
    /// Input or parameter leaf; nothing to propagate further.
    Leaf,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Scale(f32),
    /// Multiplication by a constant (non-differentiable) tensor, e.g. a
    /// dropout or imputation mask.
    MulConst(Tensor),
    /// Addition of a scalar constant to every element.
    AddScalar(f32),
    /// Addition of a constant (non-differentiable) tensor; stores the
    /// constant so compiled plans can replay the op.
    AddConst(Tensor),
    Linear,
    /// Fused `gelu(x · W + b)`; stores the pre-activation for the backward
    /// pass. Parents are `(x, w[, b])`, exactly like [`Op::Linear`].
    LinearGelu {
        pre: Tensor,
    },
    /// `bias` is parent 2 when present.
    Matmul {
        rhs_is_2d: bool,
    },
    Permute(Vec<usize>),
    Reshape,
    PadAxis {
        axis: usize,
        before: usize,
        orig_len: usize,
    },
    Narrow {
        axis: usize,
        start: usize,
        orig_len: usize,
    },
    Concat {
        axis: usize,
        /// Extent of each parent along `axis`, in order.
        extents: Vec<usize>,
    },
    Gelu,
    Relu,
    Tanh,
    Square,
    Abs,
    Sqrt,
    Recip,
    SumAll,
    MeanAll,
    SumAxis(usize),
    MeanAxis(usize),
    /// Broadcast a reduced tensor back along a new trailing axis.
    BroadcastLast(usize),
    /// `y[..., j] = a[..., j] * b[j]` with `b` 1-D over the last axis.
    MulBcastLast,
    /// `y[..., j] = a[..., j] + b[j]` with `b` 1-D over the last axis.
    AddBcastLast,
    /// Fused LayerNorm over the last axis; stores the per-row statistics
    /// for the backward pass. Parents are `(x, gamma, beta)`.
    LayerNorm {
        mean: Tensor,
        rstd: Tensor,
        eps: f32,
    },
    /// Non-overlapping max pooling over the last axis; stores the winning
    /// flat indices for the backward scatter.
    MaxPoolLast {
        argmax: Vec<u32>,
    },
    SoftmaxLast,
    /// Fused log-softmax + NLL; stores softmax probabilities and the labels.
    SoftmaxCe {
        probs: Tensor,
        labels: Vec<usize>,
    },
    /// Fused ACF hinge loss; the input gradient is computed during forward.
    AcfHinge {
        input_grad: Tensor,
    },
    /// Fused Huber/MSE/MAE style losses store their input gradient directly.
    FusedLoss {
        input_grad: Tensor,
    },
}

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
    pub parents: Vec<Var>,
    /// Whether any ancestor is a parameter leaf (gradients needed).
    pub needs_grad: bool,
    /// Set on parameter leaves only.
    pub param: Option<ParamId>,
}

/// A single-use reverse-mode tape.
///
/// Interior mutability lets op methods take `&self`, which keeps model
/// forward passes free of `&mut` plumbing.
pub struct Graph {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// Whether stochastic regularisation (dropout / droppath) is active.
    train: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape in training mode.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::with_capacity(256)),
            train: true,
        }
    }

    /// Creates an empty tape in evaluation mode (dropout and droppath become
    /// identity ops).
    pub fn eval() -> Self {
        Self {
            nodes: RefCell::new(Vec::with_capacity(256)),
            train: false,
        }
    }

    /// Whether the graph applies stochastic regularisation.
    #[inline]
    pub fn is_train(&self) -> bool {
        self.train
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Adds a non-differentiable input leaf (data, targets, masks).
    pub fn input(&self, value: Tensor) -> Var {
        self.push(Node {
            value,
            op: Op::Leaf,
            parents: vec![],
            needs_grad: false,
            param: None,
        })
    }

    /// Adds a trainable parameter leaf tagged with `id`. Its gradient appears
    /// in the [`Gradients`] returned by [`Graph::backward`].
    pub fn param(&self, id: ParamId, value: Tensor) -> Var {
        self.push(Node {
            value,
            op: Op::Leaf,
            parents: vec![],
            needs_grad: true,
            param: Some(id),
        })
    }

    /// The forward value of `v` (cloned out of the tape).
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0 as usize].value.clone()
    }

    /// Shape of the forward value of `v`.
    pub fn shape_of(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.0 as usize].value.shape().to_vec()
    }

    /// Runs `f` with a borrow of the forward value, avoiding a clone.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[v.0 as usize].value)
    }

    pub(crate) fn push(&self, node: Node) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        assert!(id <= u32::MAX as usize, "tape overflow");
        nodes.push(node);
        Var(id as u32)
    }

    pub(crate) fn push_unary(&self, parent: Var, value: Tensor, op: Op) -> Var {
        let needs_grad = self.nodes.borrow()[parent.0 as usize].needs_grad;
        self.push(Node {
            value,
            op,
            parents: vec![parent],
            needs_grad,
            param: None,
        })
    }

    pub(crate) fn push_binary(&self, a: Var, b: Var, value: Tensor, op: Op) -> Var {
        let needs_grad = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].needs_grad || nodes[b.0 as usize].needs_grad
        };
        self.push(Node {
            value,
            op,
            parents: vec![a, b],
            needs_grad,
            param: None,
        })
    }

    /// Reverse pass from the scalar `loss`, returning parameter gradients.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        let nodes = self.nodes.borrow();
        let n = nodes.len();
        assert_eq!(
            nodes[loss.0 as usize].value.len(),
            1,
            "backward() requires a scalar loss, got shape {:?}",
            nodes[loss.0 as usize].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[loss.0 as usize] = Some(Tensor::full(
            nodes[loss.0 as usize].value.shape(),
            1.0,
        ));

        for idx in (0..n).rev() {
            if !nodes[idx].needs_grad {
                continue;
            }
            let Some(grad_out) = grads[idx].take() else {
                continue;
            };
            let node = &nodes[idx];
            if node.param.is_some() {
                // Parameter leaf: keep the gradient for collection below.
                grads[idx] = Some(grad_out);
                continue;
            }
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            let parent_grads = crate::graph::backward_op(node, &grad_out, &nodes);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            for (pv, pg) in node.parents.iter().zip(parent_grads) {
                let Some(pg) = pg else { continue };
                if !nodes[pv.0 as usize].needs_grad {
                    continue;
                }
                match &mut grads[pv.0 as usize] {
                    Some(acc) => acc.add_assign(&pg),
                    slot @ None => *slot = Some(pg),
                }
            }
        }

        // Collect per-parameter gradients, merging duplicate leaves (a
        // parameter registered twice on one tape, e.g. weight sharing).
        let mut by_param: Vec<(ParamId, Tensor)> = Vec::new();
        for (idx, node) in nodes.iter().enumerate() {
            if let Some(pid) = node.param {
                if let Some(g) = grads[idx].take() {
                    match by_param.iter_mut().find(|(p, _)| *p == pid) {
                        Some((_, acc)) => acc.add_assign(&g),
                        None => by_param.push((pid, g)),
                    }
                }
            }
        }
        Gradients { by_param }
    }
}

/// Parameter gradients produced by [`Graph::backward`], keyed by [`ParamId`].
pub struct Gradients {
    by_param: Vec<(ParamId, Tensor)>,
}

impl Gradients {
    /// Gradient for parameter `id`, if it participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.iter().find(|(p, _)| *p == id).map(|(_, g)| g)
    }

    /// Iterates `(ParamId, gradient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.by_param.iter().map(|(p, g)| (*p, g))
    }

    /// Number of parameters that received a gradient.
    pub fn len(&self) -> usize {
        self.by_param.len()
    }

    /// Whether no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.by_param.is_empty()
    }

    /// Global L2 norm across all parameter gradients.
    pub fn global_norm(&self) -> f32 {
        self.by_param
            .iter()
            .map(|(_, g)| g.sq_norm())
            .sum::<f32>()
            .sqrt()
    }

    /// Whether every gradient element is finite (no NaN/±inf anywhere).
    ///
    /// Cheaper than [`Gradients::global_norm`] as a poison check: it
    /// short-circuits on the first bad element and cannot be fooled by
    /// squared-sum overflow of large-but-finite gradients.
    pub fn all_finite(&self) -> bool {
        self.by_param
            .iter()
            .all(|(_, g)| g.data().iter().all(|v| v.is_finite()))
    }

    /// L2 norm of one parameter's gradient, if it received one.
    pub fn param_norm(&self, id: ParamId) -> Option<f32> {
        self.get(id).map(|g| g.sq_norm().sqrt())
    }
}

/// Dispatches the adjoint computation for one node. Returns one optional
/// gradient per parent (in parent order); `None` means "no gradient flows to
/// this parent" (e.g. constants).
pub(crate) fn backward_op(node: &Node, grad_out: &Tensor, nodes: &[Node]) -> Vec<Option<Tensor>> {
    let pv = |i: usize| -> &Tensor { &nodes[node.parents[i].0 as usize].value };
    match &node.op {
        Op::Leaf => vec![],
        Op::Add => vec![Some(grad_out.clone()), Some(grad_out.clone())],
        Op::Sub => vec![Some(grad_out.clone()), Some(grad_out.neg())],
        Op::Mul => vec![
            Some(grad_out.mul(pv(1))),
            Some(grad_out.mul(pv(0))),
        ],
        Op::Div => {
            // y = a / b: da = g / b; db = -g * a / b^2
            let b = pv(1);
            let da = grad_out.div(b);
            let db = grad_out.mul(pv(0)).div(&b.square()).neg();
            vec![Some(da), Some(db)]
        }
        Op::Neg => vec![Some(grad_out.neg())],
        Op::Scale(s) => vec![Some(grad_out.scale(*s))],
        Op::MulConst(c) => vec![Some(grad_out.mul(c))],
        Op::AddScalar(_) => vec![Some(grad_out.clone())],
        Op::AddConst(_) => vec![Some(grad_out.clone())],
        Op::Linear => crate::ops_linalg::linear_backward(node, grad_out, nodes),
        Op::Matmul { rhs_is_2d } => {
            crate::ops_linalg::matmul_backward(node, grad_out, nodes, *rhs_is_2d)
        }
        Op::Permute(perm) => {
            let mut inv = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            vec![Some(grad_out.permute(&inv))]
        }
        Op::Reshape => vec![Some(grad_out.reshape(pv(0).shape()))],
        Op::PadAxis { axis, before, orig_len } => {
            vec![Some(grad_out.narrow(*axis, *before, *orig_len))]
        }
        Op::Narrow { axis, start, orig_len } => {
            vec![Some(grad_out.widen(*axis, *start, *orig_len))]
        }
        Op::Concat { axis, extents } => {
            let mut out = Vec::with_capacity(extents.len());
            let mut offset = 0;
            for &ext in extents {
                out.push(Some(grad_out.narrow(*axis, offset, ext)));
                offset += ext;
            }
            out
        }
        Op::Gelu => {
            // Fused dy * gelu'(x) in one SIMD sweep.
            let x = pv(0);
            let mut dx = vec![0.0f32; x.len()];
            msd_tensor::ops::kernels::ew::gelu_bwd(x.data(), grad_out.data(), &mut dx);
            vec![Some(Tensor::from_vec(x.shape(), dx))]
        }
        Op::LinearGelu { pre } => {
            // Chain rule through the activation first, then reuse the
            // shared linear adjoint with dpre in place of grad_out.
            let mut dpre = vec![0.0f32; pre.len()];
            msd_tensor::ops::kernels::ew::gelu_bwd(pre.data(), grad_out.data(), &mut dpre);
            let dpre = Tensor::from_vec(pre.shape(), dpre);
            crate::ops_linalg::linear_backward(node, &dpre, nodes)
        }
        Op::LayerNorm { mean, rstd, eps: _ } => {
            let x = pv(0);
            let gamma = pv(1);
            let d = gamma.len();
            let mut dx = vec![0.0f32; x.len()];
            let mut dgamma = vec![0.0f32; d];
            let mut dbeta = vec![0.0f32; d];
            msd_tensor::ops::kernels::norm::layernorm_bwd(
                x.data(),
                d,
                gamma.data(),
                mean.data(),
                rstd.data(),
                grad_out.data(),
                &mut dx,
                &mut dgamma,
                &mut dbeta,
            );
            vec![
                Some(Tensor::from_vec(x.shape(), dx)),
                Some(Tensor::from_vec(&[d], dgamma)),
                Some(Tensor::from_vec(&[d], dbeta)),
            ]
        }
        Op::Relu => {
            let mask = pv(0).map(|x| if x > 0.0 { 1.0 } else { 0.0 });
            vec![Some(grad_out.mul(&mask))]
        }
        Op::Tanh => {
            // d tanh = 1 - tanh^2; node.value holds tanh(x).
            let d = node.value.map(|t| 1.0 - t * t);
            vec![Some(grad_out.mul(&d))]
        }
        Op::Square => vec![Some(grad_out.mul(&pv(0).scale(2.0)))],
        Op::Abs => {
            let sign = pv(0).map(|x| {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            });
            vec![Some(grad_out.mul(&sign))]
        }
        Op::Sqrt => {
            // d sqrt(x) = 1/(2 sqrt(x)); node.value holds sqrt(x).
            let d = node.value.map(|s| 0.5 / s.max(1e-12));
            vec![Some(grad_out.mul(&d))]
        }
        Op::Recip => {
            // d (1/x) = -1/x^2 = -value^2
            let d = node.value.map(|v| -v * v);
            vec![Some(grad_out.mul(&d))]
        }
        Op::SumAll => {
            let g = grad_out.item();
            vec![Some(Tensor::full(pv(0).shape(), g))]
        }
        Op::MeanAll => {
            let n = pv(0).len() as f32;
            let g = grad_out.item() / n;
            vec![Some(Tensor::full(pv(0).shape(), g))]
        }
        Op::SumAxis(axis) => {
            vec![Some(crate::ops_reduce::broadcast_along_axis(
                grad_out,
                pv(0).shape(),
                *axis,
                1.0,
            ))]
        }
        Op::MeanAxis(axis) => {
            let ext = pv(0).shape()[*axis] as f32;
            vec![Some(crate::ops_reduce::broadcast_along_axis(
                grad_out,
                pv(0).shape(),
                *axis,
                1.0 / ext,
            ))]
        }
        Op::BroadcastLast(ext) => {
            // y[..., j] = x[...]: adjoint sums over the trailing axis.
            let nd = grad_out.ndim();
            debug_assert_eq!(grad_out.shape()[nd - 1], *ext);
            vec![Some(grad_out.sum_axis(nd - 1))]
        }
        Op::MulBcastLast => {
            // a: [..., d], b: [d].
            let a = pv(0);
            let b = pv(1);
            let d = b.shape()[0];
            let mut da = grad_out.clone();
            {
                let bd = b.data();
                for chunk in da.data_mut().chunks_exact_mut(d) {
                    for (x, &bv) in chunk.iter_mut().zip(bd) {
                        *x *= bv;
                    }
                }
            }
            let mut db = vec![0.0f32; d];
            for (gchunk, achunk) in grad_out
                .data()
                .chunks_exact(d)
                .zip(a.data().chunks_exact(d))
            {
                for ((acc, &g), &av) in db.iter_mut().zip(gchunk).zip(achunk) {
                    *acc += g * av;
                }
            }
            vec![Some(da), Some(Tensor::from_vec(&[d], db))]
        }
        Op::AddBcastLast => {
            let b = pv(1);
            let d = b.shape()[0];
            let mut db = vec![0.0f32; d];
            for gchunk in grad_out.data().chunks_exact(d) {
                for (acc, &g) in db.iter_mut().zip(gchunk) {
                    *acc += g;
                }
            }
            vec![Some(grad_out.clone()), Some(Tensor::from_vec(&[d], db))]
        }
        Op::MaxPoolLast { argmax } => {
            let mut dx = Tensor::zeros(pv(0).shape());
            for (&idx, &g) in argmax.iter().zip(grad_out.data()) {
                dx.data_mut()[idx as usize] += g;
            }
            vec![Some(dx)]
        }
        Op::SoftmaxLast => {
            // s = softmax(x): dx = s * (g - sum(g * s, last))
            let s = &node.value;
            let gs = grad_out.mul(s);
            let last = s.shape().len() - 1;
            let dot = gs.sum_axis(last);
            let dot_b = crate::ops_reduce::broadcast_along_axis(
                &dot,
                s.shape(),
                last,
                1.0,
            );
            vec![Some(s.mul(&grad_out.sub(&dot_b)))]
        }
        Op::SoftmaxCe { probs, labels } => {
            // dL/dlogits = (softmax - onehot) / batch
            let batch = labels.len();
            let classes = probs.shape()[1];
            let mut dx = probs.clone();
            for (i, &lbl) in labels.iter().enumerate() {
                dx.data_mut()[i * classes + lbl] -= 1.0;
            }
            let g = grad_out.item() / batch as f32;
            vec![Some(dx.scale(g))]
        }
        Op::AcfHinge { input_grad } | Op::FusedLoss { input_grad } => {
            vec![Some(input_grad.scale(grad_out.item()))]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_registry_names_are_unique_and_consistent() {
        assert_eq!(Op::Add.name(), "Add");
        assert_eq!(Op::Scale(2.0).name(), "Scale");
        assert_eq!(
            Op::FusedLoss { input_grad: Tensor::zeros(&[1]) }.name(),
            "FusedLoss"
        );
        let mut names: Vec<&str> = ALL_OPS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_OPS.len(), "duplicate op names in registry");
        assert!(ALL_OPS.contains(&"Leaf"));
        assert!(ALL_OPS.contains(&"LinearGelu"));
        assert!(ALL_OPS.contains(&"LayerNorm"));
    }

    #[test]
    fn leaf_values_round_trip() {
        let g = Graph::new();
        let t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let v = g.input(t.clone());
        assert_eq!(g.value(v), t);
        assert_eq!(g.shape_of(v), vec![2]);
    }

    #[test]
    fn backward_through_simple_chain() {
        // loss = mean((2x)^2); dloss/dx = 8x/n
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![1.0, 3.0]));
        let y = g.scale(x, 2.0);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        let gx = grads.get(0).unwrap();
        assert!((gx.data()[0] - 4.0).abs() < 1e-5);
        assert!((gx.data()[1] - 12.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_accumulate_over_shared_use() {
        // loss = sum(x * x) — x used as both parents of Mul.
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]));
        let prod = g.mul(x, x);
        let loss = g.sum_all(prod);
        let grads = g.backward(loss);
        let gx = grads.get(0).unwrap();
        assert_eq!(gx.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn no_gradient_for_inputs() {
        let g = Graph::new();
        let x = g.input(Tensor::ones(&[2]));
        let w = g.param(7, Tensor::ones(&[2]));
        let y = g.mul(x, w);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.len(), 1);
        assert!(grads.get(7).is_some());
        assert!(grads.get(0).is_none());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let g = Graph::new();
        let x = g.param(0, Tensor::ones(&[3]));
        let y = g.scale(x, 2.0);
        let _ = g.backward(y);
    }

    #[test]
    fn global_norm_is_l2() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![3.0, 4.0]));
        let loss = g.sum_all(x);
        let grads = g.backward(loss);
        // grad = [1, 1]; norm = sqrt(2)
        assert!((grads.global_norm() - 2f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn all_finite_detects_nan_gradient() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![3.0, 4.0]));
        let loss = g.sum_all(g.scale(x, f32::NAN));
        let grads = g.backward(loss);
        assert!(!grads.all_finite());
        assert!(grads.global_norm().is_nan());

        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![3.0, 4.0]));
        let loss = g.sum_all(x);
        assert!(g.backward(loss).all_finite());
    }

    #[test]
    fn param_norm_is_per_parameter() {
        let g = Graph::new();
        let a = g.param(0, Tensor::from_vec(&[2], vec![1.0, 1.0]));
        let b = g.param(1, Tensor::from_vec(&[1], vec![1.0]));
        let loss = g.add(g.sum_all(g.scale(a, 3.0)), g.sum_all(b));
        let grads = g.backward(loss);
        // grad_a = [3, 3] → norm 3√2; grad_b = [1] → norm 1; param 2 absent.
        assert!((grads.param_norm(0).unwrap() - 3.0 * 2f32.sqrt()).abs() < 1e-6);
        assert!((grads.param_norm(1).unwrap() - 1.0).abs() < 1e-6);
        assert!(grads.param_norm(2).is_none());
    }
}

//! Reduction graph ops and their broadcast adjoint helper.

use crate::graph::{Graph, Op, Var};
use msd_tensor::Tensor;

impl Graph {
    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&self, a: Var) -> Var {
        let value = self.with_value(a, |t| Tensor::scalar(t.sum_all()));
        self.push_unary(a, value, Op::SumAll)
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&self, a: Var) -> Var {
        let value = self.with_value(a, |t| Tensor::scalar(t.mean_all()));
        self.push_unary(a, value, Op::MeanAll)
    }

    /// Sum along `axis`, removing it.
    pub fn sum_axis(&self, a: Var, axis: usize) -> Var {
        let value = self.with_value(a, |t| t.sum_axis(axis));
        self.push_unary(a, value, Op::SumAxis(axis))
    }

    /// Mean along `axis`, removing it.
    pub fn mean_axis(&self, a: Var, axis: usize) -> Var {
        let value = self.with_value(a, |t| t.mean_axis(axis));
        self.push_unary(a, value, Op::MeanAxis(axis))
    }

    /// Broadcasts `a` (shape `[...]`) along a new trailing axis of extent
    /// `ext`, producing `[..., ext]`. Adjoint of a trailing-axis reduction;
    /// used for per-instance normalisation and attention score scaling.
    pub fn broadcast_last(&self, a: Var, ext: usize) -> Var {
        let value = self.with_value(a, |t| {
            let mut shape = t.shape().to_vec();
            shape.push(ext);
            let mut out = Vec::with_capacity(t.len() * ext);
            for &x in t.data() {
                out.extend(std::iter::repeat_n(x, ext));
            }
            Tensor::from_vec(&shape, out)
        });
        self.push_unary(a, value, Op::BroadcastLast(ext))
    }
}

/// Expands `reduced` back to `full_shape` along `axis`, scaling each copy by
/// `scale`. Shared by the SumAxis/MeanAxis adjoints.
pub(crate) fn broadcast_along_axis(
    reduced: &Tensor,
    full_shape: &[usize],
    axis: usize,
    scale: f32,
) -> Tensor {
    let ext = full_shape[axis];
    let inner: usize = full_shape[axis + 1..].iter().product();
    let outer: usize = full_shape[..axis].iter().product();
    debug_assert_eq!(reduced.len(), outer * inner);
    let mut out = Vec::with_capacity(outer * ext * inner);
    for o in 0..outer {
        let row = &reduced.data()[o * inner..(o + 1) * inner];
        for _ in 0..ext {
            out.extend(row.iter().map(|&x| x * scale));
        }
    }
    Tensor::from_vec(full_shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn sum_all_grad_is_ones() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]));
        let loss = g.sum_all(x);
        assert_eq!(g.value(loss).item(), 26.0);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[1.0; 4]);
    }

    #[test]
    fn mean_all_grad_divides() {
        let g = Graph::new();
        let x = g.param(0, Tensor::ones(&[4]));
        let loss = g.mean_all(x);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn sum_axis_grad_broadcasts() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2, 3], vec![1.0; 6]));
        let s = g.sum_axis(x, 1);
        // Weight so each output position has a distinct gradient.
        let w = Tensor::from_vec(&[2], vec![2.0, 5.0]);
        let sw = g.mul_const(s, &w);
        let loss = g.sum_all(sw);
        let grads = g.backward(loss);
        assert_eq!(
            grads.get(0).unwrap().data(),
            &[2.0, 2.0, 2.0, 5.0, 5.0, 5.0]
        );
    }

    #[test]
    fn mean_axis_middle_grad() {
        let g = Graph::new();
        let x = g.param(0, Tensor::ones(&[2, 4, 3]));
        let m = g.mean_axis(x, 1);
        assert_eq!(g.shape_of(m), vec![2, 3]);
        let loss = g.sum_all(m);
        let grads = g.backward(loss);
        assert!(grads
            .get(0)
            .unwrap()
            .data()
            .iter()
            .all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn broadcast_last_repeats_and_sums_back() {
        let g = Graph::new();
        let x = g.param(0, Tensor::from_vec(&[2], vec![1.0, 2.0]));
        let b = g.broadcast_last(x, 3);
        assert_eq!(g.value(b).data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let loss = g.sum_all(b);
        let grads = g.backward(loss);
        assert_eq!(grads.get(0).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn broadcast_along_axis_helper() {
        let r = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = broadcast_along_axis(&r, &[2, 3], 1, 0.5);
        assert_eq!(b.data(), &[0.5, 0.5, 0.5, 1.0, 1.0, 1.0]);
    }
}

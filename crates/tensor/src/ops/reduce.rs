//! Reductions: sums, means, extrema, and statistics along axes.
//!
//! Whole-tensor reductions route through [`crate::ops::kernels::reduce`],
//! which fixes a single blocked accumulation order so results are
//! bit-identical for every SIMD tier.

use crate::ops::kernels::{self, reduce as kred};
use crate::Tensor;

/// Sums `src` (shape `shape`) along `axis` into `out`, which must be sized
/// for the reduced shape. `out` is fully overwritten (zeroed first).
///
/// This is the single implementation behind [`Tensor::sum_axis`] and the
/// compiled-plan executor; the last-axis path uses the spec'd per-row
/// reduction so results are bit-identical for every SIMD tier.
pub fn sum_axis_into(shape: &[usize], src: &[f32], axis: usize, out: &mut [f32]) {
    assert!(axis < shape.len(), "sum axis out of range");
    let inner: usize = shape[axis + 1..].iter().product();
    let outer: usize = shape[..axis].iter().product();
    let ext = shape[axis];
    assert_eq!(out.len(), outer * inner, "sum_axis_into output length");
    out.fill(0.0);
    if inner == 1 {
        // Last-axis reduction: one spec'd sum per row.
        let t = kernels::tier();
        for (r, o) in out.iter_mut().enumerate() {
            *o = kred::sum_seq(t, &src[r * ext..(r + 1) * ext]);
        }
    } else {
        for o in 0..outer {
            for a in 0..ext {
                let base = (o * ext + a) * inner;
                let dst = &mut out[o * inner..(o + 1) * inner];
                for (d, &s) in dst.iter_mut().zip(&src[base..base + inner]) {
                    *d += s;
                }
            }
        }
    }
}

impl Tensor {
    /// Sum of all elements (spec'd blocked reduction; see the kernel docs).
    pub fn sum_all(&self) -> f32 {
        kred::sum(self.data())
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Maximum element, ignoring NaN. `-inf` for an empty tensor.
    pub fn max_all(&self) -> f32 {
        kred::maxv(self.data())
    }

    /// Minimum element, ignoring NaN. `+inf` for an empty tensor.
    pub fn min_all(&self) -> f32 {
        kred::minv(self.data())
    }

    /// Sums along `axis`, removing it from the shape.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert!(axis < self.ndim(), "sum axis out of range");
        let shape = self.shape();
        let inner: usize = shape[axis + 1..].iter().product();
        let outer: usize = shape[..axis].iter().product();
        let mut out_shape = shape.to_vec();
        out_shape.remove(axis);
        let mut out = vec![0.0f32; outer * inner];
        sum_axis_into(shape, self.data(), axis, &mut out);
        Tensor::from_vec(&out_shape, out)
    }

    /// Means along `axis`, removing it from the shape.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let ext = self.shape()[axis] as f32;
        self.sum_axis(axis).scale(1.0 / ext)
    }

    /// Index of the maximum along the last axis, removing it from the shape.
    /// Ties resolve to the first maximum. Used for classification argmax.
    pub fn argmax_last(&self) -> Vec<usize> {
        let last = *self.shape().last().expect("argmax on scalar");
        self.data()
            .chunks_exact(last)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Population variance of all elements.
    pub fn var_all(&self) -> f32 {
        let mean = self.mean_all();
        kred::centered_sumsq(self.data(), mean) / self.len().max(1) as f32
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        kred::sumsq(self.data())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean_all() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum_all(), 10.0);
        assert_eq!(t.mean_all(), 2.5);
        assert_eq!(t.max_all(), 4.0);
        assert_eq!(t.min_all(), 1.0);
    }

    #[test]
    fn sum_axis_inner_and_outer() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s0 = t.sum_axis(0);
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
        let s1 = t.sum_axis(1);
        assert_eq!(s1.shape(), &[2]);
        assert_eq!(s1.data(), &[6.0, 15.0]);
    }

    #[test]
    fn sum_axis_middle() {
        let t = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f32).collect());
        let s = t.sum_axis(1);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[2.0, 4.0, 10.0, 12.0]);
    }

    #[test]
    fn mean_axis_divides_by_extent() {
        let t = Tensor::from_vec(&[2, 4], vec![1.0; 8]);
        let m = t.mean_axis(1);
        assert_eq!(m.data(), &[1.0, 1.0]);
    }

    #[test]
    fn argmax_last_finds_first_max() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.9, 5.0, 1.0, 2.0]);
        assert_eq!(t.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn var_of_constant_is_zero() {
        let t = Tensor::full(&[10], 3.0);
        assert_eq!(t.var_all(), 0.0);
    }

    #[test]
    fn sq_norm() {
        let t = Tensor::from_vec(&[2], vec![3.0, 4.0]);
        assert_eq!(t.sq_norm(), 25.0);
    }
}

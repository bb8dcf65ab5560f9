//! Matrix multiplication and the fused linear kernel.
//!
//! These are the hot loops of the whole reproduction: every MLP block in
//! MSD-Mixer and every baseline reduces to `linear` over the last axis. All
//! products route through the blocked, packed SGEMM in [`crate::ops::gemm`],
//! which returns bit-identical results on every kernel tier. The
//! transpose-aware variants [`Tensor::matmul_nt`] / [`Tensor::matmul_tn`]
//! read the transposed operand through strides during packing, so backward
//! passes never materialise a transposed copy.

use crate::ops::gemm::sgemm_batched_strided;
use crate::shape::numel;
use crate::Tensor;

/// Which operand of a product is stored transposed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `A[m,k] · B[k,n]`
    Nn,
    /// `A[m,k] · B[n,k]ᵀ`
    Nt,
    /// `A[k,m]ᵀ · B[k,n]`
    Tn,
}

/// Shared driver for the three product layouts; handles 2-D, the
/// `[..., m, k] · 2-D` broadcast, and equal-rank batched inputs.
fn product(a: &Tensor, b: &Tensor, layout: Layout, name: &str) -> Tensor {
    let (a_shape, b_shape) = (a.shape(), b.shape());
    let out_shape = product_out_shape(a_shape, b_shape, layout, name);
    let mut out = vec![0.0f32; numel(&out_shape)];
    product_into(a_shape, a.data(), b_shape, b.data(), layout, name, &mut out);
    Tensor::from_vec(&out_shape, out)
}

/// The output shape `product_into` will produce, after validating operand
/// shapes for `layout`.
fn product_out_shape(a_shape: &[usize], b_shape: &[usize], layout: Layout, name: &str) -> Vec<usize> {
    assert!(a_shape.len() >= 2, "{name} lhs must have rank >= 2, got {a_shape:?}");
    let (al2, al1) = (a_shape[a_shape.len() - 2], a_shape[a_shape.len() - 1]);
    let (m, _k) = match layout {
        Layout::Tn => (al1, al2),
        _ => (al2, al1),
    };
    let (bl2, bl1) = (b_shape[b_shape.len() - 2], b_shape[b_shape.len() - 1]);
    let (_k2, n) = match layout {
        Layout::Nt => (bl1, bl2),
        _ => (bl2, bl1),
    };
    let mut out_shape = a_shape[..a_shape.len() - 2].to_vec();
    out_shape.extend_from_slice(&[m, n]);
    out_shape
}

/// Slice-level product driver shared by the `Tensor` methods and the
/// compiled-plan executor; writes the product into `out` (fully overwritten).
fn product_into(
    a_shape: &[usize],
    a_data: &[f32],
    b_shape: &[usize],
    b_data: &[f32],
    layout: Layout,
    name: &str,
    out: &mut [f32],
) {
    assert!(a_shape.len() >= 2, "{name} lhs must have rank >= 2, got {a_shape:?}");
    let (al2, al1) = (a_shape[a_shape.len() - 2], a_shape[a_shape.len() - 1]);
    // Logical (m, k) of the left operand.
    let (m, k) = match layout {
        Layout::Tn => (al1, al2),
        _ => (al2, al1),
    };

    let rhs_2d = b_shape.len() == 2;
    if !rhs_2d {
        assert_eq!(
            a_shape.len(),
            b_shape.len(),
            "batched {name} needs equal rank: {a_shape:?} vs {b_shape:?}"
        );
        assert_eq!(
            &a_shape[..a_shape.len() - 2],
            &b_shape[..b_shape.len() - 2],
            "batched {name} batch dims: {a_shape:?} vs {b_shape:?}"
        );
    }
    let (bl2, bl1) = (b_shape[b_shape.len() - 2], b_shape[b_shape.len() - 1]);
    // Logical (k, n) of the right operand.
    let (k2, n) = match layout {
        Layout::Nt => (bl1, bl2),
        _ => (bl2, bl1),
    };
    assert_eq!(k, k2, "{name} inner dim: {a_shape:?} vs {b_shape:?}");

    let batches = numel(&a_shape[..a_shape.len() - 2]);
    assert_eq!(out.len(), batches * m * n, "{name} output length");

    let (a_rs, a_cs) = match layout {
        Layout::Tn => (1, m),
        _ => (k, 1),
    };
    let (b_rs, b_cs) = match layout {
        Layout::Nt => (1, k),
        _ => (n, 1),
    };
    sgemm_batched_strided(
        batches,
        m,
        k,
        n,
        a_data,
        m * k,
        a_rs,
        a_cs,
        b_data,
        if rhs_2d { 0 } else { k * n },
        b_rs,
        b_cs,
        out,
    );
}

/// Writes `A · B` (the [`Tensor::matmul`] layout: 2-D, broadcast-2-D rhs, or
/// equal-rank batched) into `out`, fully overwriting it. Shared by the
/// `Tensor` method and the compiled-plan executor so both produce identical
/// bytes.
pub fn matmul_nn_into(
    a_shape: &[usize],
    a_data: &[f32],
    b_shape: &[usize],
    b_data: &[f32],
    out: &mut [f32],
) {
    product_into(a_shape, a_data, b_shape, b_data, Layout::Nn, "matmul", out);
}

/// Writes the fused affine map `x · W (+ b)` over the last axis into `out`
/// (fully overwritten). `x` is `rows` rows of `in_dim`; `weight` is
/// `[in_dim, out_dim]` row-major; `bias`, if present, is `[out_dim]`. Shared
/// by [`Tensor::linear`] and the compiled-plan executor.
pub fn linear_into(
    x: &[f32],
    rows: usize,
    in_dim: usize,
    weight: &[f32],
    out_dim: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(out.len(), rows * out_dim, "linear output length");
    crate::ops::gemm::sgemm_strided(rows, in_dim, out_dim, x, in_dim, 1, weight, out_dim, 1, out);
    if let Some(b) = bias {
        assert_eq!(b.len(), out_dim, "linear bias shape");
        crate::ops::kernels::ew::add_bias(out, b);
    }
}

impl Tensor {
    /// Matrix product.
    ///
    /// * `[m, k] · [k, n] -> [m, n]` for 2-D inputs;
    /// * for higher-rank `self` of shape `[..., m, k]` against a 2-D `[k, n]`
    ///   right-hand side, the product is applied to each leading batch,
    ///   producing `[..., m, n]`;
    /// * for equal-rank batched inputs `[..., m, k] · [..., k, n]` the leading
    ///   axes must match elementwise and the product is applied per batch.
    ///
    /// # Panics
    /// Panics on inner-dimension or batch-shape mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        product(self, other, Layout::Nn, "matmul")
    }

    /// Matrix product with a transposed right-hand side: `A · Bᵀ`.
    ///
    /// `self` is `[..., m, k]`; `other` is `[n, k]` (broadcast over leading
    /// batches) or `[..., n, k]` (equal-rank batched); the result is
    /// `[..., m, n]`. Equivalent to `self.matmul(&other.transpose_last2())`
    /// but reads `other` through strides instead of materialising the
    /// transpose — the fast path for `dX = dY · Wᵀ` in backward passes.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        product(self, other, Layout::Nt, "matmul_nt")
    }

    /// Matrix product with a transposed left-hand side: `Aᵀ · B`.
    ///
    /// `self` is `[..., k, m]`; `other` is `[k, n]` (broadcast) or
    /// `[..., k, n]` (equal-rank batched); the result is `[..., m, n]`.
    /// Equivalent to `self.transpose_last2().matmul(other)` without the
    /// materialised transpose — the fast path for `dW = Xᵀ · dY`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        product(self, other, Layout::Tn, "matmul_tn")
    }

    /// Fused affine map over the last axis:
    /// `y[..., j] = sum_i x[..., i] * w[i][j] + b[j]`.
    ///
    /// `weight` is `[in, out]`; `bias`, if present, is `[out]`. This is the
    /// workhorse of every MLP in the workspace.
    pub fn linear(&self, weight: &Tensor, bias: Option<&Tensor>) -> Tensor {
        assert_eq!(weight.ndim(), 2, "linear weight must be 2-D");
        let in_dim = *self.shape().last().expect("linear on scalar");
        assert_eq!(
            weight.shape()[0],
            in_dim,
            "linear: input last dim {} vs weight in dim {}",
            in_dim,
            weight.shape()[0]
        );
        let out_dim = weight.shape()[1];
        let rows = self.len() / in_dim;
        let mut out = vec![0.0f32; rows * out_dim];
        linear_into(
            self.data(),
            rows,
            in_dim,
            weight.data(),
            out_dim,
            bias.map(Tensor::data),
            &mut out,
        );
        let mut shape = self.shape().to_vec();
        *shape.last_mut().unwrap() = out_dim;
        Tensor::from_vec(&shape, out)
    }

    /// Swaps the last two axes (materialising the result). A common companion
    /// to [`Tensor::matmul`] in layout code; backward passes use
    /// [`Tensor::matmul_nt`] / [`Tensor::matmul_tn`] instead.
    pub fn transpose_last2(&self) -> Tensor {
        let nd = self.ndim();
        assert!(nd >= 2, "transpose_last2 needs rank >= 2");
        let mut perm: Vec<usize> = (0..nd).collect();
        perm.swap(nd - 2, nd - 1);
        self.permute(&perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2d_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_broadcast_rhs_over_batches() {
        let a = Tensor::from_vec(&[2, 1, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 1, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_batched_equal_rank() {
        let a = Tensor::from_vec(&[2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2, 1], vec![1.0, 1.0, 2.0, 2.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 1, 1]);
        assert_eq!(c.data(), &[3.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "inner dim")]
    fn matmul_rejects_mismatched_inner() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_nt_matches_materialised_transpose() {
        let mut rng = crate::rng::Rng::seed_from(11);
        let a = Tensor::randn(&[3, 5, 7], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 7], 1.0, &mut rng);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose_last2()));
        let bb = Tensor::randn(&[3, 4, 7], 1.0, &mut rng);
        assert_eq!(a.matmul_nt(&bb), a.matmul(&bb.transpose_last2()));
    }

    #[test]
    fn matmul_tn_matches_materialised_transpose() {
        let mut rng = crate::rng::Rng::seed_from(12);
        let a = Tensor::randn(&[3, 7, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 7, 4], 1.0, &mut rng);
        assert_eq!(a.matmul_tn(&b), a.transpose_last2().matmul(&b));
        let a2 = Tensor::randn(&[7, 5], 1.0, &mut rng);
        let b2 = Tensor::randn(&[7, 4], 1.0, &mut rng);
        assert_eq!(a2.matmul_tn(&b2), a2.transpose_last2().matmul(&b2));
    }

    #[test]
    #[should_panic(expected = "inner dim")]
    fn matmul_nt_rejects_mismatched_inner() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    fn linear_matches_matmul_plus_bias() {
        let x = Tensor::from_vec(&[2, 2, 3], (0..12).map(|i| i as f32).collect());
        let w = Tensor::from_vec(&[3, 2], vec![1.0, -1.0, 0.5, 0.5, 2.0, 0.0]);
        let b = Tensor::from_vec(&[2], vec![0.1, -0.1]);
        let y = x.linear(&w, Some(&b));
        assert_eq!(y.shape(), &[2, 2, 2]);
        // Hand-check the first row: [0,1,2]·W = [0*1+1*0.5+2*2, 0*-1+1*0.5] = [4.5, 0.5]
        assert!((y.data()[0] - 4.6).abs() < 1e-6);
        assert!((y.data()[1] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn linear_without_bias() {
        let x = Tensor::ones(&[1, 2]);
        let w = Tensor::from_vec(&[2, 1], vec![3.0, 4.0]);
        assert_eq!(x.linear(&w, None).data(), &[7.0]);
    }

    #[test]
    fn transpose_last2_swaps() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }
}

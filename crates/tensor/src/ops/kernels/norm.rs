//! Normalisation kernels: fused LayerNorm forward/backward and row
//! softmax, built on the spec'd reductions of [`super::reduce`], so
//! results are bit-identical across tiers.

use super::reduce::{centered_sumsq_seq, dot_seq, maxv_seq, sum_seq};
use super::row_blocks;

/// Fused LayerNorm forward over contiguous rows of length `d`:
///
/// ```text
/// mean_r = Σ x_r / d                    (spec'd 16-lane sum)
/// var_r  = Σ (x_r - mean_r)² / d        (spec'd centered sum of squares)
/// rstd_r = 1 / sqrt(var_r + eps)
/// out[j] = ((x[j] - mean_r) * rstd_r) * gamma[j] + beta[j]
/// ```
///
/// `mean`/`rstd` receive one value per row (saved for the backward pass).
///
/// # Panics
/// Panics on any length mismatch.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_fwd(
    x: &[f32],
    d: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    assert!(d > 0, "layernorm on empty rows");
    assert_eq!(x.len() % d, 0, "layernorm length not a multiple of d");
    let rows = x.len() / d;
    assert_eq!(gamma.len(), d, "layernorm gamma length mismatch");
    assert_eq!(beta.len(), d, "layernorm beta length mismatch");
    assert_eq!(out.len(), x.len(), "layernorm output length mismatch");
    assert_eq!(mean.len(), rows, "layernorm mean length mismatch");
    assert_eq!(rstd.len(), rows, "layernorm rstd length mismatch");
    let t = super::tier();
    for (r, (o, row)) in out.chunks_exact_mut(d).zip(x.chunks_exact(d)).enumerate() {
        let m = sum_seq(t, row) / d as f32;
        let var = centered_sumsq_seq(t, row, m) / d as f32;
        let rs = 1.0 / (var + eps).sqrt();
        mean[r] = m;
        rstd[r] = rs;
        for ((ov, &xv), (&gv, &bv)) in o.iter_mut().zip(row).zip(gamma.iter().zip(beta)) {
            *ov = ((xv - m) * rs) * gv + bv;
        }
    }
}

/// Fused LayerNorm backward. Given the saved per-row `mean`/`rstd`:
///
/// ```text
/// x̂[j]  = (x[j] - mean_r) * rstd_r
/// g[j]  = dy[j] * gamma[j]
/// s1    = Σ g          s2 = Σ g·x̂          (spec'd reductions)
/// dx[j] = ((g[j] - s1/d) - x̂[j] * (s2/d)) * rstd_r
/// dγ[j] = Σ_rows dy[j]·x̂[j]     dβ[j] = Σ_rows dy[j]
/// ```
///
/// The `dγ`/`dβ` sums accumulate per [`row_blocks`] block, and the block
/// partials fold in block order. `dgamma`/`dbeta` are overwritten.
///
/// # Panics
/// Panics on any length mismatch.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_bwd(
    x: &[f32],
    d: usize,
    gamma: &[f32],
    mean: &[f32],
    rstd: &[f32],
    dy: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    assert!(d > 0, "layernorm on empty rows");
    assert_eq!(x.len() % d, 0, "layernorm length not a multiple of d");
    let rows = x.len() / d;
    assert_eq!(gamma.len(), d, "layernorm gamma length mismatch");
    assert_eq!(mean.len(), rows, "layernorm mean length mismatch");
    assert_eq!(rstd.len(), rows, "layernorm rstd length mismatch");
    assert_eq!(dy.len(), x.len(), "layernorm dy length mismatch");
    assert_eq!(dx.len(), x.len(), "layernorm dx length mismatch");
    assert_eq!(dgamma.len(), d, "layernorm dgamma length mismatch");
    assert_eq!(dbeta.len(), d, "layernorm dbeta length mismatch");
    let t = super::tier();
    let (rows_per_block, _) = row_blocks(rows, d);
    dgamma.fill(0.0);
    dbeta.fill(0.0);
    let mut gsum = vec![0.0f32; d];
    let mut bsum = vec![0.0f32; d];
    let mut xh = vec![0.0f32; d];
    let mut g = vec![0.0f32; d];
    for (b, block) in dx.chunks_mut(rows_per_block * d).enumerate() {
        gsum.fill(0.0);
        bsum.fill(0.0);
        for (i, dxr) in block.chunks_exact_mut(d).enumerate() {
            let r = b * rows_per_block + i;
            let row = &x[r * d..(r + 1) * d];
            let dyr = &dy[r * d..(r + 1) * d];
            let (m, rs) = (mean[r], rstd[r]);
            for (h, &xv) in xh.iter_mut().zip(row) {
                *h = (xv - m) * rs;
            }
            for ((gv, &dv), &gam) in g.iter_mut().zip(dyr).zip(gamma) {
                *gv = dv * gam;
            }
            let s1 = sum_seq(t, &g) / d as f32;
            let s2 = dot_seq(t, &g, &xh) / d as f32;
            for ((o, &gv), &h) in dxr.iter_mut().zip(&g).zip(&xh) {
                *o = ((gv - s1) - h * s2) * rs;
            }
            for ((gs, &dv), &h) in gsum.iter_mut().zip(dyr).zip(&xh) {
                *gs += dv * h;
            }
            for (bs, &dv) in bsum.iter_mut().zip(dyr) {
                *bs += dv;
            }
        }
        for (o, &p) in dgamma.iter_mut().zip(&gsum) {
            *o += p;
        }
        for (o, &p) in dbeta.iter_mut().zip(&bsum) {
            *o += p;
        }
    }
}

/// Numerically-stable softmax over contiguous rows of length `d`:
/// row max and row sum use the spec'd reductions, `exp` is the shared
/// libm call on every tier, and the final scale is one reciprocal
/// multiply — identical bits for every tier.
///
/// # Panics
/// Panics on any length mismatch.
pub fn softmax_rows(x: &[f32], d: usize, out: &mut [f32]) {
    assert!(d > 0, "softmax on empty rows");
    assert_eq!(x.len() % d, 0, "softmax length not a multiple of d");
    assert_eq!(out.len(), x.len(), "softmax output length mismatch");
    let t = super::tier();
    for (orow, row) in out.chunks_exact_mut(d).zip(x.chunks_exact(d)) {
        let m = maxv_seq(t, row);
        for (o, &xv) in orow.iter_mut().zip(row) {
            *o = (xv - m).exp();
        }
        let inv = 1.0 / sum_seq(t, orow);
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn layernorm_normalises_rows() {
        let mut rng = Rng::seed_from(3);
        let (rows, d) = (5usize, 32usize);
        let x: Vec<f32> = (0..rows * d).map(|_| 2.0 + rng.normal()).collect();
        let gamma = vec![1.0f32; d];
        let beta = vec![0.0f32; d];
        let mut out = vec![0.0f32; rows * d];
        let mut mean = vec![0.0f32; rows];
        let mut rstd = vec![0.0f32; rows];
        layernorm_fwd(&x, d, &gamma, &beta, 1e-5, &mut out, &mut mean, &mut rstd);
        for row in out.chunks_exact(d) {
            let m: f32 = row.iter().sum::<f32>() / d as f32;
            let v: f32 = row.iter().map(|&y| (y - m) * (y - m)).sum::<f32>() / d as f32;
            assert!(m.abs() < 1e-4, "row mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "row var {v}");
        }
    }

    #[test]
    fn layernorm_affine_applies_gamma_beta() {
        let x = vec![1.0f32, 2.0, 3.0, 4.0];
        let gamma = vec![2.0f32, 2.0, 2.0, 2.0];
        let beta = vec![10.0f32, 10.0, 10.0, 10.0];
        let mut out = vec![0.0f32; 4];
        let (mut mean, mut rstd) = (vec![0.0f32; 1], vec![0.0f32; 1]);
        layernorm_fwd(&x, 4, &gamma, &beta, 1e-5, &mut out, &mut mean, &mut rstd);
        let m: f32 = out.iter().sum::<f32>() / 4.0;
        assert!((m - 10.0).abs() < 1e-4, "mean {m}");
        assert_eq!(mean[0], 2.5);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = vec![1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut out = vec![0.0f32; 6];
        softmax_rows(&x, 3, &mut out);
        for row in out.chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row sum {s}");
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }
}

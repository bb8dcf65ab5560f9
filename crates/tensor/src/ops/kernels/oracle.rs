//! Naive reference oracles for every dispatched kernel.
//!
//! These are deliberately plain, readable scalar loops that transcribe the
//! kernel layer's accumulation specification directly (fixed blocks,
//! 16 interleaved lanes, fixed pairwise lane fold, in-order block fold).
//! **The oracle defines the semantics**: the dispatched kernels, on every
//! SIMD tier, must match these functions bit for bit, and
//! `tests/kernels_differential.rs` enforces exactly that over random
//! shapes and NaN/±inf inputs. The oracles share no SIMD
//! machinery, no generics, and no dispatch with the production kernels,
//! so a bug in that machinery cannot hide.

use super::{LANES, RED_BLOCK};
use crate::ops::{gelu_grad_scalar, gelu_scalar};

/// The spec's additive reduction: per-block 16-lane interleaved
/// accumulation of `term(i)`, pairwise lane fold, blocks folded in order.
fn additive_spec(n: usize, term: impl Fn(usize) -> f32) -> f32 {
    let mut acc = 0.0f32;
    let mut start = 0;
    while start < n {
        let end = (start + RED_BLOCK).min(n);
        let mut lanes = [0.0f32; LANES];
        for i in start..end {
            lanes[(i - start) % LANES] += term(i);
        }
        for j in 0..8 {
            lanes[j] += lanes[j + 8];
        }
        for j in 0..4 {
            lanes[j] += lanes[j + 4];
        }
        for j in 0..2 {
            lanes[j] += lanes[j + 2];
        }
        acc += lanes[0] + lanes[1];
        start = end;
    }
    acc
}

/// The spec's extremum reduction. `pick(acc, v)` keeps `acc` unless `v` is
/// strictly better; NaN `v` never wins, and ties (including ±0.0) keep the
/// earlier value.
fn extremum_spec(
    n: usize,
    init: f32,
    pick: impl Fn(f32, f32) -> f32,
    x: impl Fn(usize) -> f32,
) -> f32 {
    let mut acc = init;
    let mut start = 0;
    while start < n {
        let end = (start + RED_BLOCK).min(n);
        let mut lanes = [init; LANES];
        for i in start..end {
            let l = (i - start) % LANES;
            lanes[l] = pick(lanes[l], x(i));
        }
        for j in 0..8 {
            lanes[j] = pick(lanes[j], lanes[j + 8]);
        }
        for j in 0..4 {
            lanes[j] = pick(lanes[j], lanes[j + 4]);
        }
        for j in 0..2 {
            lanes[j] = pick(lanes[j], lanes[j + 2]);
        }
        acc = pick(acc, pick(lanes[0], lanes[1]));
        start = end;
    }
    acc
}

/// Reference for [`super::reduce::sum`].
pub fn sum(x: &[f32]) -> f32 {
    additive_spec(x.len(), |i| x[i])
}

/// Reference for [`super::reduce::sumsq`].
pub fn sumsq(x: &[f32]) -> f32 {
    additive_spec(x.len(), |i| x[i] * x[i])
}

/// Reference for [`super::reduce::dot`].
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    additive_spec(a.len(), |i| a[i] * b[i])
}

/// Reference for [`super::reduce::sse`].
pub fn sse(a: &[f32], b: &[f32]) -> f32 {
    additive_spec(a.len(), |i| {
        let d = a[i] - b[i];
        d * d
    })
}

/// Reference for [`super::reduce::sad`].
pub fn sad(a: &[f32], b: &[f32]) -> f32 {
    additive_spec(a.len(), |i| {
        f32::from_bits((a[i] - b[i]).to_bits() & 0x7fff_ffff)
    })
}

/// Reference for [`super::reduce::centered_sumsq`].
pub fn centered_sumsq(x: &[f32], c: f32) -> f32 {
    additive_spec(x.len(), |i| {
        let d = x[i] - c;
        d * d
    })
}

/// Reference for [`super::reduce::masked_sse`]. The fused kernel's two
/// accumulator sets are independent, so the reference is simply the two
/// additive reductions run separately.
pub fn masked_sse(a: &[f32], b: &[f32], m: &[f32]) -> (f32, f32) {
    let loss = additive_spec(a.len(), |i| {
        let d = a[i] - b[i];
        (m[i] * d) * d
    });
    let count = additive_spec(m.len(), |i| m[i]);
    (loss, count)
}

/// Reference for [`super::reduce::maxv`].
pub fn maxv(x: &[f32]) -> f32 {
    extremum_spec(
        x.len(),
        f32::NEG_INFINITY,
        |acc, v| if v > acc { v } else { acc },
        |i| x[i],
    )
}

/// Reference for [`super::reduce::minv`].
pub fn minv(x: &[f32]) -> f32 {
    extremum_spec(
        x.len(),
        f32::INFINITY,
        |acc, v| if v < acc { v } else { acc },
        |i| x[i],
    )
}

/// Reference for [`super::ew::gelu`]: the scalar form per element.
pub fn gelu(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu_scalar(v);
    }
}

/// Reference for [`super::ew::gelu_bwd`].
pub fn gelu_bwd(x: &[f32], dy: &[f32], out: &mut [f32]) {
    for ((o, &v), &d) in out.iter_mut().zip(x).zip(dy) {
        *o = d * gelu_grad_scalar(v);
    }
}

/// Reference for [`super::ew::binary`].
pub fn binary(op: super::ew::Bin, a: &[f32], b: &[f32], out: &mut [f32]) {
    use super::ew::Bin;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = match op {
            Bin::Add => x + y,
            Bin::Sub => x - y,
            Bin::Mul => x * y,
            Bin::Div => x / y,
        };
    }
}

/// Reference for [`super::ew::axpy`].
pub fn axpy(s: f32, b: &[f32], out: &mut [f32]) {
    for (o, &y) in out.iter_mut().zip(b) {
        *o += s * y;
    }
}

/// Reference for [`super::ew::scaled_diff`].
pub fn scaled_diff(a: &[f32], b: &[f32], s: f32, out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (x - y) * s;
    }
}

/// Reference for [`super::ew::masked_scaled_diff`].
pub fn masked_scaled_diff(a: &[f32], b: &[f32], m: &[f32], s: f32, out: &mut [f32]) {
    for (((o, &x), &y), &w) in out.iter_mut().zip(a).zip(b).zip(m) {
        *o = ((x - y) * w) * s;
    }
}

/// Reference for [`super::ew::sign_scaled`].
pub fn sign_scaled(a: &[f32], b: &[f32], s: f32, out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let d = x - y;
        *o = if d > 0.0 {
            s
        } else if d < 0.0 {
            -s
        } else {
            0.0
        };
    }
}

/// Reference for [`super::ew::add_bias`].
pub fn add_bias(out: &mut [f32], bias: &[f32]) {
    for row in out.chunks_exact_mut(bias.len()) {
        for (o, &bv) in row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// Reference for [`super::norm::layernorm_fwd`]: row-sequential, built on
/// the oracle reductions.
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
    for (r, (orow, row)) in out.chunks_exact_mut(d).zip(x.chunks_exact(d)).enumerate() {
        let m = sum(row) / d as f32;
        let var = centered_sumsq(row, m) / d as f32;
        let rs = 1.0 / (var + eps).sqrt();
        mean[r] = m;
        rstd[r] = rs;
        for ((o, &xv), (&gv, &bv)) in orow.iter_mut().zip(row).zip(gamma.iter().zip(beta)) {
            *o = ((xv - m) * rs) * gv + bv;
        }
    }
}

/// Reference for [`super::norm::layernorm_bwd`]. The `dγ`/`dβ` sums
/// replicate the spec's fixed row-block decomposition ([`super::row_blocks`])
/// so they match the kernel bit for bit: per-block partial sums,
/// folded in block order.
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
    let rows = x.len() / d;
    let (rows_per_block, n_blocks) = super::row_blocks(rows, d);
    dgamma.fill(0.0);
    dbeta.fill(0.0);
    let mut xh = vec![0.0f32; d];
    let mut g = vec![0.0f32; d];
    for b in 0..n_blocks {
        let r0 = b * rows_per_block;
        let r1 = (r0 + rows_per_block).min(rows);
        let mut gsum = vec![0.0f32; d];
        let mut bsum = vec![0.0f32; d];
        for r in r0..r1 {
            let row = &x[r * d..(r + 1) * d];
            let dyr = &dy[r * d..(r + 1) * d];
            let dxr = &mut dx[r * d..(r + 1) * d];
            let (m, rs) = (mean[r], rstd[r]);
            for (h, &xv) in xh.iter_mut().zip(row) {
                *h = (xv - m) * rs;
            }
            for ((gv, &dv), &gam) in g.iter_mut().zip(dyr).zip(gamma) {
                *gv = dv * gam;
            }
            let s1 = sum(&g) / d as f32;
            let s2 = dot(&g, &xh) / d as f32;
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

/// Reference for [`super::norm::softmax_rows`].
pub fn softmax_rows(x: &[f32], d: usize, out: &mut [f32]) {
    for (orow, row) in out.chunks_exact_mut(d).zip(x.chunks_exact(d)) {
        let m = maxv(row);
        for (o, &xv) in orow.iter_mut().zip(row) {
            *o = (xv - m).exp();
        }
        let inv = 1.0 / sum(orow);
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
}

/// Reference for [`crate::ops::gemm::sgemm_strided`] (same strided views):
/// each output element starts at 0.0 and adds its k terms in ascending
/// order, one correctly rounded fused multiply-add per term. That is the
/// whole GEMM contract; the packed, small-n and pack-free paths must all
/// match it bit for bit on every tier.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
) {
    assert_eq!(c.len(), m * n, "gemm output size");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a[i * a_rs + p * a_cs].mul_add(b[p * b_rs + j * b_cs], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

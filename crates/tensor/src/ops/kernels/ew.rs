//! Elementwise kernels: exact per-element arithmetic (trivially
//! bit-identical) and tier-dispatched SIMD for the transcendental-heavy
//! GELU forward/backward.
//!
//! The arithmetic kernels (`binary`, `axpy`, `scale`, …) are pure
//! per-element IEEE-754 single operations: any vectorisation — including
//! the compiler's — produces the same bits lane-for-lane, so they carry no
//! tier dispatch, only one loop over the slice. GELU is different:
//! its scalar form branches (the `fast_tanh` clamp), which blocks
//! autovectorisation, so the SIMD tiers re-express the *identical*
//! operation sequence branch-free (compare + blend, plain mul/add, no FMA
//! contraction) and are verified bit-for-bit against the scalar form by
//! the differential suite.

use super::simd::SimdVec;
#[cfg(target_arch = "x86_64")]
use super::simd::{V16, V8};
use super::Tier;
use crate::ops::{gelu_grad_scalar, gelu_scalar};

/// Binary elementwise operation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bin {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

/// `out[i] = a[i] ⊕ b[i]` (exact per element).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn binary(op: Bin, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "binary length mismatch");
    assert_eq!(a.len(), out.len(), "binary output length mismatch");
    match op {
        Bin::Add => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x + y;
            }
        }
        Bin::Sub => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x - y;
            }
        }
        Bin::Mul => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x * y;
            }
        }
        Bin::Div => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x / y;
            }
        }
    }
}

/// `out[i] += b[i]` (exact per element).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn add_assign(out: &mut [f32], b: &[f32]) {
    assert_eq!(out.len(), b.len(), "add_assign length mismatch");
    for (o, &y) in out.iter_mut().zip(b) {
        *o += y;
    }
}

/// `out[i] -= b[i]` (exact per element).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn sub_assign(out: &mut [f32], b: &[f32]) {
    assert_eq!(out.len(), b.len(), "sub_assign length mismatch");
    for (o, &y) in out.iter_mut().zip(b) {
        *o -= y;
    }
}

/// `out[i] += s * b[i]` — the axpy of gradient accumulation and optimiser
/// updates (exact per element: plain mul then add, no FMA).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn axpy(s: f32, b: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), b.len(), "axpy length mismatch");
    for (o, &y) in out.iter_mut().zip(b) {
        *o += s * y;
    }
}

/// `out[i] = x[i] * s` (exact per element).
pub fn scale(x: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "scale length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v * s;
    }
}

/// `out[i] = x[i] + s` (exact per element).
pub fn add_scalar(x: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "add_scalar length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v + s;
    }
}

/// `out[i] = x[i] * x[i]` (exact per element).
pub fn square(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "square length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v * v;
    }
}

/// `out[i] = max(x[i], 0)` (exact per element; NaN maps to 0
/// like `f32::max`).
pub fn relu(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "relu length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v.max(0.0);
    }
}

/// `out[i] = (a[i] - b[i]) * s` — the fused MSE input-gradient pass
/// (exact per element).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn scaled_diff(a: &[f32], b: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "scaled_diff length mismatch");
    assert_eq!(a.len(), out.len(), "scaled_diff output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (x - y) * s;
    }
}

/// `out[i] = ((a[i] - b[i]) * m[i]) * s` — the fused masked-MSE
/// input-gradient pass (exact per element).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn masked_scaled_diff(a: &[f32], b: &[f32], m: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "masked_scaled_diff length mismatch");
    assert_eq!(a.len(), m.len(), "masked_scaled_diff mask length mismatch");
    assert_eq!(
        a.len(),
        out.len(),
        "masked_scaled_diff output length mismatch"
    );
    for (((o, &x), &y), &w) in out.iter_mut().zip(a).zip(b).zip(m) {
        *o = ((x - y) * w) * s;
    }
}

/// Sign subgradient of `|a - b|` scaled by `s`: `s` where `a > b`, `-s`
/// where `a < b`, `0` elsewhere (including NaN). The fused MAE
/// input-gradient pass (exact per element).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn sign_scaled(a: &[f32], b: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "sign_scaled length mismatch");
    assert_eq!(a.len(), out.len(), "sign_scaled output length mismatch");
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

/// Rows of a short bias repeated into [`add_bias`]'s stack pattern.
const BIAS_PATTERN_ROWS: usize = 16;

/// Broadcast-add of a bias over contiguous rows: `out[r*d + j] += bias[j]`
/// (exact per element).
///
/// A row loop shorter than a vector does not vectorise, so a bias of
/// `d < 16` is first repeated into a 16-row pattern on the stack and added
/// a whole pattern at a time, which does; each element still gets exactly
/// one add of its own bias entry, so the bits are the plain loop's.
///
/// # Panics
/// Panics if `out.len()` is not a multiple of `bias.len()`.
pub fn add_bias(out: &mut [f32], bias: &[f32]) {
    let d = bias.len();
    assert!(d > 0, "add_bias with empty bias");
    assert_eq!(out.len() % d, 0, "add_bias length not a multiple of bias");
    if d >= BIAS_PATTERN_ROWS {
        for row in out.chunks_exact_mut(d) {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
        return;
    }
    let mut buf = [0.0f32; BIAS_PATTERN_ROWS * BIAS_PATTERN_ROWS];
    let pattern = &mut buf[..BIAS_PATTERN_ROWS * d];
    for row in pattern.chunks_exact_mut(d) {
        row.copy_from_slice(bias);
    }
    let pattern = &*pattern;
    let mut chunks = out.chunks_exact_mut(pattern.len());
    for chunk in &mut chunks {
        for (o, &p) in chunk.iter_mut().zip(pattern) {
            *o += p;
        }
    }
    // The tail is whole rows, so the pattern's prefix lines up with it.
    for (o, &p) in chunks.into_remainder().iter_mut().zip(pattern) {
        *o += p;
    }
}

// ---------------------------------------------------------------------------
// GELU forward/backward: tier-dispatched SIMD.
// ---------------------------------------------------------------------------

/// Vector transcription of [`crate::ops::fast_tanh`]: identical constants
/// and operation order, with the ±4.97 clamps expressed as ordered-quiet
/// compare + blend (NaN lanes fall through to the rational form, exactly
/// like the scalar branches).
#[inline(always)]
unsafe fn fast_tanh_v<V: SimdVec>(x: V) -> V {
    let x2 = V::mul(x, x);
    let p = V::mul(
        x,
        V::add(
            V::splat(135_135.0),
            V::mul(
                x2,
                V::add(V::splat(17_325.0), V::mul(x2, V::add(V::splat(378.0), x2))),
            ),
        ),
    );
    let q = V::add(
        V::splat(135_135.0),
        V::mul(
            x2,
            V::add(
                V::splat(62_370.0),
                V::mul(x2, V::add(V::splat(3_150.0), V::mul(x2, V::splat(28.0)))),
            ),
        ),
    );
    let r = V::div(p, q);
    let r = V::select_ge(r, x, V::splat(4.97), V::splat(1.0));
    V::select_le(r, x, V::splat(-4.97), V::splat(-1.0))
}

/// Vector transcription of [`gelu_scalar`] — same constants, same
/// left-associated operation order, no FMA.
#[inline(always)]
unsafe fn gelu_v<V: SimdVec>(x: V) -> V {
    const C: f32 = 0.797_884_6; // sqrt(2/pi), as in gelu_scalar
    let x3 = V::mul(V::mul(V::mul(V::splat(0.044715), x), x), x);
    let inner = V::mul(V::splat(C), V::add(x, x3));
    let t = fast_tanh_v(inner);
    V::mul(V::mul(V::splat(0.5), x), V::add(V::splat(1.0), t))
}

/// Vector transcription of [`gelu_grad_scalar`].
#[inline(always)]
unsafe fn gelu_grad_v<V: SimdVec>(x: V) -> V {
    const C: f32 = 0.797_884_6;
    let x3 = V::mul(V::mul(x, x), x);
    let inner = V::mul(V::splat(C), V::add(x, V::mul(V::splat(0.044715), x3)));
    let t = fast_tanh_v(inner);
    let sech2 = V::sub(V::splat(1.0), V::mul(t, t));
    let term1 = V::mul(V::splat(0.5), V::add(V::splat(1.0), t));
    let poly = V::add(
        V::splat(1.0),
        V::mul(V::mul(V::splat(3.0 * 0.044715), x), x),
    );
    let term2 = V::mul(
        V::mul(V::mul(V::mul(V::splat(0.5), x), sech2), V::splat(C)),
        poly,
    );
    V::add(term1, term2)
}

#[inline(always)]
unsafe fn gelu_body<V: SimdVec>(x: &[f32], out: &mut [f32]) {
    let n = x.len();
    let mut i = 0;
    while i + V::W <= n {
        gelu_v(V::load(x.as_ptr().add(i))).store(out.as_mut_ptr().add(i));
        i += V::W;
    }
    for j in i..n {
        out[j] = gelu_scalar(x[j]);
    }
}

#[inline(always)]
unsafe fn gelu_bwd_body<V: SimdVec>(x: &[f32], dy: &[f32], out: &mut [f32]) {
    let n = x.len();
    let mut i = 0;
    while i + V::W <= n {
        let g = gelu_grad_v(V::load(x.as_ptr().add(i)));
        let d = V::load(dy.as_ptr().add(i));
        V::mul(d, g).store(out.as_mut_ptr().add(i));
        i += V::W;
    }
    for j in i..n {
        out[j] = dy[j] * gelu_grad_scalar(x[j]);
    }
}

/// GELU (tanh approximation), tier-dispatched; bit-identical
/// to `gelu_scalar` applied per element on every tier.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn gelu(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "gelu length mismatch");
    let t = super::tier();
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx")]
        unsafe fn avx2(x: &[f32], out: &mut [f32]) {
            gelu_body::<V8>(x, out)
        }
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512(x: &[f32], out: &mut [f32]) {
            gelu_body::<V16>(x, out)
        }
        match t {
            // SAFETY: dispatch only selects a tier the CPU supports.
            Tier::Avx512 => return unsafe { avx512(x, out) },
            Tier::Fma => return unsafe { avx2(x, out) },
            Tier::Scalar => {}
        }
    }
    let _ = t;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu_scalar(v);
    }
}

/// Fused GELU backward: `out[i] = dy[i] * gelu'(x[i])`, tier-dispatched;
/// bit-identical to the scalar composition on every tier.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn gelu_bwd(x: &[f32], dy: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), dy.len(), "gelu_bwd length mismatch");
    assert_eq!(x.len(), out.len(), "gelu_bwd output length mismatch");
    let t = super::tier();
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx")]
        unsafe fn avx2(x: &[f32], dy: &[f32], out: &mut [f32]) {
            gelu_bwd_body::<V8>(x, dy, out)
        }
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512(x: &[f32], dy: &[f32], out: &mut [f32]) {
            gelu_bwd_body::<V16>(x, dy, out)
        }
        match t {
            // SAFETY: dispatch only selects a tier the CPU supports.
            Tier::Avx512 => return unsafe { avx512(x, dy, out) },
            Tier::Fma => return unsafe { avx2(x, dy, out) },
            Tier::Scalar => {}
        }
    }
    let _ = t;
    for ((o, &v), &d) in out.iter_mut().zip(x).zip(dy) {
        *o = d * gelu_grad_scalar(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn binary_ops_small() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        let mut out = [0.0f32; 3];
        binary(Bin::Add, &a, &b, &mut out);
        assert_eq!(out, [5.0, 7.0, 9.0]);
        binary(Bin::Mul, &a, &b, &mut out);
        assert_eq!(out, [4.0, 10.0, 18.0]);
    }

    #[test]
    fn simd_gelu_matches_scalar_bitwise() {
        // The in-module sanity check; the cross-tier sweep lives in the
        // differential suite.
        let mut rng = Rng::seed_from(11);
        let mut x: Vec<f32> = (0..1000).map(|_| 4.0 * rng.normal()).collect();
        x.extend_from_slice(&[
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            4.97,
            -4.97,
        ]);
        let mut out = vec![0.0f32; x.len()];
        gelu(&x, &mut out);
        for (i, (&xi, &oi)) in x.iter().zip(&out).enumerate() {
            let want = gelu_scalar(xi);
            assert_eq!(
                oi.to_bits(),
                want.to_bits(),
                "i={i} x={xi} got {oi} want {want}"
            );
        }
        let dy: Vec<f32> = (0..x.len()).map(|_| rng.normal()).collect();
        let mut dx = vec![0.0f32; x.len()];
        gelu_bwd(&x, &dy, &mut dx);
        for (i, ((&xi, &di), &gi)) in x.iter().zip(&dy).zip(&dx).enumerate() {
            let want = di * gelu_grad_scalar(xi);
            assert_eq!(gi.to_bits(), want.to_bits(), "i={i} x={xi}");
        }
    }

    #[test]
    fn add_bias_rows() {
        let mut out = vec![0.0f32, 0.0, 0.0, 1.0, 1.0, 1.0];
        add_bias(&mut out, &[1.0, 2.0, 3.0]);
        assert_eq!(out, [1.0, 2.0, 3.0, 2.0, 3.0, 4.0]);
    }
}

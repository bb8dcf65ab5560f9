//! Reduction kernels implementing the fixed 16-lane / fixed-block-order
//! accumulation specification (see the module docs of
//! [`crate::ops::kernels`]).
//!
//! Every reduction is defined by three nested, fully deterministic folds:
//!
//! 1. **Lane accumulation** — within one block, element `i` updates
//!    virtual lane `i % LANES`.
//! 2. **Lane fold** — the 16 lanes combine in a fixed pairwise tree
//!    (`l[j] ⊕= l[j+8]`, then `+4`, `+2`, finally `l[0] ⊕ l[1]`).
//! 3. **Block fold** — block partials combine sequentially in block
//!    order, starting from the reduction's identity.
//!
//! The SIMD tiers implement step 1 with registers (AVX-512: one 16-lane
//! register; AVX2: two 8-lane registers covering lanes 0–7 and 8–15) and
//! steps 2–3 in scalar code shared with the portable tier, so all tiers
//! produce identical bits.

use super::simd::{SimdVec, F1};
#[cfg(target_arch = "x86_64")]
use super::simd::{V16, V8};
use super::{Tier, LANES, RED_BLOCK};

/// An additive reduction's per-element term. `a`/`b` are the two input
/// streams (single-input reductions are called with `b = a` and ignore
/// it); `c` is a broadcast constant (e.g. the mean for centered sums).
trait RedOp {
    fn scalar(a: f32, b: f32, c: f32) -> f32;
    /// Vector form of [`RedOp::scalar`] — must use the same operations in
    /// the same order (exact per-element ops only).
    unsafe fn vec<V: SimdVec>(a: V, b: V, c: V) -> V;
}

/// `Σ a`
struct SumOp;
impl RedOp for SumOp {
    #[inline(always)]
    fn scalar(a: f32, _b: f32, _c: f32) -> f32 {
        a
    }
    #[inline(always)]
    unsafe fn vec<V: SimdVec>(a: V, _b: V, _c: V) -> V {
        a
    }
}

/// `Σ a·a`
struct SumSqOp;
impl RedOp for SumSqOp {
    #[inline(always)]
    fn scalar(a: f32, _b: f32, _c: f32) -> f32 {
        a * a
    }
    #[inline(always)]
    unsafe fn vec<V: SimdVec>(a: V, _b: V, _c: V) -> V {
        V::mul(a, a)
    }
}

/// `Σ a·b`
struct DotOp;
impl RedOp for DotOp {
    #[inline(always)]
    fn scalar(a: f32, b: f32, _c: f32) -> f32 {
        a * b
    }
    #[inline(always)]
    unsafe fn vec<V: SimdVec>(a: V, b: V, _c: V) -> V {
        V::mul(a, b)
    }
}

/// `Σ (a-b)²`
struct SseOp;
impl RedOp for SseOp {
    #[inline(always)]
    fn scalar(a: f32, b: f32, _c: f32) -> f32 {
        let d = a - b;
        d * d
    }
    #[inline(always)]
    unsafe fn vec<V: SimdVec>(a: V, b: V, _c: V) -> V {
        let d = V::sub(a, b);
        V::mul(d, d)
    }
}

/// `Σ |a-b|`
struct SadOp;
impl RedOp for SadOp {
    #[inline(always)]
    fn scalar(a: f32, b: f32, _c: f32) -> f32 {
        f32::from_bits((a - b).to_bits() & 0x7fff_ffff)
    }
    #[inline(always)]
    unsafe fn vec<V: SimdVec>(a: V, b: V, _c: V) -> V {
        V::abs(V::sub(a, b))
    }
}

/// `Σ (a-c)²` — centered sum of squares against a broadcast constant.
struct CenteredSqOp;
impl RedOp for CenteredSqOp {
    #[inline(always)]
    fn scalar(a: f32, _b: f32, c: f32) -> f32 {
        let d = a - c;
        d * d
    }
    #[inline(always)]
    unsafe fn vec<V: SimdVec>(a: V, _b: V, c: V) -> V {
        let d = V::sub(a, c);
        V::mul(d, d)
    }
}

/// Fixed pairwise lane-fold tree: 16 → 8 → 4 → 2 → 1.
#[inline(always)]
fn fold_lanes(mut l: [f32; LANES], f: impl Fn(f32, f32) -> f32) -> f32 {
    for j in 0..8 {
        l[j] = f(l[j], l[j + 8]);
    }
    for j in 0..4 {
        l[j] = f(l[j], l[j + 4]);
    }
    for j in 0..2 {
        l[j] = f(l[j], l[j + 2]);
    }
    f(l[0], l[1])
}

/// One block of an additive reduction, generic over op and vector width.
/// `K = LANES / V::W` vectors cover one 16-lane group.
#[inline(always)]
unsafe fn additive_block<O: RedOp, V: SimdVec, const K: usize>(
    a: &[f32],
    b: &[f32],
    c: f32,
) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(V::W * K, LANES);
    let n = a.len();
    let cv = V::splat(c);
    let mut acc = [V::splat(0.0); K];
    let groups = n / LANES;
    for g in 0..groups {
        let base = g * LANES;
        for (k, av) in acc.iter_mut().enumerate() {
            let x = V::load(a.as_ptr().add(base + k * V::W));
            let y = V::load(b.as_ptr().add(base + k * V::W));
            *av = V::add(*av, O::vec(x, y, cv));
        }
    }
    let mut lanes = [0.0f32; LANES];
    for (k, av) in acc.iter().enumerate() {
        av.store(lanes.as_mut_ptr().add(k * V::W));
    }
    let base = groups * LANES;
    for i in base..n {
        lanes[i - base] += O::scalar(a[i], b[i], c);
    }
    fold_lanes(lanes, |x, y| x + y)
}

macro_rules! additive_shims {
    ($op:ty, $name:ident) => {
        #[inline]
        fn $name(t: Tier, a: &[f32], b: &[f32], c: f32) -> f32 {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx")]
                unsafe fn avx2(a: &[f32], b: &[f32], c: f32) -> f32 {
                    additive_block::<$op, V8, 2>(a, b, c)
                }
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512(a: &[f32], b: &[f32], c: f32) -> f32 {
                    additive_block::<$op, V16, 1>(a, b, c)
                }
                match t {
                    // SAFETY: dispatch only selects a tier the CPU supports.
                    Tier::Avx512 => return unsafe { avx512(a, b, c) },
                    Tier::Fma => return unsafe { avx2(a, b, c) },
                    Tier::Scalar => {}
                }
            }
            let _ = t;
            // SAFETY: the scalar instantiation performs no SIMD.
            unsafe { additive_block::<$op, F1, 16>(a, b, c) }
        }
    };
}

additive_shims!(SumOp, sum_block);
additive_shims!(SumSqOp, sumsq_block);
additive_shims!(DotOp, dot_block);
additive_shims!(SseOp, sse_block);
additive_shims!(SadOp, sad_block);
additive_shims!(CenteredSqOp, centered_sq_block);

/// The one block-fold driver: cuts `[0, n)` into `RED_BLOCK` blocks and
/// folds their partials in block order starting from `init`.
#[inline]
fn run_seq<T>(
    n: usize,
    init: T,
    combine: impl Fn(T, T) -> T,
    block: impl Fn(usize, usize) -> T,
) -> T {
    let mut acc = init;
    let mut start = 0;
    while start < n {
        let end = (start + RED_BLOCK).min(n);
        acc = combine(acc, block(start, end));
        start = end;
    }
    acc
}

// ---------------------------------------------------------------------------
// Public API — entry points that resolve the tier (Tensor-level callers).
// ---------------------------------------------------------------------------

/// Sum of all elements (fixed-order spec).
pub fn sum(x: &[f32]) -> f32 {
    let t = super::tier();
    run_seq(x.len(), 0.0, |a, b| a + b, |s, e| sum_block(t, &x[s..e], &x[s..e], 0.0))
}

/// Sum of squares of all elements.
pub fn sumsq(x: &[f32]) -> f32 {
    let t = super::tier();
    run_seq(x.len(), 0.0, |a, b| a + b, |s, e| sumsq_block(t, &x[s..e], &x[s..e], 0.0))
}

/// Dot product `Σ a[i]·b[i]`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let t = super::tier();
    run_seq(a.len(), 0.0, |x, y| x + y, |s, e| dot_block(t, &a[s..e], &b[s..e], 0.0))
}

/// Sum of squared errors `Σ (a[i]-b[i])²`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sse length mismatch");
    let t = super::tier();
    run_seq(a.len(), 0.0, |x, y| x + y, |s, e| sse_block(t, &a[s..e], &b[s..e], 0.0))
}

/// Sum of absolute errors `Σ |a[i]-b[i]|`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sad(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sad length mismatch");
    let t = super::tier();
    run_seq(a.len(), 0.0, |x, y| x + y, |s, e| sad_block(t, &a[s..e], &b[s..e], 0.0))
}

/// Centered sum of squares `Σ (x[i]-c)²`.
pub fn centered_sumsq(x: &[f32], c: f32) -> f32 {
    let t = super::tier();
    run_seq(x.len(), 0.0, |a, b| a + b, |s, e| centered_sq_block(t, &x[s..e], &x[s..e], c))
}

/// Masked squared-error pass for imputation losses: returns
/// `(Σ (m[i]·d)·d, Σ m[i])` with `d = a[i]-b[i]`, fused into one sweep
/// over the three streams. The two accumulations are independent, so
/// fusing them is bit-identical to two separate reductions under the same
/// spec.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn masked_sse(a: &[f32], b: &[f32], m: &[f32]) -> (f32, f32) {
    assert_eq!(a.len(), b.len(), "masked_sse length mismatch");
    assert_eq!(a.len(), m.len(), "masked_sse mask length mismatch");
    let t = super::tier();
    run_seq(
        a.len(),
        (0.0, 0.0),
        |x: (f32, f32), y: (f32, f32)| (x.0 + y.0, x.1 + y.1),
        |s, e| masked_sse_block(t, &a[s..e], &b[s..e], &m[s..e]),
    )
}

/// One block of the fused masked-SSE pass: two lane sets updated in one
/// sweep, each folded by the standard tree.
#[inline]
fn masked_sse_block(t: Tier, a: &[f32], b: &[f32], m: &[f32]) -> (f32, f32) {
    #[inline(always)]
    unsafe fn body<V: SimdVec, const K: usize>(a: &[f32], b: &[f32], m: &[f32]) -> (f32, f32) {
        let n = a.len();
        let mut acc = [V::splat(0.0); K];
        let mut cnt = [V::splat(0.0); K];
        let groups = n / LANES;
        for g in 0..groups {
            let base = g * LANES;
            for k in 0..K {
                let x = V::load(a.as_ptr().add(base + k * V::W));
                let y = V::load(b.as_ptr().add(base + k * V::W));
                let w = V::load(m.as_ptr().add(base + k * V::W));
                let d = V::sub(x, y);
                acc[k] = V::add(acc[k], V::mul(V::mul(w, d), d));
                cnt[k] = V::add(cnt[k], w);
            }
        }
        let mut loss_lanes = [0.0f32; LANES];
        let mut cnt_lanes = [0.0f32; LANES];
        for k in 0..K {
            acc[k].store(loss_lanes.as_mut_ptr().add(k * V::W));
            cnt[k].store(cnt_lanes.as_mut_ptr().add(k * V::W));
        }
        let base = groups * LANES;
        for i in base..n {
            let d = a[i] - b[i];
            loss_lanes[i - base] += (m[i] * d) * d;
            cnt_lanes[i - base] += m[i];
        }
        (
            fold_lanes(loss_lanes, |x, y| x + y),
            fold_lanes(cnt_lanes, |x, y| x + y),
        )
    }
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx")]
        unsafe fn avx2(a: &[f32], b: &[f32], m: &[f32]) -> (f32, f32) {
            body::<V8, 2>(a, b, m)
        }
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512(a: &[f32], b: &[f32], m: &[f32]) -> (f32, f32) {
            body::<V16, 1>(a, b, m)
        }
        match t {
            // SAFETY: dispatch only selects a tier the CPU supports.
            Tier::Avx512 => return unsafe { avx512(a, b, m) },
            Tier::Fma => return unsafe { avx2(a, b, m) },
            Tier::Scalar => {}
        }
    }
    let _ = t;
    // SAFETY: scalar instantiation performs no SIMD.
    unsafe { body::<F1, 16>(a, b, m) }
}

/// Maximum element. `-inf` for an empty slice. NaN elements are
/// skipped; `+0.0`/`-0.0` resolve to the first seen (fixed order).
pub fn maxv(x: &[f32]) -> f32 {
    let t = super::tier();
    run_seq(
        x.len(),
        f32::NEG_INFINITY,
        pick_max,
        |s, e| minmax_block::<true>(t, &x[s..e]),
    )
}

/// Minimum element. `+inf` for an empty slice; NaN skipped.
pub fn minv(x: &[f32]) -> f32 {
    let t = super::tier();
    run_seq(
        x.len(),
        f32::INFINITY,
        pick_min,
        |s, e| minmax_block::<false>(t, &x[s..e]),
    )
}

#[inline(always)]
fn pick_max(acc: f32, v: f32) -> f32 {
    if v > acc {
        v
    } else {
        acc
    }
}

#[inline(always)]
fn pick_min(acc: f32, v: f32) -> f32 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// One extremum block. `IS_MAX` selects max vs min; the lane update, lane
/// fold, and block fold all use the same `pick` rule.
#[inline]
fn minmax_block<const IS_MAX: bool>(t: Tier, x: &[f32]) -> f32 {
    #[inline(always)]
    unsafe fn body<V: SimdVec, const K: usize, const IS_MAX: bool>(x: &[f32]) -> f32 {
        let init = if IS_MAX { f32::NEG_INFINITY } else { f32::INFINITY };
        let n = x.len();
        let mut acc = [V::splat(init); K];
        let groups = n / LANES;
        for g in 0..groups {
            let base = g * LANES;
            for (k, av) in acc.iter_mut().enumerate() {
                let v = V::load(x.as_ptr().add(base + k * V::W));
                *av = if IS_MAX { V::pick_gt(*av, v) } else { V::pick_lt(*av, v) };
            }
        }
        let mut lanes = [0.0f32; LANES];
        for (k, av) in acc.iter().enumerate() {
            av.store(lanes.as_mut_ptr().add(k * V::W));
        }
        let base = groups * LANES;
        for i in base..n {
            let l = &mut lanes[i - base];
            *l = if IS_MAX { pick_max(*l, x[i]) } else { pick_min(*l, x[i]) };
        }
        fold_lanes(lanes, if IS_MAX { pick_max } else { pick_min })
    }
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx")]
        unsafe fn avx2<const IS_MAX: bool>(x: &[f32]) -> f32 {
            body::<V8, 2, IS_MAX>(x)
        }
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512<const IS_MAX: bool>(x: &[f32]) -> f32 {
            body::<V16, 1, IS_MAX>(x)
        }
        match t {
            // SAFETY: dispatch only selects a tier the CPU supports.
            Tier::Avx512 => return unsafe { avx512::<IS_MAX>(x) },
            Tier::Fma => return unsafe { avx2::<IS_MAX>(x) },
            Tier::Scalar => {}
        }
    }
    let _ = t;
    // SAFETY: scalar instantiation performs no SIMD.
    unsafe { body::<F1, 16, IS_MAX>(x) }
}

// ---------------------------------------------------------------------------
// Explicit-tier entry points — for row loops (per-row normalisations,
// per-row ACF terms) that resolve the tier once, not once per row.
// ---------------------------------------------------------------------------

/// Sequential [`sum`] with an explicit tier (for row loops inside kernels).
pub fn sum_seq(t: Tier, x: &[f32]) -> f32 {
    run_seq(x.len(), 0.0, |a, b| a + b, |s, e| sum_block(t, &x[s..e], &x[s..e], 0.0))
}

/// Sequential [`dot`] with an explicit tier.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_seq(t: Tier, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    run_seq(a.len(), 0.0, |x, y| x + y, |s, e| dot_block(t, &a[s..e], &b[s..e], 0.0))
}

/// Sequential [`centered_sumsq`] with an explicit tier.
pub fn centered_sumsq_seq(t: Tier, x: &[f32], c: f32) -> f32 {
    run_seq(x.len(), 0.0, |a, b| a + b, |s, e| centered_sq_block(t, &x[s..e], &x[s..e], c))
}

/// Sequential [`maxv`] with an explicit tier.
pub fn maxv_seq(t: Tier, x: &[f32]) -> f32 {
    run_seq(x.len(), f32::NEG_INFINITY, pick_max, |s, e| {
        minmax_block::<true>(t, &x[s..e])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn small_exact_values() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(sum(&x), 10.0);
        assert_eq!(sumsq(&x), 30.0);
        assert_eq!(dot(&x, &x), 30.0);
        assert_eq!(sse(&x, &x), 0.0);
        assert_eq!(sad(&[1.0, -2.0], &[0.0, 0.0]), 3.0);
        assert_eq!(maxv(&x), 4.0);
        assert_eq!(minv(&x), 1.0);
        assert_eq!(centered_sumsq(&x, 2.5), 5.0);
    }

    #[test]
    fn empty_inputs_return_identities() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(maxv(&[]), f32::NEG_INFINITY);
        assert_eq!(minv(&[]), f32::INFINITY);
    }

    #[test]
    fn nan_skipped_by_extrema_propagated_by_sums() {
        let x = [1.0f32, f32::NAN, 3.0];
        assert_eq!(maxv(&x), 3.0);
        assert_eq!(minv(&x), 1.0);
        assert!(sum(&x).is_nan());
    }

    #[test]
    fn matches_sequential_across_sizes() {
        // The tier-resolving entry points must give the same bits as the
        // explicit-tier ones for every size, including non-multiples of
        // LANES/RED_BLOCK.
        let mut rng = Rng::seed_from(7);
        for n in [0usize, 1, 15, 16, 17, 255, 4096, 4097, 40_000] {
            let x: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let t = super::super::tier();
            assert_eq!(sum(&x).to_bits(), sum_seq(t, &x).to_bits(), "n={n}");
            assert_eq!(maxv(&x).to_bits(), maxv_seq(t, &x).to_bits(), "n={n}");
        }
    }
}

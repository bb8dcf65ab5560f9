//! Minimal SIMD vector abstraction shared by the kernel tiers.
//!
//! One generic kernel body is written against [`SimdVec`] and instantiated
//! three times: `F1` (scalar, 16 one-lane "vectors"), `V8` (AVX2 tier, two
//! 8-lane registers), and `V16` (AVX-512, one 16-lane register). Because
//! the virtual 16-lane accumulator layout is identical in all three
//! instantiations, the tiers are bit-identical by construction.
//!
//! Methods are `unsafe` because the x86 impls require their ISA extension
//! to be enabled; dispatch guarantees this by feature-detecting before
//! selecting a tier, and the public entry points wrap the generic body in
//! `#[target_feature]` shims.

/// A pack of `W` f32 lanes with the handful of operations kernels need.
///
/// All operations are exact per-element IEEE-754 single ops (no implicit
/// FMA contraction, no reassociation), so every implementation produces the
/// same bits for the same lanes. [`fmadd`](SimdVec::fmadd) is the one fused
/// operation, and it is explicit: one correctly rounded `a·b + c` per lane
/// on every implementation.
pub(crate) trait SimdVec: Copy {
    /// Lane count.
    const W: usize;
    /// Broadcast one value to all lanes.
    unsafe fn splat(v: f32) -> Self;
    /// Unaligned load of `W` consecutive f32s.
    unsafe fn load(p: *const f32) -> Self;
    /// Unaligned store of `W` consecutive f32s.
    unsafe fn store(self, p: *mut f32);
    /// Lane `l` reads `*p.add(l * stride)`; the caller guarantees
    /// `(W - 1) · stride` fits an `i32` (the x86 gathers index with one).
    unsafe fn load_strided(p: *const f32, stride: usize) -> Self;
    /// Loads lanes `0..min(len, W)` from `p` and zeroes the rest, reading
    /// nothing at or past `p + len` (a masked load on x86).
    unsafe fn load_partial(p: *const f32, len: usize) -> Self;
    /// Lanewise fused `a·b + c` with a single rounding (`f32::mul_add`).
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
    /// Lanewise `a + b`.
    unsafe fn add(a: Self, b: Self) -> Self;
    /// Lanewise `a - b`.
    unsafe fn sub(a: Self, b: Self) -> Self;
    /// Lanewise `a * b`.
    unsafe fn mul(a: Self, b: Self) -> Self;
    /// Lanewise `a / b`.
    unsafe fn div(a: Self, b: Self) -> Self;
    /// Lanewise sign-bit clear (`f32::abs` bit semantics, NaN included).
    unsafe fn abs(a: Self) -> Self;
    /// Lanewise `if v > acc { v } else { acc }` — NaN `v` keeps `acc`,
    /// and `+0.0 > -0.0` is false so the first-seen zero wins.
    unsafe fn pick_gt(acc: Self, v: Self) -> Self;
    /// Lanewise `if v < acc { v } else { acc }` (same NaN/zero rules).
    unsafe fn pick_lt(acc: Self, v: Self) -> Self;
    /// Lanewise `if v >= thr { hi } else { a }` — NaN `v` keeps `a`.
    unsafe fn select_ge(a: Self, v: Self, thr: Self, hi: Self) -> Self;
    /// Lanewise `if v <= thr { lo } else { a }` — NaN `v` keeps `a`.
    unsafe fn select_le(a: Self, v: Self, thr: Self, lo: Self) -> Self;
}

/// Scalar "vector" of one lane: the portable tier and the shape of the
/// reduction specification itself.
#[derive(Clone, Copy)]
pub(crate) struct F1(pub f32);

impl SimdVec for F1 {
    const W: usize = 1;
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F1(v)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F1(*p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self.0;
    }
    #[inline(always)]
    unsafe fn load_strided(p: *const f32, _stride: usize) -> Self {
        F1(*p)
    }
    #[inline(always)]
    unsafe fn load_partial(p: *const f32, len: usize) -> Self {
        F1(if len > 0 { *p } else { 0.0 })
    }
    #[inline(always)]
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
        F1(a.0.mul_add(b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        F1(a.0 + b.0)
    }
    #[inline(always)]
    unsafe fn sub(a: Self, b: Self) -> Self {
        F1(a.0 - b.0)
    }
    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        F1(a.0 * b.0)
    }
    #[inline(always)]
    unsafe fn div(a: Self, b: Self) -> Self {
        F1(a.0 / b.0)
    }
    #[inline(always)]
    unsafe fn abs(a: Self) -> Self {
        F1(f32::from_bits(a.0.to_bits() & 0x7fff_ffff))
    }
    #[inline(always)]
    unsafe fn pick_gt(acc: Self, v: Self) -> Self {
        if v.0 > acc.0 {
            v
        } else {
            acc
        }
    }
    #[inline(always)]
    unsafe fn pick_lt(acc: Self, v: Self) -> Self {
        if v.0 < acc.0 {
            v
        } else {
            acc
        }
    }
    #[inline(always)]
    unsafe fn select_ge(a: Self, v: Self, thr: Self, hi: Self) -> Self {
        if v.0 >= thr.0 {
            hi
        } else {
            a
        }
    }
    #[inline(always)]
    unsafe fn select_le(a: Self, v: Self, thr: Self, lo: Self) -> Self {
        if v.0 <= thr.0 {
            lo
        } else {
            a
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{V16, V8};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::SimdVec;
    use std::arch::x86_64::*;

    /// AVX 8-lane vector (the FMA tier uses two of these per 16-lane group).
    #[derive(Clone, Copy)]
    pub(crate) struct V8(pub __m256);

    impl SimdVec for V8 {
        const W: usize = 8;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V8(_mm256_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V8(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        /// Needs AVX2 (gather) on top of AVX.
        #[inline(always)]
        unsafe fn load_strided(p: *const f32, stride: usize) -> Self {
            let idx = _mm256_mullo_epi32(
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                _mm256_set1_epi32(stride as i32),
            );
            V8(_mm256_i32gather_ps::<4>(p, idx))
        }
        /// Needs AVX2 (the lane mask's compare) on top of AVX.
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, len: usize) -> Self {
            let mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(len.min(8) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            V8(_mm256_maskload_ps(p, mask))
        }
        /// Needs the FMA extension on top of AVX.
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            V8(_mm256_fmadd_ps(a.0, b.0, c.0))
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            V8(_mm256_add_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            V8(_mm256_sub_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            V8(_mm256_mul_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn div(a: Self, b: Self) -> Self {
            V8(_mm256_div_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn abs(a: Self) -> Self {
            V8(_mm256_andnot_ps(_mm256_set1_ps(-0.0), a.0))
        }
        #[inline(always)]
        unsafe fn pick_gt(acc: Self, v: Self) -> Self {
            // v > acc is ordered-quiet: NaN lanes compare false, keep acc.
            let m = _mm256_cmp_ps::<_CMP_GT_OQ>(v.0, acc.0);
            V8(_mm256_blendv_ps(acc.0, v.0, m))
        }
        #[inline(always)]
        unsafe fn pick_lt(acc: Self, v: Self) -> Self {
            let m = _mm256_cmp_ps::<_CMP_LT_OQ>(v.0, acc.0);
            V8(_mm256_blendv_ps(acc.0, v.0, m))
        }
        #[inline(always)]
        unsafe fn select_ge(a: Self, v: Self, thr: Self, hi: Self) -> Self {
            let m = _mm256_cmp_ps::<_CMP_GE_OQ>(v.0, thr.0);
            V8(_mm256_blendv_ps(a.0, hi.0, m))
        }
        #[inline(always)]
        unsafe fn select_le(a: Self, v: Self, thr: Self, lo: Self) -> Self {
            let m = _mm256_cmp_ps::<_CMP_LE_OQ>(v.0, thr.0);
            V8(_mm256_blendv_ps(a.0, lo.0, m))
        }
    }

    /// AVX-512 16-lane vector: one register holds a whole lane group.
    #[derive(Clone, Copy)]
    pub(crate) struct V16(pub __m512);

    impl SimdVec for V16 {
        const W: usize = 16;
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            V16(_mm512_set1_ps(v))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V16(_mm512_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn load_strided(p: *const f32, stride: usize) -> Self {
            let idx = _mm512_mullo_epi32(
                _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
                _mm512_set1_epi32(stride as i32),
            );
            V16(_mm512_i32gather_ps::<4>(idx, p))
        }
        #[inline(always)]
        unsafe fn load_partial(p: *const f32, len: usize) -> Self {
            let mask = ((1u32 << len.min(16)) - 1) as u16;
            V16(_mm512_maskz_loadu_ps(mask, p))
        }
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            V16(_mm512_fmadd_ps(a.0, b.0, c.0))
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            V16(_mm512_add_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            V16(_mm512_sub_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            V16(_mm512_mul_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn div(a: Self, b: Self) -> Self {
            V16(_mm512_div_ps(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn abs(a: Self) -> Self {
            V16(_mm512_abs_ps(a.0))
        }
        #[inline(always)]
        unsafe fn pick_gt(acc: Self, v: Self) -> Self {
            let m = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v.0, acc.0);
            V16(_mm512_mask_blend_ps(m, acc.0, v.0))
        }
        #[inline(always)]
        unsafe fn pick_lt(acc: Self, v: Self) -> Self {
            let m = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(v.0, acc.0);
            V16(_mm512_mask_blend_ps(m, acc.0, v.0))
        }
        #[inline(always)]
        unsafe fn select_ge(a: Self, v: Self, thr: Self, hi: Self) -> Self {
            let m = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(v.0, thr.0);
            V16(_mm512_mask_blend_ps(m, a.0, hi.0))
        }
        #[inline(always)]
        unsafe fn select_le(a: Self, v: Self, thr: Self, lo: Self) -> Self {
            let m = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(v.0, thr.0);
            V16(_mm512_mask_blend_ps(m, a.0, lo.0))
        }
    }
}

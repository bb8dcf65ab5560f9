//! Blocked, packed, register-tiled SGEMM — the compute engine behind
//! [`Tensor::matmul`], its transpose-aware variants, and [`Tensor::linear`].
//!
//! # Design
//!
//! Classic three-level blocking (the BLIS decomposition):
//!
//! * the k dimension is split into `KC`-deep slabs so one packed slab of B
//!   stays L2/L3-resident while it is reused by every row panel;
//! * rows of C are split into `MC`-high tiles; each tile packs its slab of A
//!   into an `MR`-interleaved buffer that streams through L1;
//! * a register-tiled `MR × NR` microkernel (runtime-dispatched between a
//!   portable scalar version and an AVX accumulator-grid version on x86-64)
//!   computes each output block, keeping 12 vector accumulators live.
//!
//! Both operands are read through arbitrary (row, column) strides, so the
//! same packing routines serve `A·B`, `A·Bᵀ` and `Aᵀ·B` — transposed
//! backward-pass products never materialise a transposed copy.
//!
//! # Determinism and exactness
//!
//! Every output element accumulates its k products in ascending-k order with
//! one fused multiply-add per term: the AVX path uses `vfmadd` and the
//! portable path uses [`f32::mul_add`], which is correctly rounded and
//! therefore **bit-identical** to the hardware instruction. The dispatcher
//! can pick either kernel and the result does not change. Products run on
//! the caller's thread ([`crate::pool`] explains why there is no intra-op
//! threading). Relative to the naive triple loop ([`naive_gemm`]) the fused
//! product differs by at most one rounding per term (FMA skips the intermediate
//! rounding of `a·b`), so equality tests against the reference compare
//! within a small tolerance while determinism tests compare bit for bit.
//! Zero inputs are *not* short-circuited: NaN and infinity propagate exactly
//! as IEEE arithmetic dictates.

/// Microkernel tile height (rows of C per register block).
pub const MR: usize = 6;
/// Microkernel tile width (columns of C per register block; two 8-lane
/// vectors).
pub const NR: usize = 16;
/// Depth of one packed slab of A/B.
const KC: usize = 256;
/// Rows of C per row tile (a multiple of `MR`).
const MC: usize = 96;

/// Reference kernel: the plain i-k-j triple loop, kept as the ground truth
/// for equality tests and as the baseline the micro-benchmarks measure the
/// blocked kernel against. `C = A·B` for row-major `m×k · k×n`.
pub fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// `C = A·B` with strided operands: `A[i, p] = a[i·a_rs + p·a_cs]` (an `m×k`
/// view), `B[p, j] = b[p·b_rs + j·b_cs]` (`k×n`), `C` row-major `m×n`,
/// overwritten.
// BLAS-style flat signature (dims + strided operands) on purpose: this is
// the conventional sgemm shape and every caller passes the fields of a
// tensor view it already holds.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_strided(
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
    assert_eq!(c.len(), m * n, "sgemm output size");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    debug_assert!((m - 1) * a_rs + (k - 1) * a_cs < a.len());
    debug_assert!((k - 1) * b_rs + (n - 1) * b_cs < b.len());

    // Packing buffers come from a per-thread scratch arena reused across
    // calls: repeated products (every training step) would otherwise spend
    // more time in page faults on freshly calloc'd buffers than in the
    // kernel. Layout: packed B, then one fixed-size A region per row tile.
    let n_panels = n.div_ceil(NR);
    let n_tiles = m.div_ceil(MC);
    let b_len = k * n_panels * NR;
    let a_tile_len = MC.div_ceil(MR) * MR * KC;
    let mut scratch = ScratchGuard::take(b_len + n_tiles * a_tile_len);
    let (packed_b, packed_a_all) = scratch.split_at_mut(b_len);

    // Pack all of B up front: per KC slab, per NR column panel, a kc×NR
    // block in row-major panel order. One pass, shared read-only by every
    // row tile.
    {
        let mut slab_base = 0usize;
        let mut k0 = 0usize;
        while k0 < k {
            let kc = KC.min(k - k0);
            for jp in 0..n_panels {
                let dst = &mut packed_b[slab_base + jp * kc * NR..][..kc * NR];
                let nr = NR.min(n - jp * NR);
                for p in 0..kc {
                    let src_row = (k0 + p) * b_rs;
                    if b_cs == 1 && nr == NR {
                        // Contiguous full panel: a straight 16-float copy.
                        dst[p * NR..(p + 1) * NR]
                            .copy_from_slice(&b[src_row + jp * NR..][..NR]);
                    } else {
                        for jj in 0..nr {
                            dst[p * NR + jj] = b[src_row + (jp * NR + jj) * b_cs];
                        }
                        for jj in nr..NR {
                            dst[p * NR + jj] = 0.0;
                        }
                    }
                }
            }
            slab_base += kc * n_panels * NR;
            k0 += kc;
        }
    }

    let packed_b = &*packed_b;
    let c_ptr = c.as_mut_ptr();
    // Resolve the ISA tier once per product, not per microkernel call: the
    // dispatcher re-reads `MSD_KERNEL_FORCE` on every resolution, which is
    // far too expensive for the inner loop.
    let isa = isa_level();
    let a_regions = packed_a_all.chunks_exact_mut(a_tile_len).take(n_tiles);
    for (tile, a_region) in a_regions.enumerate() {
        let i0 = tile * MC;
        let mc = MC.min(m - i0);
        let mr_panels = mc.div_ceil(MR);
        let packed_a = &mut a_region[..mr_panels * MR * KC];
        let mut slab_base = 0usize;
        let mut k0 = 0usize;
        let mut first_slab = true;
        while k0 < k {
            let kc = KC.min(k - k0);
            // Pack this tile's slab of A, MR-interleaved with zero padding
            // for the ragged final row panel.
            for ip in 0..mr_panels {
                let dst = &mut packed_a[ip * kc * MR..(ip + 1) * kc * MR];
                let rows = MR.min(mc - ip * MR);
                for p in 0..kc {
                    for ii in 0..rows {
                        dst[p * MR + ii] = a[(i0 + ip * MR + ii) * a_rs + (k0 + p) * a_cs];
                    }
                    for ii in rows..MR {
                        dst[p * MR + ii] = 0.0;
                    }
                }
            }
            for jp in 0..n_panels {
                let b_panel = &packed_b[slab_base + jp * kc * NR..][..kc * NR];
                for ip in 0..mr_panels {
                    let i = i0 + ip * MR;
                    let j = jp * NR;
                    let mr = MR.min(m - i);
                    let nr = NR.min(n - j);
                    let a_panel = &packed_a[ip * kc * MR..][..kc * MR];
                    // SAFETY: the (i, j) block's `mr` rows at stride n and
                    // `nr` columns lie inside C (i + mr ≤ m, j + nr ≤ n).
                    unsafe {
                        let c_block = c_ptr.add(i * n + j);
                        if mr == MR && nr == NR {
                            microkernel(isa, kc, a_panel, b_panel, c_block, n, first_slab);
                        } else {
                            // Ragged edge: run the kernel on a local NR-wide
                            // buffer, then copy the valid region back element
                            // by element. A per-row `copy_from_slice` compiles
                            // to a `memcpy` call, which made products with
                            // n ≤ 8 about 1.5× slower.
                            let mut buf = [0.0f32; MR * NR];
                            if !first_slab {
                                for ii in 0..mr {
                                    for jj in 0..nr {
                                        buf[ii * NR + jj] = *c_block.add(ii * n + jj);
                                    }
                                }
                            }
                            microkernel(isa, kc, a_panel, b_panel, buf.as_mut_ptr(), NR, first_slab);
                            for ii in 0..mr {
                                for jj in 0..nr {
                                    *c_block.add(ii * n + jj) = buf[ii * NR + jj];
                                }
                            }
                        }
                    }
                }
            }
            slab_base += kc * n_panels * NR;
            k0 += kc;
            first_slab = false;
        }
    }
}

thread_local! {
    /// Reusable packing arena, one per thread. See [`ScratchGuard`].
    static SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Owns the thread's packing arena for the duration of one product.
///
/// The buffer is *taken out* of the thread-local slot (leaving an empty Vec)
/// and returned on drop, so re-entrant calls on the same thread simply fall
/// back to a fresh allocation instead of aborting on a RefCell borrow. The
/// larger buffer wins on the way back, so the arena converges to the biggest
/// working-set size the thread has seen and stays fault-free afterwards.
struct ScratchGuard(Vec<f32>);

impl ScratchGuard {
    fn take(len: usize) -> Self {
        let mut buf = SCRATCH
            .try_with(|c| std::mem::take(&mut *c.borrow_mut()))
            .unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        Self(buf)
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        let _ = SCRATCH.try_with(|c| {
            let mut cur = c.borrow_mut();
            if cur.capacity() < buf.capacity() {
                *cur = buf;
            }
        });
    }
}

impl std::ops::Deref for ScratchGuard {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl std::ops::DerefMut for ScratchGuard {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

/// Dispatches one `MR×NR` block: `init` starts accumulators at zero
/// (first k slab), otherwise they continue from the values already in `c`.
///
/// # Safety
/// `a` must hold `kc·MR` packed values, `b` `kc·NR`; `c` must be writable at
/// rows `0..MR` with stride `ldc` and `NR` columns each.
#[inline]
unsafe fn microkernel(
    isa: IsaLevel,
    kc: usize,
    a: &[f32],
    b: &[f32],
    c: *mut f32,
    ldc: usize,
    init: bool,
) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            IsaLevel::Avx512 => return microkernel_avx512(kc, a, b, c, ldc, init),
            IsaLevel::Fma => return microkernel_fma(kc, a, b, c, ldc, init),
            IsaLevel::Baseline => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    microkernel_scalar(kc, a, b, c, ldc, init);
}

#[derive(Clone, Copy)]
enum IsaLevel {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Fma,
    Baseline,
}

/// Resolves the gemm ISA tier through the shared kernel dispatcher so
/// `MSD_KERNEL_FORCE` governs gemm exactly like every other kernel. All
/// gemm tiers are bit-identical by design (the scalar path uses
/// correctly-rounded `f32::mul_add` to mirror the FMA units), so forcing
/// the tier only changes speed, never bits.
fn isa_level() -> IsaLevel {
    match crate::ops::kernels::tier() {
        crate::ops::kernels::Tier::Avx512 => IsaLevel::Avx512,
        crate::ops::kernels::Tier::Fma => IsaLevel::Fma,
        crate::ops::kernels::Tier::Scalar => IsaLevel::Baseline,
    }
}

/// Portable microkernel: a `[MR][NR]` accumulator grid accumulated with
/// [`f32::mul_add`]. `mul_add` is correctly rounded (soft-float where the
/// target has no FMA unit), so every element matches the AVX kernel bit for
/// bit — this path trades speed for portability, never accuracy.
unsafe fn microkernel_scalar(kc: usize, a: &[f32], b: &[f32], c: *mut f32, ldc: usize, init: bool) {
    let mut acc = [[0.0f32; NR]; MR];
    if !init {
        for (i, row) in acc.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = *c.add(i * ldc + j);
            }
        }
    }
    for p in 0..kc {
        let b_row = &b[p * NR..(p + 1) * NR];
        let a_col = &a[p * MR..(p + 1) * MR];
        for (row, &ai) in acc.iter_mut().zip(a_col) {
            for (v, &bv) in row.iter_mut().zip(b_row) {
                *v = ai.mul_add(bv, *v);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            *c.add(i * ldc + j) = *v;
        }
    }
}

/// FMA microkernel: 6×2 ymm accumulators, one broadcast per A element, two
/// loads per B row, one `vfmadd` per accumulator — 12 live accumulators plus
/// 3 working registers fit the 16 ymm registers with room to spare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_fma(kc: usize, a: &[f32], b: &[f32], c: *mut f32, ldc: usize, init: bool) {
    use core::arch::x86_64::*;
    let mut acc0: [__m256; MR] = [_mm256_setzero_ps(); MR];
    let mut acc1: [__m256; MR] = [_mm256_setzero_ps(); MR];
    if !init {
        for i in 0..MR {
            acc0[i] = _mm256_loadu_ps(c.add(i * ldc));
            acc1[i] = _mm256_loadu_ps(c.add(i * ldc + 8));
        }
    }
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(p * NR));
        let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
        for i in 0..MR {
            let ai = _mm256_broadcast_ss(&*ap.add(p * MR + i));
            acc0[i] = _mm256_fmadd_ps(ai, b0, acc0[i]);
            acc1[i] = _mm256_fmadd_ps(ai, b1, acc1[i]);
        }
    }
    for i in 0..MR {
        _mm256_storeu_ps(c.add(i * ldc), acc0[i]);
        _mm256_storeu_ps(c.add(i * ldc + 8), acc1[i]);
    }
}

/// AVX-512 microkernel: one zmm spans the whole `NR = 16` panel, so each of
/// the `MR` rows keeps a single accumulator — one broadcast and one `vfmadd`
/// per (row, k) step, half the instructions of the AVX2 version. The
/// per-element operation sequence (ascending-k fused multiply-add) is the
/// same as every other path, so results stay bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(kc: usize, a: &[f32], b: &[f32], c: *mut f32, ldc: usize, init: bool) {
    use core::arch::x86_64::*;
    let mut acc: [__m512; MR] = [_mm512_setzero_ps(); MR];
    if !init {
        for (i, v) in acc.iter_mut().enumerate() {
            *v = _mm512_loadu_ps(c.add(i * ldc));
        }
    }
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    for p in 0..kc {
        let bv = _mm512_loadu_ps(bp.add(p * NR));
        for (i, v) in acc.iter_mut().enumerate() {
            let ai = _mm512_set1_ps(*ap.add(p * MR + i));
            *v = _mm512_fmadd_ps(ai, bv, *v);
        }
    }
    for (i, v) in acc.iter().enumerate() {
        _mm512_storeu_ps(c.add(i * ldc), *v);
    }
}

/// Batched strided product: `nb` independent `m×k · k×n` problems, run one
/// after another. The operands advance by `a_step`/`b_step` elements per
/// batch (a step of 0 broadcasts that operand) and C by `m·n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sgemm_batched_strided(
    nb: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_step: usize,
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_step: usize,
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
) {
    assert_eq!(c.len(), nb * m * n, "batched sgemm output size");
    for bi in 0..nb {
        sgemm_strided(
            m,
            k,
            n,
            &a[bi * a_step..],
            a_rs,
            a_cs,
            &b[bi * b_step..],
            b_rs,
            b_cs,
            &mut c[bi * m * n..(bi + 1) * m * n],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    /// Elementwise comparison with the slack FMA contraction is allowed: one
    /// rounding per term relative to the mul-then-add reference.
    pub(super) fn assert_close_to_naive(c: &[f32], reference: &[f32], label: &str) {
        assert_eq!(c.len(), reference.len(), "{label}: length");
        for (i, (&x, &y)) in c.iter().zip(reference).enumerate() {
            let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
            assert!(
                (x - y).abs() <= tol,
                "{label}: element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn blocked_matches_naive_on_assorted_shapes() {
        let mut rng = Rng::seed_from(7);
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (5, 7, 11),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC, 8, NR * 2),
            (MC + MR - 1, KC - 1, 33),
            (97, 61, 29),
        ] {
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            let mut c = vec![f32::NAN; m * n];
            sgemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut c);
            assert_close_to_naive(&c, &naive_gemm(m, k, n, &a, &b), &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn strided_reads_compute_transposed_products_bitwise() {
        let mut rng = Rng::seed_from(8);
        let (m, k, n) = (9, 13, 17);
        let a = random(m * k, &mut rng); // row-major [m, k]
        let bt = random(n * k, &mut rng); // row-major [n, k], used as Bᵀ
        let mut c = vec![0.0f32; m * n];
        // B[p, j] = bt[j, p]: row stride 1, column stride k.
        sgemm_strided(m, k, n, &a, k, 1, &bt, 1, k, &mut c);
        let mut b = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                b[p * n + j] = bt[j * k + p];
            }
        }
        // Same kernel, same packing layout either way — strided reads must
        // reproduce the materialised transpose bit for bit.
        let mut c_ref = vec![0.0f32; m * n];
        sgemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut c_ref);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn k_zero_yields_zeros() {
        let mut c = vec![1.0f32; 6];
        sgemm_strided(2, 0, 3, &[], 0, 0, &[], 0, 0, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
    }
}

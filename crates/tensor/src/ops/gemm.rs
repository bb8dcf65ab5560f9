//! Register-tiled SGEMM with three paths — the compute engine behind
//! [`Tensor::matmul`], its transpose-aware variants, and [`Tensor::linear`].
//!
//! # Design
//!
//! [`path_for`], a pure function of the shape and strides (never of the
//! kernel tier), sends each product down one of three paths:
//!
//! 1. **Small-n** ([`GemmPath::SmallN`]): C has `n < NR` columns and at
//!    least 16 rows (below).
//! 2. **Pack-free** ([`GemmPath::PackFree`]): B's columns are adjacent
//!    (`b_cs = 1`), and C has at most 64 rows and 192 columns, or the
//!    product has a depth of at most 96 and C at most 96 columns (below).
//! 3. **Packed** ([`GemmPath::Packed`]): everything else, including every
//!    product with a transposed B. Classic three-level blocking (the BLIS
//!    decomposition):
//!    * the k dimension is split into `KC`-deep slabs so one packed slab of
//!      B stays L2/L3-resident while it is reused by every row panel;
//!    * rows of C are split into `MC`-high tiles; each tile packs its slab
//!      of A into an `MR`-interleaved buffer that streams through L1;
//!    * a register-tiled `MR × NR` microkernel (runtime-dispatched between
//!      a portable scalar version and AVX accumulator-grid versions on
//!      x86-64) computes each output block.
//!
//! Both operands are read through arbitrary (row, column) strides on every
//! path, so `A·B`, `A·Bᵀ` and `Aᵀ·B` share the code — transposed
//! backward-pass products never materialise a transposed copy.
//!
//! # Small-n path
//!
//! MSD-Mixer's Fig. 3 block multiplies by tiny weights (5376×16×1,
//! 1344×8×4, ...). With fewer than `NR` columns the blocked kernel spends
//! most of each tile on padding, so when C has `n < NR` columns and at least
//! 16 rows, [`sgemm_strided`] vectorises over rows of C instead: one vector
//! lane per row, one accumulator per output column (up to 8 columns per
//! pass), one A load and then one B broadcast and one FMA per column for
//! each k term. It reads both operands in place through their strides and
//! never touches the scratch arena. The body is written once against the
//! kernel layer's `SimdVec` and instantiated per tier.
//!
//! # Pack-free path
//!
//! The rest of the Fig. 3 block's products are small or skinny too
//! (56×1536×96, 112×96×48, 5376×1×16): each packed panel is reused only a
//! few times, so packing costs about as much as the arithmetic. The
//! pack-free path runs the packed path's `MR × NR` register tile straight
//! over the caller's operands: each A element is broadcast from A's own
//! rows through `(a_rs, a_cs)`, and B's row segments are loaded in place,
//! the last column panel's with a masked load that reads only its valid
//! floats. Its loop order is KC slabs, then column
//! panels, then row panels, so every row panel reuses one B panel from L1.
//! Nothing is packed and the scratch arena is not touched. Packing pays
//! again once many row panels reuse a wide B panel: more than 64 rows at
//! a depth above 96, or C too wide for B's rows, read in place, to stay
//! in L1 ([`path_for`] has the measured bounds).
//!
//! # Determinism and exactness
//!
//! Every output element starts at 0.0 and accumulates its k products in
//! ascending-k order with one fused multiply-add per term, on every path
//! (a KC slab continues from the sum the previous slab stored in C): the
//! AVX paths use `vfmadd` and the portable path uses [`f32::mul_add`],
//! which is correctly rounded and therefore **bit-identical** to the
//! hardware instruction. The dispatcher can pick any kernel, and
//! [`path_for`] any path, and the result does not change; the
//! `kernels_differential` suite pins each element to this contract's
//! oracle (`kernels::oracle::gemm`) on every tier. Products run on
//! the caller's thread ([`crate::pool`] explains why there is no intra-op
//! threading). Relative to the naive triple loop ([`naive_gemm`]) the fused
//! product differs by at most one rounding per term (FMA skips the intermediate
//! rounding of `a·b`), so equality tests against the reference compare
//! within a small tolerance while determinism tests compare bit for bit.
//! Zero inputs are *not* short-circuited: NaN and infinity propagate exactly
//! as IEEE arithmetic dictates.

use crate::ops::kernels::simd::{SimdVec, F1};

/// Microkernel tile height (rows of C per register block).
pub const MR: usize = 6;
/// Microkernel tile width (columns of C per register block; two 8-lane
/// vectors).
pub const NR: usize = 16;
/// Depth of one packed slab of A/B.
const KC: usize = 256;
/// Rows of C per row tile (a multiple of `MR`).
const MC: usize = 96;

/// The path [`sgemm_strided`] runs a product on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// Fewer than `NR` columns and at least 16 rows: vectorised over rows
    /// of C, operands read in place.
    SmallN,
    /// B's columns adjacent and the product too small for packing to pay:
    /// the `MR × NR` register tile reads both operands in place.
    PackFree,
    /// Everything else: blocked, packed through the per-thread scratch
    /// arena.
    Packed,
}

/// The path [`sgemm_strided`] takes for an `m×k · k×n` product whose A rows
/// step by `a_rs` and whose B columns step by `b_cs`. It depends on the
/// shape and strides only, never on the kernel tier, so every tier runs a
/// product on the same path.
pub fn path_for(m: usize, k: usize, n: usize, a_rs: usize, b_cs: usize) -> GemmPath {
    // Lane offsets of the small-n path's strided A load are `i32`s.
    let a_lanes_fit = a_rs == 1 || a_rs <= i32::MAX as usize / SMALL_N_MIN_M;
    // Packing pays only when a packed panel is reused enough. At most 64
    // rows give at most 11 row panels to reuse each B panel; a depth of at
    // most 96 costs as much to pack as to multiply. Wider C (past 192
    // columns, or past 96 with more rows) puts the B rows read in place too
    // far apart for a B panel to stay in L1 across row panels: in place,
    // 64×64×256 ran 1.22× and 4096×32×256 1.27× slower than packed.
    let few_rows = m <= 64 && n <= 192;
    let shallow = k <= 96 && n <= 96;
    if n < NR && m >= SMALL_N_MIN_M && a_lanes_fit {
        GemmPath::SmallN
    } else if b_cs == 1 && (few_rows || shallow) {
        GemmPath::PackFree
    } else {
        GemmPath::Packed
    }
}

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
/// overwritten. Runs on the path [`path_for`] picks (small-n, pack-free or
/// packed); only the packed path takes the thread's scratch arena, and the
/// path changes no bit of C.
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
    // Resolve the ISA tier once per product and pass it down, so no
    // microkernel call pays the dispatcher's lookup.
    let isa = isa_level();
    let path = path_for(m, k, n, a_rs, b_cs);
    if path != GemmPath::Packed {
        let o = InPlace {
            m,
            k,
            n,
            a: a.as_ptr(),
            a_rs,
            a_cs,
            b: b.as_ptr(),
            b_rs,
            b_cs,
        };
        in_place(isa, path, o, a, b, c);
        return;
    }

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
                        dst[p * NR..(p + 1) * NR].copy_from_slice(&b[src_row + jp * NR..][..NR]);
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
                            microkernel(
                                isa,
                                kc,
                                a_panel,
                                b_panel,
                                buf.as_mut_ptr(),
                                NR,
                                first_slab,
                            );
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

/// Fewest rows of C the small-n path takes: one full 16-lane vector, so
/// every tier covers the rows with whole vectors (a ragged last block
/// overlaps its predecessor instead of running a tail).
const SMALL_N_MIN_M: usize = 16;
/// Columns of C per small-n pass: one accumulator each, plus the A vector
/// and a B broadcast, stays inside the 16 AVX2 registers.
const SMALL_N_COLS: usize = 8;

/// The operands of one product read in place (small-n or pack-free), as
/// raw pointers into views whose bounds [`in_place`] has checked.
#[derive(Clone, Copy)]
struct InPlace {
    m: usize,
    k: usize,
    n: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    b: *const f32,
    b_rs: usize,
    b_cs: usize,
}

/// Runs a product on the small-n or the pack-free path, both of which read
/// the operands in place through raw pointers and never touch the scratch
/// arena: proves every index in range first, then dispatches on the tier.
fn in_place(isa: IsaLevel, path: GemmPath, o: InPlace, a: &[f32], b: &[f32], c: &mut [f32]) {
    // Overflow included: the last element of a view is its largest index.
    let last = |rows: usize, rs: usize, cols: usize, cs: usize| {
        (rows - 1)
            .checked_mul(rs)?
            .checked_add((cols - 1).checked_mul(cs)?)
    };
    assert!(
        last(o.m, o.a_rs, o.k, o.a_cs).is_some_and(|l| l < a.len()),
        "sgemm: A view out of bounds"
    );
    assert!(
        last(o.k, o.b_rs, o.n, o.b_cs).is_some_and(|l| l < b.len()),
        "sgemm: B view out of bounds"
    );
    let c = c.as_mut_ptr();
    #[cfg(target_arch = "x86_64")]
    {
        use crate::ops::kernels::simd::{V16, V8};
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn fma(path: GemmPath, o: InPlace, c: *mut f32) {
            in_place_body::<V8, 2>(path, o, c)
        }
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512(path: GemmPath, o: InPlace, c: *mut f32) {
            in_place_body::<V16, 1>(path, o, c)
        }
        match isa {
            // SAFETY: the views were bounds-checked above, `c` holds m·n
            // elements (asserted by the caller), `path_for` chose the path
            // (so a small-n product has m ≥ SMALL_N_MIN_M ≥ 16 lanes and
            // 15·a_rs within i32::MAX, a pack-free one has b_cs = 1), and
            // dispatch only selects a tier the CPU supports.
            IsaLevel::Avx512 => return unsafe { avx512(path, o, c) },
            IsaLevel::Fma => return unsafe { fma(path, o, c) },
            IsaLevel::Baseline => {}
        }
    }
    // SAFETY: as above; one-lane vectors need no ISA extension.
    unsafe { in_place_body::<F1, NR>(path, o, c) }
}

/// One tier's instance of both in-place paths; `L` vectors of `V` span the
/// `NR` columns of a pack-free tile.
///
/// # Safety
/// As [`small_n_body`] for [`GemmPath::SmallN`], as [`pack_free_body`]
/// otherwise.
#[inline(always)]
unsafe fn in_place_body<V: SimdVec, const L: usize>(path: GemmPath, o: InPlace, c: *mut f32) {
    if path == GemmPath::SmallN {
        small_n_body::<V>(o, c)
    } else {
        pack_free_body::<V, L>(o, c)
    }
}

/// The small-n path: C has fewer than `NR` columns, so the blocked kernel
/// would spend most of each `MR × NR` tile on padding and packing.
/// Vectorises over rows of C instead: lane `l` holds row `i + l`, and each
/// output column keeps one accumulator. Per k term it does one A load (a
/// gather unless A's rows are adjacent), then one B broadcast and one fused
/// multiply-add per column. That is the microkernels' own chain (ascending
/// k, one FMA per term, from 0.0), so the result is bit-identical to the
/// other paths on every tier. It runs in passes of up to `SMALL_N_COLS`
/// columns.
///
/// # Safety
/// Every `A[i, p]` and `B[p, j]` of `o`'s views is in bounds, `c` is
/// writable for `m·n` elements, `m ≥ V::W`, `(V::W - 1)·a_rs` fits an
/// `i32`, and the CPU supports `V`.
#[inline(always)]
unsafe fn small_n_body<V: SimdVec>(o: InPlace, c: *mut f32) {
    let mut j0 = 0;
    while j0 < o.n {
        let cols = (o.n - j0).min(SMALL_N_COLS);
        match cols {
            1 => small_n_pass::<V, 1>(o, c, j0),
            2 => small_n_pass::<V, 2>(o, c, j0),
            3 => small_n_pass::<V, 3>(o, c, j0),
            4 => small_n_pass::<V, 4>(o, c, j0),
            5 => small_n_pass::<V, 5>(o, c, j0),
            6 => small_n_pass::<V, 6>(o, c, j0),
            7 => small_n_pass::<V, 7>(o, c, j0),
            _ => small_n_pass::<V, SMALL_N_COLS>(o, c, j0),
        }
        j0 += cols;
    }
}

/// Columns `j0..j0 + N` of C, one block of `V::W` rows at a time.
///
/// # Safety
/// As [`small_n_body`], and `j0 + N ≤ n`.
#[inline(always)]
unsafe fn small_n_pass<V: SimdVec, const N: usize>(o: InPlace, c: *mut f32, j0: usize) {
    debug_assert!(V::W <= NR && o.m >= V::W && j0 + N <= o.n);
    let mut i0 = 0;
    while i0 < o.m {
        // A ragged last block slides back to end at row m: it recomputes
        // some rows of the block before it, with the same bits.
        let i = i0.min(o.m - V::W);
        let a_rows = o.a.add(i * o.a_rs);
        let b_cols = o.b.add(j0 * o.b_cs);
        let mut acc = [V::splat(0.0); N];
        let mut term = |p: usize, av: V| {
            let b_row = b_cols.add(p * o.b_rs);
            for (j, acc) in acc.iter_mut().enumerate() {
                *acc = V::fmadd(av, V::splat(*b_row.add(j * o.b_cs)), *acc);
            }
        };
        if o.a_rs == 1 {
            for p in 0..o.k {
                term(p, V::load(a_rows.add(p * o.a_cs)));
            }
        } else {
            for p in 0..o.k {
                term(p, V::load_strided(a_rows.add(p * o.a_cs), o.a_rs));
            }
        }
        // Lanes are rows: transpose the block out into row-major C.
        let mut lanes = [[0.0f32; NR]; N];
        for (acc, lane) in acc.iter().zip(&mut lanes) {
            acc.store(lane.as_mut_ptr());
        }
        let c_block = c.add(i * o.n + j0);
        for l in 0..V::W {
            for (j, lane) in lanes.iter().enumerate() {
                *c_block.add(l * o.n + j) = lane[l];
            }
        }
        i0 += V::W;
    }
}

/// The pack-free path: the `MR × NR` register tile of the packed path, run
/// straight over the caller's operands. Each A element is broadcast from
/// A's own rows through `(a_rs, a_cs)` and each B row segment is loaded in
/// place, so nothing is packed. Loop order: KC slabs, then `NR`-wide column
/// panels, then `MR`-high row panels, so every row panel of a slab reuses
/// one B panel (kc rows of `NR` floats) from L1. Every element runs the
/// microkernels' chain: from 0.0 on the first slab, continuing from C on
/// the next, ascending k, one FMA per term.
///
/// # Safety
/// Every `A[i, p]` and `B[p, j]` of `o`'s views is in bounds, `b_cs = 1`,
/// `c` is writable for `m·n` elements, `L·V::W = NR`, and the CPU supports
/// `V`.
#[inline(always)]
unsafe fn pack_free_body<V: SimdVec, const L: usize>(o: InPlace, c: *mut f32) {
    debug_assert!(L * V::W == NR && o.b_cs == 1);
    // Ragged blocks run through this NR-wide buffer, as on the packed path;
    // its lanes past the block are scratch whose sums are dropped.
    let mut buf = [0.0f32; MR * NR];
    let mut k0 = 0;
    while k0 < o.k {
        let kc = KC.min(o.k - k0);
        let init = k0 == 0;
        for j in (0..o.n).step_by(NR) {
            let nr = NR.min(o.n - j);
            let b_panel = o.b.add(k0 * o.b_rs + j);
            for i in (0..o.m).step_by(MR) {
                let mr = MR.min(o.m - i);
                // Rows past m re-read the last row; their sums are dropped.
                let a_rows: [*const f32; MR] =
                    std::array::from_fn(|r| o.a.add((i + r.min(mr - 1)) * o.a_rs + k0 * o.a_cs));
                let c_block = c.add(i * o.n + j);
                let full = mr == MR && nr == NR;
                let (dst, ldc) = if full {
                    (c_block, o.n)
                } else {
                    if !init {
                        for ii in 0..mr {
                            for jj in 0..nr {
                                buf[ii * NR + jj] = *c_block.add(ii * o.n + jj);
                            }
                        }
                    }
                    (buf.as_mut_ptr(), NR)
                };
                let mut acc = [[V::splat(0.0); L]; MR];
                if !init {
                    for (r, row) in acc.iter_mut().enumerate() {
                        for (l, v) in row.iter_mut().enumerate() {
                            *v = V::load(dst.add(r * ldc + l * V::W));
                        }
                    }
                }
                if nr == NR {
                    pack_free_terms::<V, L, true>(o, kc, &a_rows, b_panel, nr, &mut acc);
                } else {
                    pack_free_terms::<V, L, false>(o, kc, &a_rows, b_panel, nr, &mut acc);
                }
                for (r, row) in acc.iter().enumerate() {
                    for (l, v) in row.iter().enumerate() {
                        v.store(dst.add(r * ldc + l * V::W));
                    }
                }
                if !full {
                    for ii in 0..mr {
                        for jj in 0..nr {
                            *c_block.add(ii * o.n + jj) = buf[ii * NR + jj];
                        }
                    }
                }
            }
        }
        k0 += kc;
    }
}

/// Adds `kc` terms to one pack-free block's accumulators. Row `r` of A
/// starts at `a_rows[r]` and steps by `a_cs`; B's rows start at `b`, step
/// by `b_rs` and hold `nr` valid floats (all `NR` when `FULL`). Only those
/// are read: lanes past them load as zero and feed dropped sums.
///
/// # Safety
/// As [`pack_free_body`], for a block whose `kc` terms lie in the views.
#[inline(always)]
unsafe fn pack_free_terms<V: SimdVec, const L: usize, const FULL: bool>(
    o: InPlace,
    kc: usize,
    a_rows: &[*const f32; MR],
    b: *const f32,
    nr: usize,
    acc: &mut [[V; L]; MR],
) {
    for p in 0..kc {
        let b_row = b.add(p * o.b_rs);
        let mut bv = [V::splat(0.0); L];
        for (l, v) in bv.iter_mut().enumerate() {
            let j = l * V::W;
            if FULL {
                *v = V::load(b_row.add(j));
            } else if j < nr {
                *v = V::load_partial(b_row.add(j), nr - j);
            }
        }
        for (row, a_row) in acc.iter_mut().zip(a_rows) {
            let av = V::splat(*a_row.add(p * o.a_cs));
            for (v, &bl) in row.iter_mut().zip(&bv) {
                *v = V::fmadd(av, bl, *v);
            }
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

/// Resolves the gemm ISA tier through the shared kernel dispatcher, so a
/// forced or scoped tier governs gemm exactly like every other kernel. All
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
            assert!((x - y).abs() <= tol, "{label}: element {i}: {x} vs {y}");
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

    /// serve_mixer's batch-8 patch embedding (5376×1×16) and largest head
    /// Linear (56×1536×96) run pack-free, so a thread that runs only them
    /// never grows a scratch arena; a packed product on another fresh
    /// thread does, so the check can fail.
    #[test]
    fn pack_free_products_leave_the_scratch_arena_empty() {
        let arena_after = |shapes: Vec<(usize, usize, usize)>| {
            std::thread::spawn(move || {
                let mut rng = Rng::seed_from(9);
                for (m, k, n) in shapes {
                    let a = random(m * k, &mut rng);
                    let b = random(k * n, &mut rng);
                    let mut c = vec![0.0f32; m * n];
                    sgemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut c);
                }
                SCRATCH.with(|s| s.borrow().capacity())
            })
            .join()
            .unwrap()
        };
        let pack_free = vec![(5376, 1, 16), (56, 1536, 96)];
        for &(m, k, n) in &pack_free {
            assert_eq!(path_for(m, k, n, k, 1), GemmPath::PackFree);
        }
        assert_eq!(arena_after(pack_free), 0);
        assert_eq!(path_for(256, 256, 256, 256, 1), GemmPath::Packed);
        assert!(arena_after(vec![(256, 256, 256)]) > 0);
    }

    #[test]
    fn k_zero_yields_zeros() {
        let mut c = vec![1.0f32; 6];
        sgemm_strided(2, 0, 3, &[], 0, 0, &[], 0, 0, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
    }
}

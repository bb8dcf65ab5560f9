//! Kernel dispatch layer: SIMD-tiered elementwise, reduction, and
//! normalisation kernels. Every kernel runs on its caller's thread (see
//! [`crate::pool`]).
//!
//! # Dispatch
//!
//! Every kernel picks one of three implementation tiers at runtime —
//! AVX-512, AVX2 (the FMA tier), or portable scalar — via [`tier`]. The
//! detected ISA is probed once per process; the `MSD_KERNEL_FORCE`
//! environment variable (`scalar`, `fma`/`avx2`, `avx512`, `auto`) is read
//! on every dispatch so tests can flip tiers at runtime. Forcing a tier
//! above what the machine supports clamps to the detected level.
//!
//! # Determinism contract
//!
//! Results are **bit-identical for every tier**:
//!
//! * elementwise kernels are pure per-element functions whose SIMD bodies
//!   replicate the scalar operation sequence exactly (plain mul/add, no
//!   FMA contraction, branch-free clamps via compare+blend that preserve
//!   NaN/±inf propagation);
//! * reductions follow a *fixed accumulation-order specification*: the
//!   input is cut into [`RED_BLOCK`]-sized blocks (boundaries depend only
//!   on the length), each block accumulates into [`LANES`] interleaved
//!   lanes (lane `i` takes elements `i`, `i + LANES`, …), lanes fold in a
//!   fixed pairwise tree (16 → 8 → 4 → 2 → 1), and block partials fold
//!   sequentially in block order. Every tier implements this one spec —
//!   AVX-512 with one 16-lane register, AVX2 with two 8-lane registers,
//!   scalar with a 16-element array — so the bits cannot differ;
//! * the two row-wise accumulations across rows (LayerNorm `dγ`/`dβ` and
//!   the fused ACF loss total) sum per [`row_blocks`] block first, then
//!   fold the block partials in block order; those block boundaries are
//!   part of the specification too.
//!
//! One deliberate carve-out: **NaN payload/sign is unspecified**. When
//! both operands of an addition are NaN, IEEE 754 lets the implementation
//! return either payload; x86 `addss`/`addps` return the first operand's,
//! and LLVM freely commutes `fadd`, so two correct compilations of the
//! same accumulation order can surface different NaN bits. Whether a
//! result *is* NaN is fully deterministic — only which of several input
//! NaN payloads survives is not. All non-NaN results, including ±inf and
//! signed zeros, are covered by the bit-identity guarantee.
//!
//! The naive reference implementations of the same specification live in
//! [`oracle`] and stay compiled into every build: the differential test
//! suite (`tests/kernels_differential.rs`) sweeps random shapes and
//! NaN/±inf inputs comparing each dispatched kernel bit-for-bit against
//! its oracle (NaNs canonicalised before comparing, per the carve-out
//! above), across every tier.

use std::sync::OnceLock;

pub mod ew;
pub mod norm;
pub mod oracle;
pub mod quant;
pub mod reduce;
pub(crate) mod simd;

/// Number of virtual accumulator lanes in the reduction specification.
/// Chosen to match one AVX-512 register (and two AVX2 registers) so every
/// tier can implement the spec at full width.
pub const LANES: usize = 16;

/// Elements per reduction block. Block boundaries depend only on the input
/// length, so partial folds are deterministic. A multiple of [`LANES`];
/// sized so one block's working set stays L1-hot.
pub const RED_BLOCK: usize = 4096;

/// Target elements per [`row_blocks`] block. It fixes where the LayerNorm
/// `dγ`/`dβ` and ACF loss partials split, so it is part of the numerics:
/// changing it changes those bits.
pub(crate) const EW_BLOCK: usize = 1 << 14;

/// The SIMD implementation tier a kernel dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable scalar loops — also the shape of the test oracles.
    Scalar,
    /// AVX2 + FMA x86-64 tier (FMA is required by the gemm microkernel;
    /// pointwise kernels use plain mul/add to stay bit-identical with the
    /// scalar tier).
    Fma,
    /// AVX-512F x86-64 tier.
    Avx512,
}

impl Tier {
    /// Human-readable tier name (for bench reports and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Fma => "fma",
            Tier::Avx512 => "avx512",
        }
    }
}

/// The highest tier the running CPU supports (probed once per process).
pub fn detected_tier() -> Tier {
    static DETECTED: OnceLock<Tier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Tier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Tier::Fma;
            }
        }
        Tier::Scalar
    })
}

/// The tier kernels dispatch to right now: the detected tier, clamped by
/// the `MSD_KERNEL_FORCE` environment variable if set.
///
/// Recognised values: `scalar`, `fma` (alias `avx2`), `avx512`, `auto`
/// (same as unset). Unknown values fall back to `auto`. The variable is
/// re-read on every call so tests and benches can flip the tier at
/// runtime; a forced tier above the machine's capability clamps down to
/// [`detected_tier`].
pub fn tier() -> Tier {
    let detected = detected_tier();
    match std::env::var("MSD_KERNEL_FORCE") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "scalar" => Tier::Scalar,
            "fma" | "avx2" => detected.min(Tier::Fma),
            "avx512" => detected.min(Tier::Avx512),
            _ => detected,
        },
        Err(_) => detected,
    }
}

/// The fixed row-block decomposition for a `rows × row_len` problem:
/// returns `(rows_per_block, n_blocks)`. Depends only on the shape, so
/// per-block partial results always split and fold the same way.
pub fn row_blocks(rows: usize, row_len: usize) -> (usize, usize) {
    if rows == 0 {
        return (1, 0);
    }
    // Aim for blocks of ~EW_BLOCK elements, at least one row.
    let rows_per_block = (EW_BLOCK / row_len.max(1)).clamp(1, rows);
    (rows_per_block, rows.div_ceil(rows_per_block))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_force_is_clamped_and_lenient() {
        // Can't mutate the process env safely in parallel tests, but the
        // ordering invariants are static.
        assert!(Tier::Scalar < Tier::Fma);
        assert!(Tier::Fma < Tier::Avx512);
        assert!(tier() <= detected_tier());
        assert_eq!(Tier::Avx512.name(), "avx512");
    }

    #[test]
    fn row_blocks_cover_every_row_once() {
        for (rows, row_len) in [(37, 8), (100_000, 1), (5, 0), (0, 8)] {
            let (per_block, n_blocks) = row_blocks(rows, row_len);
            let mut hits = vec![0u32; rows];
            for b in 0..n_blocks {
                let r0 = b * per_block;
                for h in &mut hits[r0..(r0 + per_block).min(rows)] {
                    *h += 1;
                }
            }
            assert!(hits.iter().all(|&h| h == 1), "{rows}x{row_len}");
        }
    }
}

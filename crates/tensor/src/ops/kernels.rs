//! Kernel dispatch layer: SIMD-tiered elementwise, reduction, and
//! normalisation kernels. Every kernel runs on its caller's thread (see
//! [`crate::pool`]).
//!
//! # Dispatch
//!
//! Every kernel picks one of three implementation tiers at runtime —
//! AVX-512, AVX2 (the FMA tier), or portable scalar — via [`tier`]. The
//! tier is resolved once per process and scoped per thread: the detected
//! ISA, lowered by the `MSD_KERNEL_FORCE` environment variable (`scalar`,
//! `fma`/`avx2`, `avx512`, `auto`) read at the first dispatch, is the
//! process tier; [`with_tier`] overrides it for one closure on the calling
//! thread, which is how tests and benches sweep tiers inside one process.
//! Forcing a tier above what the machine supports clamps to the detected
//! level.
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

use std::cell::Cell;
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

thread_local! {
    /// The tier of the innermost [`with_tier`] scope open on this thread.
    static SCOPED: Cell<Option<Tier>> = const { Cell::new(None) };
}

/// The tier kernels dispatch to on the calling thread: the tier of the
/// innermost [`with_tier`] scope if one is open, else the process tier.
///
/// The process tier is [`detected_tier`], lowered by the
/// `MSD_KERNEL_FORCE` environment variable, which is read once, at the
/// first call in the process. Recognised values (case and surrounding
/// whitespace ignored): `scalar`, `fma` (alias `avx2`), `avx512`, `auto`
/// (same as unset). Unknown values fall back to `auto`; a forced tier above
/// the machine's capability clamps down to [`detected_tier`].
// Reads MSD_KERNEL_FORCE.
#[allow(clippy::disallowed_methods)]
pub fn tier() -> Tier {
    SCOPED.with(Cell::get).unwrap_or_else(|| {
        static PROCESS: OnceLock<Tier> = OnceLock::new();
        *PROCESS.get_or_init(|| {
            parse_force(
                std::env::var("MSD_KERNEL_FORCE").ok().as_deref(),
                detected_tier(),
            )
        })
    })
}

/// The tier an `MSD_KERNEL_FORCE` value selects on a machine whose highest
/// tier is `detected` (`None`: the variable is unset).
fn parse_force(value: Option<&str>, detected: Tier) -> Tier {
    let forced = match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("scalar") => Tier::Scalar,
        Some("fma" | "avx2") => Tier::Fma,
        Some("avx512") => Tier::Avx512,
        _ => detected,
    };
    forced.min(detected)
}

/// Runs `f` with the calling thread's kernels dispatching to `t`, clamped
/// to [`detected_tier`], and returns its result. The previous tier comes
/// back when `f` returns or unwinds, so scopes nest. Threads that `f`
/// spawns do not inherit the scope: they run on the process tier unless
/// they open a scope of their own. Serve workers are the one exception
/// (`Server::start` runs them on its caller's tier), and only for servers
/// started on this thread: those a gateway builds for an HTTP swap start
/// on a connection thread and run on the process tier.
pub fn with_tier<R>(t: Tier, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Tier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(t.min(detected_tier())))));
    f()
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

    const TIERS: [Tier; 3] = [Tier::Scalar, Tier::Fma, Tier::Avx512];

    #[test]
    fn tier_force_is_clamped_and_lenient() {
        assert!(Tier::Scalar < Tier::Fma && Tier::Fma < Tier::Avx512);
        let values: [(Option<&str>, Option<Tier>); 9] = [
            (Some("scalar"), Some(Tier::Scalar)),
            (Some("fma"), Some(Tier::Fma)),
            (Some("avx2"), Some(Tier::Fma)),
            (Some("avx512"), Some(Tier::Avx512)),
            (Some(" AVX2\n"), Some(Tier::Fma)),
            (Some("\tScalar "), Some(Tier::Scalar)),
            (Some("auto"), None),
            (Some("sse9"), None),
            (None, None),
        ];
        for detected in TIERS {
            for (value, forced) in values {
                let want = forced.map_or(detected, |f| f.min(detected));
                assert_eq!(
                    parse_force(value, detected),
                    want,
                    "{value:?} on {detected:?}"
                );
            }
        }
        assert_eq!(TIERS.map(Tier::name), ["scalar", "fma", "avx512"]);
        // Every tier's name is the value that forces it.
        for t in TIERS {
            assert_eq!(parse_force(Some(t.name()), Tier::Avx512), t);
        }
    }

    #[test]
    fn with_tier_sets_nests_restores_and_clamps() {
        let process = tier();
        let top = detected_tier();
        assert!(process <= top);
        for t in TIERS {
            with_tier(t, || {
                assert_eq!(tier(), t.min(top), "{t:?}");
                with_tier(Tier::Scalar, || assert_eq!(tier(), Tier::Scalar));
                assert_eq!(tier(), t.min(top), "{t:?} after a nested scope");
            });
            assert_eq!(tier(), process, "{t:?} scope must restore on return");
        }
        with_tier(Tier::Scalar, || {
            let unwound = std::panic::catch_unwind(|| {
                with_tier(Tier::Avx512, || panic!("leg failed"));
            });
            assert!(unwound.is_err());
            assert_eq!(tier(), Tier::Scalar, "scope must restore on unwind");
        });
        assert_eq!(tier(), process);
    }

    #[test]
    fn spawned_threads_run_on_the_process_tier() {
        let process = tier();
        // A scope tier unlike the process tier (they coincide only on a
        // scalar-only host), so a thread that inherited it would show.
        let other = if process == Tier::Scalar {
            detected_tier()
        } else {
            Tier::Scalar
        };
        let seen = with_tier(other, || {
            assert_eq!(tier(), other);
            std::thread::spawn(tier).join().unwrap()
        });
        assert_eq!(seen, process);
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

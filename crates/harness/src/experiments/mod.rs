//! Per-task experiment runners, one module per paper table/figure family.
//!
//! Each module exposes a `results(scale)` entry point that computes (or
//! loads from the results cache) every row of its table. The cache lives
//! under `target/msd-results/` (override with `MSD_RESULTS_DIR`) so the
//! Table II overview can aggregate across families without recomputing.

pub mod ablation;
pub mod anomaly;
pub mod case_study;
pub mod classification;
pub mod imputation;
pub mod long_term;
pub mod short_term;

mod cache;

pub use cache::cache_dir;

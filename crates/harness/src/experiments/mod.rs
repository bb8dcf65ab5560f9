//! Per-task experiment runners, one module per paper table/figure family.
//!
//! Each module exposes a `results(scale, base)` entry point that computes
//! (or loads from the results cache) every row of its table. `base` is the
//! calling binary's [`crate::TrainConfig`]; each fit takes its epochs, batch
//! size and learning rate from the runner and every other knob (retries,
//! checkpoints, telemetry) from `base`. The cache lives
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

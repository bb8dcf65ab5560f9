#![warn(missing_docs)]

//! # msd-harness
//!
//! The experiment harness of the MSD-Mixer reproduction: a uniform model
//! wrapper over MSD-Mixer and the baselines, a mini-batch training driver
//! with early stopping, per-task experiment runners for the five tasks of
//! Sec. IV, and the table machinery that regenerates every table and figure
//! of the paper's evaluation (see `msd-bench` for the bench targets).
//!
//! ## Scale knobs
//!
//! Every experiment reads [`Scale`] from the `MSD_SCALE` environment
//! variable (`smoke` / `fast` / `full`, default `fast`) and sizes training
//! budgets accordingly — all scales produce every row of every table; they
//! differ in training epochs, window counts, and model width. EXPERIMENTS.md
//! records which scale produced the committed results.

pub mod checkpoint;
pub mod experiments;
pub mod gwdemo;
mod model;
mod registry;
mod report;
mod scale;
mod sources;
pub mod telemetry;
mod train;

pub use checkpoint::{Fingerprint, TrainCheckpoint, TrainerState};
pub use model::{default_patch_sizes, AnyModel, ModelSpec};
pub use registry::{table_i_rows, TaskSummary};
pub use report::{fmt3, write_csv, Table};
pub use scale::Scale;
pub use sources::{
    BatchSource, ClassifySource, DenoisingSource, ForecastSource, ImputationSource,
    ReconstructSource,
};
pub use telemetry::{read_events_tolerant, TelemetrySummary, TrainEvent, TrainMonitor};
pub use train::{evaluate_accuracy, validation_loss};
pub use train::{evaluate_forecast, fit, fit_monitored, FitReport, TrainConfig};

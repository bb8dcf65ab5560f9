#![warn(missing_docs)]

//! # msd-data
//!
//! Synthetic time-series datasets and data utilities for the MSD-Mixer
//! reproduction.
//!
//! The paper evaluates on 26 public datasets (Tables III, V, VIII, X). Those
//! archives are not available offline, so this crate generates synthetic
//! stand-ins that preserve the *structural* properties each task stresses —
//! multi-scale seasonality, trend, channel coupling, regime noise, anomaly
//! contamination, and class-discriminative temporal patterns — at the same
//! (occasionally capped) dimensionalities. DESIGN.md §2 documents each
//! substitution.
//!
//! Contents:
//!
//! * [`generators`] — one module per paper benchmark family;
//! * [`window`] — sliding-window samplers and batch iterators;
//! * [`scaler`] — per-channel standardisation fit on the train split;
//! * [`mask`] — random observation masks for the imputation task;
//! * [`decomp`] — classical moving-average decomposition (case-study
//!   reference).

pub mod decomp;
pub mod generators;
pub mod impute;
pub mod mask;
pub mod scaler;
pub mod window;

pub use generators::anomaly::{anomaly_datasets, AnomalySpec, AnomalyStream};
pub use generators::classification::{classification_datasets, ClassSpec, LabeledDataset};
pub use generators::longrange::{long_term_datasets, LongRangeSpec};
pub use generators::m4like::{m4_subsets, M4Collection, M4Spec};
pub use mask::{apply_mask, random_observed_mask};
pub use scaler::StandardScaler;
pub use window::{Batcher, SlidingWindows, Split};

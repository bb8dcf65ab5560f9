#![warn(missing_docs)]

//! # msd-nn
//!
//! Neural-network building blocks over [`msd_autograd`]: a parameter store,
//! layers (linear, the paper's MLP block, layer norm), initialisers,
//! optimisers (SGD, Adam, AdamW), learning-rate schedules, and checkpoint
//! serialisation.
//!
//! ## Model pattern
//!
//! Parameters live in a [`ParamStore`]; layers hold [`msd_autograd::ParamId`]
//! handles. A training step:
//!
//! 1. builds a fresh [`msd_autograd::Graph`];
//! 2. wraps it in a [`Ctx`] (graph + store + RNG) and runs the model's
//!    forward pass;
//! 3. calls `backward` on the scalar loss;
//! 4. hands the [`msd_autograd::Gradients`] to an [`Optimizer`].
//!
//! See the `msd-harness` crate for the full training loop.

mod ctx;
mod init;
mod layers;
mod model;
mod optim;
mod params;
mod schedule;
mod task;
pub mod artifact;
pub mod checkpoint;
pub mod serialize;
pub mod store;

pub use artifact::{ArtifactReader, ArtifactWriter, PrecisionTier};
pub use ctx::Ctx;
pub use init::{kaiming_normal, xavier_uniform};
pub use layers::{LayerNorm, Linear, MlpBlock};
pub use model::{default_task_loss, DynModel, Model, ModelOutput, Target};
pub use optim::{Adam, AdamConfig, OptimState, Optimizer, Sgd};
pub use params::ParamStore;
pub use schedule::LrSchedule;
pub use task::Task;

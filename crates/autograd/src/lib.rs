#![warn(missing_docs)]

//! # msd-autograd
//!
//! Tape-based reverse-mode automatic differentiation over [`msd_tensor`].
//!
//! A [`Graph`] is a single-use tape: a training step builds the forward
//! computation by calling op methods on the graph (each returns a [`Var`]
//! handle), then calls [`Graph::backward`] on a scalar loss to obtain
//! gradients for every parameter leaf. Model parameters live *outside* the
//! graph (see `msd-nn`'s parameter store); they enter a step as parameter
//! leaves tagged with an opaque [`ParamId`], and [`Gradients`] maps those ids
//! back to gradient tensors.
//!
//! The op surface covers exactly what MSD-Mixer and the baseline models
//! need, including two fused ops with hand-derived adjoints:
//!
//! * [`Graph::softmax_cross_entropy`] — classification loss;
//! * [`Graph::acf_hinge_loss`] — the autocorrelation term of the paper's
//!   Residual Loss (Eq. 5–6), whose gradient is computed analytically during
//!   the forward pass.
//!
//! Every op's adjoint is validated against central finite differences in
//! this crate's test-suite (see `tests/gradcheck.rs` and [`check`]).

mod graph;
mod ops_acf;
mod ops_basic;
mod ops_layout;
mod ops_linalg;
mod ops_nn;
mod ops_reduce;

pub mod check;
pub mod plan;

pub use graph::{Gradients, Graph, ParamId, Var, ALL_OPS};
pub use plan::{CompiledPlan, ParamSource, PlanArena, PlanError};

#![warn(missing_docs)]

//! # msd-tensor
//!
//! A small, dependency-light ND tensor library used as the compute substrate
//! of the MSD-Mixer reproduction. Tensors are dense, row-major, contiguous
//! `f32` buffers with an explicit shape. The op surface is exactly what the
//! models in this workspace need:
//!
//! * layout ops: [`Tensor::reshape`], [`Tensor::permute`], padding, narrowing,
//!   concatenation;
//! * linear algebra: [`Tensor::matmul`] (2-D and batched), the
//!   transpose-aware [`Tensor::matmul_nt`] / [`Tensor::matmul_tn`], and
//!   fused [`Tensor::linear`] (`x · W + b` over the last axis) — all backed
//!   by the SIMD-dispatched SGEMM in [`ops::gemm`] (blocked, with a small-n
//!   path for products of fewer than 16 columns), which runs on the
//!   caller's thread like every other kernel (see [`pool`]);
//! * elementwise arithmetic and activations;
//! * reductions along arbitrary axes.
//!
//! Everything is deterministic given an RNG seed; see [`rng`] for the
//! Gaussian sampling helpers used in parameter initialisation and data
//! generation. Matrix products are additionally bit-identical for every
//! SIMD path (see [`ops::gemm`] for why).

pub mod fft;
pub mod ops;
pub mod pool;
pub mod rng;
mod shape;
pub mod stats;
mod tensor;

pub use ops::kernels::quant::{QuantError, QuantTensor, QuantView};
pub use shape::{strides_for, Shape};
pub use tensor::Tensor;

/// Crate-wide absolute tolerance used by tests and debug assertions when
/// comparing floating point tensors.
pub const TEST_EPS: f32 = 1e-4;

/// Returns `true` when `a` and `b` are elementwise within `tol` of each other
/// (relative to magnitude) and have identical shapes. Intended for tests and
/// validation code, not hot paths.
pub fn allclose(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| (x - y).abs() <= tol + tol * y.abs().max(x.abs()))
}

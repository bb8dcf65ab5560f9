#![warn(missing_docs)]

//! # msd-baselines
//!
//! From-scratch implementations of the baseline models the MSD-Mixer paper
//! compares against (Sec. IV), built on the same tensor/autograd/nn
//! substrate so every comparison exercises identical machinery:
//!
//! * [`DLinear`] — series decomposition + per-component linear maps
//!   (Zeng et al. 2023);
//! * [`NLinear`] — last-value normalised linear map (same paper);
//! * [`LightTs`] — light sampling-oriented MLP (Zhang et al. 2022);
//! * [`NBeats`] — doubly-residual generic basis expansion (Oreshkin et al.
//!   2020), channel-independent;
//! * [`NHits`] — hierarchical interpolation with multi-rate pooling
//!   (Challu et al. 2023), channel-independent;
//! * [`PatchTst`] — patch tokens + channel-independent Transformer encoder
//!   (Nie et al. 2023), scaled down;
//! * [`TimesNet`] — TimesNet-lite: FFT period discovery + folded 2-D
//!   mixing (Wu et al. 2023), the paper's strongest task-general baseline;
//! * [`naive`] — non-learned reference forecasters, including the M4
//!   competition's Naive2 used by the OWA metric;
//! * [`ar`] — classical AR(p) least-squares forecasting;
//! * [`ets`] — exponential smoothing (SES / Holt / additive Holt–Winters);
//! * [`MiniRocket`] — the fast statistical classification transform
//!   (Dempster et al. 2021), a Table XI task-specific baseline.
//!
//! All learned baselines implement [`Baseline`], take `[B, C, L]` inputs,
//! and support the same three head shapes as MSD-Mixer (forecast /
//! reconstruct / classify) so the harness can train them on all five tasks.

pub mod ar;
mod dlinear;
pub mod ets;
mod lightts;
mod minirocket;
pub mod naive;
mod nbeats;
mod nbeats_interp;
mod nhits;
mod nlinear;
mod patchtst;
mod timesnet;

use msd_autograd::Var;
use msd_nn::{Ctx, Model, ModelOutput, Task};
use msd_tensor::Tensor;

pub use dlinear::DLinear;
pub use lightts::LightTs;
pub use minirocket::{MiniRocket, MiniRocketClassifier};
pub use nbeats::NBeats;
pub use nbeats_interp::{InterpretableForecast, NBeatsInterpretable};
pub use nhits::NHits;
pub use nlinear::NLinear;
pub use patchtst::PatchTst;
pub use timesnet::TimesNet;

/// A trainable baseline: one forward pass from a `[B, C, L]` batch to the
/// task output (`[B, C, H]`, `[B, C, L]`, or `[B, classes]`).
pub trait Baseline {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// The task this instance was built for.
    fn task(&self) -> &Task;

    /// Builds the forward computation for a batch.
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> Var;

    /// Input-derived tensors the forward pushes as non-parameter leaves, in
    /// push order — the contract of [`msd_nn::Model::plan_prelude`]. Models
    /// that decompose the input outside the tape (DLinear's moving average,
    /// NLinear's last-value offset) override this so their eval forwards
    /// stay compilable into inference plans.
    fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
        vec![x.clone()]
    }
}

/// Implements the unified [`msd_nn::Model`] trait for a learned baseline by
/// delegating to its [`Baseline`] impl. A macro (rather than a blanket
/// `impl<T: Baseline> Model for T`) because `Model` is a foreign trait, so
/// the orphan rule requires one impl per local type.
macro_rules! impl_model_for_baseline {
    ($($ty:ty),+ $(,)?) => {$(
        impl Model for $ty {
            fn name(&self) -> &str {
                Baseline::name(self)
            }
            fn task(&self) -> &Task {
                Baseline::task(self)
            }
            fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
                ModelOutput::pred_only(Baseline::forward(self, ctx, x))
            }
            fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
                Baseline::plan_prelude(self, x)
            }
        }
    )+};
}

impl_model_for_baseline!(DLinear, NLinear, LightTs, NBeats, NHits, PatchTst, TimesNet);

/// Output length for a task over inputs of length `input_len`.
pub(crate) fn task_output_len(task: &Task, input_len: usize) -> usize {
    match task {
        Task::Forecast { horizon } => *horizon,
        Task::Reconstruct => input_len,
        Task::Classify { .. } => panic!("classification has no per-channel output length"),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use msd_autograd::Graph;
    use msd_nn::{Adam, Optimizer, ParamStore};
    use msd_tensor::rng::Rng;

    /// Runs shape checks and one training step for a baseline on all tasks.
    pub fn exercise_baseline<F>(build: F)
    where
        F: Fn(&mut ParamStore, &mut Rng, usize, usize, Task) -> Box<dyn Baseline>,
    {
        let (c, l) = (3usize, 24usize);
        for task in [
            Task::Forecast { horizon: 12 },
            Task::Reconstruct,
            Task::Classify { classes: 4 },
        ] {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from(77);
            let model = build(&mut store, &mut rng, c, l, task.clone());
            let x = Tensor::randn(&[2, c, l], 1.0, &mut rng);
            let g = Graph::new();
            let mut rng2 = Rng::seed_from(78);
            let ctx = Ctx::new(&g, &store, &mut rng2);
            let pred = model.forward(&ctx, &x);
            let shape = g.shape_of(pred);
            match &task {
                Task::Forecast { horizon } => assert_eq!(shape, vec![2, c, *horizon]),
                Task::Reconstruct => assert_eq!(shape, vec![2, c, l]),
                Task::Classify { classes } => assert_eq!(shape, vec![2, *classes]),
            }
            // One training step must produce finite loss and update params.
            let loss = match &task {
                Task::Classify { .. } => g.softmax_cross_entropy(pred, &[0, 1]),
                _ => {
                    let target = Tensor::zeros(&shape);
                    g.mse_loss(pred, &target)
                }
            };
            assert!(g.value(loss).item().is_finite(), "{} loss", model.name());
            let grads = g.backward(loss);
            assert!(!grads.is_empty(), "{} produced no gradients", model.name());
            let mut opt = Adam::with_lr(1e-3);
            opt.step(&mut store, &grads);
        }
    }

    /// Trains a forecasting baseline briefly on a learnable sine task and
    /// asserts the loss drops.
    pub fn check_learns<F>(build: F, steps: usize, lr: f32)
    where
        F: Fn(&mut ParamStore, &mut Rng, usize, usize, Task) -> Box<dyn Baseline>,
    {
        let (c, l, h) = (2usize, 24usize, 8usize);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(79);
        let model = build(&mut store, &mut rng, c, l, Task::Forecast { horizon: h });
        let mut opt = Adam::with_lr(lr);
        let mk = |phase: f32| {
            let xs: Vec<f32> = (0..c * l)
                .map(|i| ((i % l) as f32 / 3.0 + phase).sin())
                .collect();
            let ys: Vec<f32> = (0..c * h)
                .map(|i| (((i % h) + l) as f32 / 3.0 + phase).sin())
                .collect();
            (
                Tensor::from_vec(&[1, c, l], xs),
                Tensor::from_vec(&[1, c, h], ys),
            )
        };
        let mut first = None;
        let mut last = 0.0;
        for step in 0..steps {
            let (x, y) = mk((step % 5) as f32 * 0.7);
            let g = Graph::new();
            let mut rng2 = Rng::seed_from(step as u64);
            let ctx = Ctx::new(&g, &store, &mut rng2);
            let pred = model.forward(&ctx, &x);
            let loss = g.mse_loss(pred, &y);
            last = g.value(loss).item();
            if first.is_none() {
                first = Some(last);
            }
            let grads = g.backward(loss);
            opt.step(&mut store, &grads);
        }
        assert!(
            last < first.unwrap() * 0.8,
            "{}: loss did not drop ({} -> {last})",
            model.name(),
            first.unwrap()
        );
    }
}

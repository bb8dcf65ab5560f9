//! The one model abstraction every architecture implements.
//!
//! Historically each model family had its own forward/loss/predict signature
//! zoo; the harness dispatched over them with per-family `match` arms and the
//! serving runtime would have needed one more copy. [`Model`] collapses that
//! to a single object-safe trait: a forward pass producing a [`ModelOutput`],
//! a default task loss derived from the model's [`Task`], batched inference
//! ([`Model::predict_batch`]) whose outputs are **bit-identical** to
//! per-sample [`Model::predict`] calls — the property the serving runtime
//! is gated on — and compiled plans ([`Model::compile_plan`]), one per
//! model, that serve every batch size and precision tier.

use crate::{Ctx, ParamStore, PrecisionTier, Task};
use msd_autograd::plan::{CompiledPlan, PlanArena, PlanError};
use msd_autograd::{Graph, Var};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// The label `Y` for one training batch, per task.
#[derive(Clone, Debug)]
pub enum Target {
    /// Forecasting target `[B, C, H]` or full reconstruction target
    /// `[B, C, L]`.
    Series(Tensor),
    /// Imputation target: reconstruct `series` where `observed_mask` is 0
    /// (missing); the task loss is computed only there. `observed_mask`
    /// holds 1 at observed positions.
    MaskedSeries {
        /// Ground-truth series `[B, C, L]`.
        series: Tensor,
        /// 1 = observed, 0 = missing, shape `[B, C, L]`.
        observed_mask: Tensor,
    },
    /// Class labels, one per batch element.
    Labels(Vec<usize>),
}

/// Everything one forward pass produces.
///
/// Plain prediction models leave `components` empty and `residual` `None`;
/// decomposition models (MSD-Mixer) fill both so their loss can add the
/// residual term.
pub struct ModelOutput {
    /// Task prediction (`[B,C,H]`, `[B,C,L]`, or `[B,classes]`).
    pub pred: Var,
    /// Per-layer decomposed components `S_i`, each `[B, C, L]` (empty for
    /// non-decomposition models).
    pub components: Vec<Var>,
    /// Final residual `Z_k = X − Σ S_i`, `[B, C, L]`, if the model
    /// decomposes its input.
    pub residual: Option<Var>,
}

impl ModelOutput {
    /// Wraps a bare prediction (no decomposition by-products).
    pub fn pred_only(pred: Var) -> Self {
        Self {
            pred,
            components: Vec::new(),
            residual: None,
        }
    }
}

/// The standard task loss: MSE for forecasting/reconstruction, masked MSE
/// on the missing positions for imputation, softmax cross-entropy for
/// classification.
///
/// # Panics
/// Panics if the target kind does not match `task`.
pub fn default_task_loss(g: &Graph, pred: Var, task: &Task, target: &Target) -> Var {
    match (task, target) {
        (Task::Forecast { .. }, Target::Series(y)) => g.mse_loss(pred, y),
        (Task::Reconstruct, Target::Series(y)) => g.mse_loss(pred, y),
        (
            Task::Reconstruct,
            Target::MaskedSeries {
                series,
                observed_mask,
            },
        ) => {
            // Imputation: loss on the *missing* positions.
            let missing = observed_mask.map(|m| 1.0 - m);
            g.masked_mse_loss(pred, series, &missing)
        }
        (Task::Classify { .. }, Target::Labels(labels)) => g.softmax_cross_entropy(pred, labels),
        (task, target) => panic!("target {target:?} does not match task {task:?}"),
    }
}

/// A trainable, servable time-series model.
///
/// Object-safe by design: the harness stores `Box<dyn Model + Send + Sync>`
/// (see [`DynModel`]) and the serving runtime is generic over `M: Model`.
/// Implementors provide the forward pass; training loss and (batched)
/// inference come for free, with [`Model::loss`] overridable for models
/// that add auxiliary terms (MSD-Mixer's residual loss).
pub trait Model {
    /// Display name for reports and logs.
    fn name(&self) -> &str;

    /// The task this model instance was built for.
    fn task(&self) -> &Task;

    /// Runs the forward pass on a batch `x` of shape `[B, C, L]`.
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput;

    /// Builds the scalar training loss for a forward pass and its target.
    ///
    /// The default is [`default_task_loss`]; decomposition models override
    /// this to add their auxiliary terms.
    fn loss(&self, ctx: &Ctx, out: &ModelOutput, target: &Target) -> Var {
        default_task_loss(ctx.g, out.pred, self.task(), target)
    }

    /// Runs an eval-mode forward pass and returns the prediction tensor.
    ///
    /// The tape always computes in f32 on the store's (dequantized) values;
    /// only [`Model::compile_plan`] serves the int8 tier.
    fn predict(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let g = Graph::eval();
        let pred = eval_forward(self, &g, store, x);
        g.value(pred)
    }

    /// Batched inference: packs per-sample inputs (each `[1, C, L]`) into
    /// one `[B, C, L]` tensor, runs a single eval forward, and splits the
    /// prediction back per sample (each keeping its leading batch axis of
    /// 1).
    ///
    /// Every output is bit-identical to `self.predict(store, &xs[i])`: all
    /// row-parallel ops accumulate each output element independently of the
    /// batch extent, and eval mode is deterministic.
    ///
    /// # Panics
    /// Panics if `xs` is empty or the samples disagree on shape.
    fn predict_batch(&self, store: &ParamStore, xs: &[Tensor]) -> Vec<Tensor> {
        assert!(!xs.is_empty(), "predict_batch of zero samples");
        for x in xs {
            assert!(
                x.ndim() >= 1 && x.shape()[0] == 1,
                "predict_batch samples must have a leading batch axis of 1, got {:?}",
                x.shape()
            );
            assert_eq!(x.shape(), xs[0].shape(), "predict_batch shape mismatch");
        }
        let packed = Tensor::concat(&xs.iter().collect::<Vec<_>>(), 0);
        let full = self.predict(store, &packed);
        (0..xs.len()).map(|i| full.narrow(0, i, 1)).collect()
    }

    /// The input-derived tensors the model's eval forward feeds into its
    /// tape as non-parameter, non-constant leaves, in the order the forward
    /// creates them. Plan compilation byte-matches trace leaves against
    /// these; plan execution binds them as the plan's variable inputs.
    ///
    /// The default covers models whose only variable leaf is (a reshape of)
    /// the raw input. Models that derive extra input-dependent leaves
    /// outside the tape (e.g. NLinear's last-value offset, DLinear's
    /// moving-average decomposition) must override this to list every such
    /// tensor; otherwise [`Model::compile_plan`] fails cleanly with
    /// [`PlanError::PreludeMismatch`] and callers stay on the tape path.
    fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
        vec![x.clone()]
    }

    /// Compiles the eval forward for samples of shape `x_shape[1..]` into a
    /// [`CompiledPlan`] that runs at every batch size.
    ///
    /// The batch is a pure leading axis, so `x_shape[0]` does not matter:
    /// `[1, C, L]` and `[8, C, L]` give the same plan. The forward is traced
    /// on random probes at batches 1 and 2; the two tapes must agree
    /// structurally, every dimension must be fixed or proportional to the
    /// batch, and op payloads must be either constant across the traces or
    /// declared in [`Model::plan_prelude`] (the rules are in
    /// `msd_autograd::plan`). The compiled plan is then executed on both
    /// probes *plus a fresh probe at batch 3* and byte-compared against
    /// [`Model::predict`]. Batch 3 is never traced, so it tests the scaling
    /// rule itself — a plan that compiles is already proven bit-identical
    /// at three batch sizes before the caller ever uses it. Any failure
    /// returns a typed [`PlanError`]; no error path can yield a plan with
    /// wrong numerics.
    ///
    /// The plan owns the store's precision tier: for an int8-tier store the
    /// verified f32 plan is then lowered onto the int8 kernels
    /// ([`CompiledPlan::lower_int8`]), so its answers are the int8 tier's,
    /// not `predict`'s.
    fn compile_plan(
        &self,
        store: &ParamStore,
        x_shape: &[usize],
    ) -> Result<CompiledPlan, PlanError> {
        let Some((_, sample)) = x_shape.split_first() else {
            return Err(PlanError::NotBatchAffine("input shape has no batch axis".into()));
        };
        let probe = |batch: usize, seed: u64| {
            let shape: Vec<usize> = std::iter::once(batch).chain(sample.iter().copied()).collect();
            Tensor::randn(&shape, 1.0, &mut Rng::seed_from(seed))
        };
        let (xa, xb) = (probe(1, 0x51AB), probe(2, 0x51AC));
        let ga = Graph::eval();
        let oa = eval_forward(self, &ga, store, &xa);
        let gb = Graph::eval();
        let ob = eval_forward(self, &gb, store, &xb);
        let mut plan = CompiledPlan::from_traces(
            &ga,
            oa,
            &gb,
            ob,
            &self.plan_prelude(&xa),
            &self.plan_prelude(&xb),
        )?;
        // Probe-verify at batches 1, 2 and 3. The batch-3 probe's fresh
        // data also guards against a leaf that was coincidentally
        // byte-equal across the two traces being taken for a constant.
        let mut arena = PlanArena::new();
        for x in [xa, xb, probe(3, 0x51AD)] {
            let want = self.predict(store, &x);
            let got = plan.execute(store, &self.plan_prelude(&x), &mut arena);
            if want.shape() != got.shape()
                || want
                    .data()
                    .iter()
                    .zip(got.data())
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(PlanError::Verification(format!(
                    "plan output differs from tape predict at batch {}",
                    x.shape()[0]
                )));
            }
        }
        if store.tier() == PrecisionTier::Int8 {
            plan.lower_int8(store);
        }
        Ok(plan)
    }

    /// Runs a plan compiled by [`Model::compile_plan`] on `x`, at whatever
    /// batch `x` carries. For f32 and f16 stores it is bit-identical to
    /// [`Model::predict`].
    fn predict_plan(
        &self,
        plan: &CompiledPlan,
        store: &ParamStore,
        x: &Tensor,
        arena: &mut PlanArena,
    ) -> Tensor {
        plan.execute(store, &self.plan_prelude(x), arena)
    }
}

/// Boxed model for heterogeneous collections (harness registry, serving).
pub type DynModel = Box<dyn Model + Send + Sync>;

impl Model for DynModel {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn task(&self) -> &Task {
        (**self).task()
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        (**self).forward(ctx, x)
    }
    fn loss(&self, ctx: &Ctx, out: &ModelOutput, target: &Target) -> Var {
        (**self).loss(ctx, out, target)
    }
    fn plan_prelude(&self, x: &Tensor) -> Vec<Tensor> {
        (**self).plan_prelude(x)
    }
    fn compile_plan(
        &self,
        store: &ParamStore,
        x_shape: &[usize],
    ) -> Result<CompiledPlan, PlanError> {
        (**self).compile_plan(store, x_shape)
    }
}

/// One deterministic eval forward: fixed RNG (eval tapes never sample from
/// it — dropout/droppath are identity), fresh leaf cache.
fn eval_forward<M: Model + ?Sized>(
    model: &M,
    g: &Graph,
    store: &ParamStore,
    x: &Tensor,
) -> Var {
    let mut rng = Rng::seed_from(0);
    let ctx = Ctx::new(g, store, &mut rng);
    model.forward(&ctx, x).pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;

    /// A minimal Model: one linear layer over the flattened input.
    struct Toy {
        task: Task,
        lin: Linear,
        in_len: usize,
    }

    impl Toy {
        fn new(store: &mut ParamStore) -> Self {
            let mut rng = Rng::seed_from(7);
            let lin = Linear::new(store, &mut rng, "toy", 6, 4);
            Self {
                task: Task::Forecast { horizon: 2 },
                lin,
                in_len: 6,
            }
        }
    }

    impl Model for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn task(&self) -> &Task {
            &self.task
        }
        fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
            let b = x.shape()[0];
            let v = ctx.g.input(x.reshape(&[b, self.in_len]));
            let y = self.lin.forward(ctx, v);
            ModelOutput::pred_only(ctx.g.reshape(y, &[b, 2, 2]))
        }
    }

    fn sample(seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        Tensor::randn(&[1, 2, 3], 1.0, &mut rng)
    }

    #[test]
    fn predict_batch_is_bit_identical_to_sequential() {
        let mut store = ParamStore::new();
        let toy = Toy::new(&mut store);
        let xs: Vec<Tensor> = (0..5).map(|i| sample(100 + i)).collect();
        let batched = toy.predict_batch(&store, &xs);
        for (x, b) in xs.iter().zip(&batched) {
            let seq = toy.predict(&store, x);
            assert_eq!(seq.shape(), b.shape());
            assert_eq!(seq.data(), b.data(), "batched != sequential bits");
        }
    }

    #[test]
    fn default_loss_dispatches_on_task() {
        let mut store = ParamStore::new();
        let toy = Toy::new(&mut store);
        let g = Graph::new();
        let mut rng = Rng::seed_from(9);
        let ctx = Ctx::new(&g, &store, &mut rng);
        let x = sample(400);
        let out = toy.forward(&ctx, &x);
        let y = Tensor::zeros(&[1, 2, 2]);
        let loss = toy.loss(&ctx, &out, &Target::Series(y));
        assert!(g.value(loss).item().is_finite());
    }

    #[test]
    fn mismatched_target_panics() {
        let mut store = ParamStore::new();
        let toy = Toy::new(&mut store);
        let g = Graph::new();
        let mut rng = Rng::seed_from(10);
        let ctx = Ctx::new(&g, &store, &mut rng);
        let out = toy.forward(&ctx, &sample(500));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            toy.loss(&ctx, &out, &Target::Labels(vec![0]))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn compiled_plan_is_bit_identical_to_predict() {
        let mut store = ParamStore::new();
        let toy = Toy::new(&mut store);
        // The batch named at compile time does not matter: one plan serves
        // every batch.
        let plan = toy.compile_plan(&store, &[3, 2, 3]).expect("toy must compile");
        let mut arena = PlanArena::new();
        for (i, batch) in [3, 1, 5, 2].into_iter().enumerate() {
            let mut rng = Rng::seed_from(600 + i as u64);
            let x = Tensor::randn(&[batch, 2, 3], 1.0, &mut rng);
            let want = toy.predict(&store, &x);
            let got = toy.predict_plan(&plan, &store, &x, &mut arena);
            assert_eq!(want.shape(), got.shape());
            assert_eq!(want.data(), got.data(), "plan != tape bits");
        }
    }

    #[test]
    fn compile_plan_survives_param_updates_without_recompile() {
        let mut store = ParamStore::new();
        let toy = Toy::new(&mut store);
        let plan = toy.compile_plan(&store, &[1, 2, 3]).unwrap();
        // Mutate a parameter in place (what an optimiser step does).
        store.get_mut(0).data_mut()[0] += 1.5;
        let x = sample(700);
        let mut arena = PlanArena::new();
        assert_eq!(
            toy.predict(&store, &x).data(),
            toy.predict_plan(&plan, &store, &x, &mut arena).data(),
            "plan must read live parameter values"
        );
    }

    #[test]
    #[should_panic(expected = "predict_batch shape mismatch")]
    fn predict_batch_rejects_mixed_shapes() {
        let mut store = ParamStore::new();
        let toy = Toy::new(&mut store);
        let a = Tensor::zeros(&[1, 2, 3]);
        let b = Tensor::zeros(&[1, 3, 2]);
        let _ = toy.predict_batch(&store, &[a, b]);
    }
}

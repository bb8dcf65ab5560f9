//! Compiled-plan execution knobs: by default the workers serve single-sample
//! traffic through a [`CompiledPlan`], one per sample shape for every batch
//! size; `ServeConfig::use_plans = false` falls back to the tape. For an
//! f32 store the responses must be bit-identical to sequential
//! `Model::predict` either way — the knob may only move the `plan_batches`
//! counter. An int8-tier store has no tape fallback: it is refused with the
//! knob off, and a batch whose plan cannot compile fails with a typed error
//! instead of an f32 answer. Workers evaluate on the kernel tier of the
//! thread that started the server.
//!
//! [`CompiledPlan`]: msd_autograd::CompiledPlan

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use msd_autograd::{CompiledPlan, PlanArena, PlanError};
use msd_nn::{
    ArtifactReader, ArtifactWriter, Ctx, Linear, Model, ModelOutput, ParamStore, PrecisionTier,
    Task,
};
use msd_serve::loadgen::sequential_baseline;
use msd_serve::{ServeConfig, ServeError, ServeStats, Server};
use msd_tensor::ops::kernels::{self, with_tier, Tier};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// A linear forecaster over the flattened input (plan-compilable: reshape
/// alias + one linear step).
struct Affine {
    task: Task,
    lin: Linear,
    out_channels: usize,
    in_len: usize,
}

impl Affine {
    fn new(store: &mut ParamStore, channels: usize, len: usize) -> Self {
        let mut rng = Rng::seed_from(5);
        Affine {
            task: Task::Forecast { horizon: 4 },
            lin: Linear::new(store, &mut rng, "affine", channels * len, channels * 4),
            out_channels: channels,
            in_len: channels * len,
        }
    }
}

impl Model for Affine {
    fn name(&self) -> &str {
        "affine"
    }
    fn task(&self) -> &Task {
        &self.task
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        let b = x.shape()[0];
        let v = ctx.g.input(x.reshape(&[b, self.in_len]));
        let y = self.lin.forward(ctx, v);
        ModelOutput::pred_only(ctx.g.reshape(y, &[b, self.out_channels, 4]))
    }
}

/// [`Affine`] behind an input leaf the plan prelude does not declare, so
/// `compile_plan` always fails and serving must take the tape (or, at
/// int8, fail).
struct Unplannable(Affine);

impl Model for Unplannable {
    fn name(&self) -> &str {
        "unplannable"
    }
    fn task(&self) -> &Task {
        &self.0.task
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        self.0.forward(ctx, &x.map(|v| 2.0 * v))
    }
}

/// [`Affine`] over its batch with a constant row stacked on (`[b + 1, ..]`)
/// and cut off again: every sample is still answered on its own, but no
/// plan can scale the `b + 1` rows, so serving takes the tape.
struct RowPadded(Affine);

impl Model for RowPadded {
    fn name(&self) -> &str {
        "row-padded"
    }
    fn task(&self) -> &Task {
        &self.0.task
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        let a = &self.0;
        let b = x.shape()[0];
        let v = ctx.g.input(x.reshape(&[b, a.in_len]));
        let row = ctx.g.input(Tensor::zeros(&[1, a.in_len]));
        let y = a.lin.forward(ctx, ctx.g.concat(&[v, row], 0));
        let y = ctx.g.narrow(y, 0, 0, b);
        ModelOutput::pred_only(ctx.g.reshape(y, &[b, a.out_channels, 4]))
    }
}

/// [`Affine`] counting its `compile_plan` calls.
struct Counted(Affine, Arc<AtomicUsize>);

impl Model for Counted {
    fn name(&self) -> &str {
        "counted"
    }
    fn task(&self) -> &Task {
        &self.0.task
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        self.0.forward(ctx, x)
    }
    fn compile_plan(
        &self,
        store: &ParamStore,
        x_shape: &[usize],
    ) -> Result<CompiledPlan, PlanError> {
        self.1.fetch_add(1, Ordering::SeqCst);
        self.0.compile_plan(store, x_shape)
    }
}

/// [`Affine`] recording the kernel tier of every forward it runs.
struct TierProbe(Affine, Arc<Mutex<Vec<Tier>>>);

impl Model for TierProbe {
    fn name(&self) -> &str {
        "tier-probe"
    }
    fn task(&self) -> &Task {
        &self.0.task
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        self.1.lock().unwrap().push(kernels::tier());
        self.0.forward(ctx, x)
    }
}

fn affine(store: &mut ParamStore) -> Affine {
    Affine::new(store, 2, 6)
}

fn unplannable(store: &mut ParamStore) -> Unplannable {
    Unplannable(affine(store))
}

/// `build`'s model with its fresh weights, round-tripped through an int8
/// artifact when `int8` is set.
fn built<M>(build: fn(&mut ParamStore) -> M, int8: bool) -> (M, ParamStore) {
    let mut store = ParamStore::new();
    let model = build(&mut store);
    if int8 {
        let bytes = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&store)
            .unwrap();
        ArtifactReader::decode(&bytes)
            .and_then(|r| r.load_into(&mut store))
            .unwrap();
        assert_eq!(store.tier(), PrecisionTier::Int8);
    }
    (model, store)
}

fn inputs(n: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let mut rng = Rng::seed_from(300 + i);
            Tensor::randn(&[1, 2, 6], 1.0, &mut rng)
        })
        .collect()
}

fn plan_cfg(use_plans: bool) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(500),
        workers: 2,
        use_plans,
        ..ServeConfig::default()
    }
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

/// Serve `inputs` through a fresh server, assert bit-identity against
/// `reference`, and return the final stats snapshot.
fn serve_and_check(
    (model, store): (impl Model + Send + Sync + 'static, ParamStore),
    use_plans: bool,
    inputs: &[Tensor],
    reference: &[Tensor],
    what: &str,
) -> ServeStats {
    let server = Server::start(model, store, plan_cfg(use_plans)).unwrap();
    let pending: Vec<_> = inputs
        .iter()
        .map(|x| server.submit(x.clone()).expect("queue has room"))
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let y = p.wait().expect("request must succeed");
        assert_bits_equal(&y, &reference[i], &format!("{what} req {i}"));
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, inputs.len() as u64, "{what}: completed");
    assert_eq!(stats.failed + stats.rejected, 0, "{what}: failures");
    stats
}

#[test]
fn plan_mode_knobs_only_move_the_plan_batches_counter() {
    let (model, store) = built(affine, false);
    let inputs = inputs(48);
    let (reference, _) = sequential_baseline(&model, &store, &inputs);

    // Default: every batch is single-sample-packable, the model compiles, so
    // every batch must run through the plan path.
    let stats = serve_and_check(built(affine, false), true, &inputs, &reference, "plans-on");
    assert_eq!(
        stats.plan_batches, stats.batches,
        "uniform [1, C, L] traffic through a compilable model must plan every batch"
    );
    assert!(stats.plan_batches > 0);

    // The config knob alone forces the tape fallback.
    let stats = serve_and_check(built(affine, false), false, &inputs, &reference, "knob-off");
    assert_eq!(stats.plan_batches, 0, "use_plans=false must never plan");
}

#[test]
fn int8_store_is_served_only_through_its_lowered_plan() {
    // The tape cannot answer at int8, so a tape-only config is refused.
    let (model, store) = built(affine, true);
    match Server::start(model, store, plan_cfg(false)) {
        Ok(_) => panic!("an int8-tier store with use_plans=false must be refused"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
    }

    // With plans on, every batch runs the plan `compile_plan` lowered.
    let (model, store) = built(affine, true);
    let plan = model.compile_plan(&store, &[1, 2, 6]).unwrap();
    assert!(plan.int8_steps() > 0, "affine must lower to int8");
    let inputs = inputs(24);
    let mut arena = PlanArena::new();
    let reference: Vec<Tensor> = inputs
        .iter()
        .map(|x| model.predict_plan(&plan, &store, x, &mut arena))
        .collect();
    let stats = serve_and_check((model, store), true, &inputs, &reference, "int8");
    assert_eq!(
        stats.plan_batches, stats.batches,
        "int8 must plan every batch"
    );
}

#[test]
fn int8_batch_without_a_plan_fails_typed_instead_of_answering_from_the_tape() {
    let inputs = inputs(8);

    // At f32 the same model serves from the tape, bit-identical to predict.
    let (model, store) = built(unplannable, false);
    let (reference, _) = sequential_baseline(&model, &store, &inputs);
    let stats = serve_and_check((model, store), true, &inputs, &reference, "f32 tape");
    assert_eq!(stats.plan_batches, 0);

    // At int8 there is no tape fallback: every request fails, typed.
    let (model, store) = built(unplannable, true);
    let server = Server::start(model, store, plan_cfg(true)).unwrap();
    for x in &inputs {
        match server.infer(x.clone()) {
            Err(ServeError::Internal(msg)) => assert!(msg.contains("int8"), "{msg}"),
            other => panic!("int8 batch without a plan must fail typed, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.failed, inputs.len() as u64);
    assert_eq!(stats.completed, 0);
}

#[test]
fn one_compile_serves_every_batch_size() {
    let compiles = Arc::new(AtomicUsize::new(0));
    let mut store = ParamStore::new();
    let model = Counted(affine(&mut store), Arc::clone(&compiles));
    let inputs = inputs(4);
    let (reference, _) = sequential_baseline(&model, &store, &inputs);
    // One worker and a window far longer than a burst of submissions, so
    // round `k` is answered as exactly one batch of `k`.
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(250),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(model, store, cfg).unwrap();
    for k in 1..=4 {
        let pending: Vec<_> = inputs[..k]
            .iter()
            .map(|x| server.submit(x.clone()).expect("queue has room"))
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let y = p.wait().expect("request must succeed");
            assert_bits_equal(&y, &reference[i], &format!("batch {k} req {i}"));
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.batches, 4, "one batch of each size 1..=4: {stats:?}");
    assert_eq!(stats.plan_batches, stats.batches, "every batch planned");
    assert_eq!(
        compiles.load(Ordering::SeqCst),
        1,
        "one compile for every batch size"
    );
}

#[test]
fn a_model_no_plan_can_scale_is_answered_through_the_tape() {
    let mut store = ParamStore::new();
    let model = RowPadded(affine(&mut store));
    match model.compile_plan(&store, &[1, 2, 6]) {
        Err(PlanError::NotBatchAffine(m)) => assert!(m.contains("Concat"), "{m}"),
        Err(e) => panic!("expected NotBatchAffine, got {e}"),
        Ok(_) => panic!("a [b + 1, ..] forward must not compile"),
    }
    let inputs = inputs(24);
    let (reference, _) = sequential_baseline(&model, &store, &inputs);
    let stats = serve_and_check((model, store), true, &inputs, &reference, "row-padded");
    assert_eq!(
        stats.plan_batches, 0,
        "no plan, so every batch takes the tape"
    );
    assert!(stats.mean_batch > 1.0, "batches still form: {stats:?}");
}

#[test]
fn workers_run_on_the_tier_of_the_thread_that_started_the_server() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut store = ParamStore::new();
    let model = TierProbe(affine(&mut store), Arc::clone(&seen));
    // A scope tier unlike the process tier (they coincide only on a
    // scalar-only host), so workers left on the process tier would show.
    let other = if kernels::tier() == Tier::Scalar {
        kernels::detected_tier()
    } else {
        Tier::Scalar
    };
    // Tape mode: every batch runs the forward on a worker.
    let server = with_tier(other, || {
        Server::start(model, store, plan_cfg(false)).unwrap()
    });
    for x in inputs(6) {
        server.infer(x).expect("request must succeed");
    }
    assert_eq!(server.shutdown().completed, 6);
    let seen = seen.lock().unwrap();
    assert!(!seen.is_empty(), "no forward ran");
    assert!(
        seen.iter().all(|&t| t == other),
        "want {other:?}, worker tiers: {seen:?}"
    );
}

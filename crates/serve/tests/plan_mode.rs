//! Compiled-plan execution knobs: by default the workers serve single-sample
//! traffic through a [`CompiledPlan`]; `ServeConfig::use_plans = false`
//! falls back to the tape. For an f32 store the responses must be
//! bit-identical to sequential `Model::predict` either way — the knob may
//! only move the `plan_batches` counter. An int8-tier store has no tape
//! fallback: it is refused with the knob off, and a batch whose plan cannot
//! compile fails with a typed error instead of an f32 answer.

use std::time::Duration;

use msd_autograd::PlanArena;
use msd_nn::{
    ArtifactReader, ArtifactWriter, Ctx, Linear, Model, ModelOutput, ParamStore, PrecisionTier,
    Task,
};
use msd_serve::loadgen::sequential_baseline;
use msd_serve::{ServeConfig, ServeError, ServeStats, Server};
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

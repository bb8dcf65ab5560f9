//! The training step, traced: `msd_harness::fit` on MSD-Mixer and the
//! ETTh1-like split of `serve_mixer` (256 training and 96 validation
//! windows, batches of 32, Adam at the model's default learning rate, a
//! fixed epoch count, no early stopping, telemetry or checkpoints), then
//! `fit`'s loop run again through public calls with a span around each
//! part. The only code here that runs the tape, backward, the optimiser
//! and per-step allocation churn. It reports the training-step layers in
//! `serve_mixer`'s traced run and has no gated workload of its own: on the
//! shared 2-vCPU guest the benchmark was sized on, training steps ran in a
//! slower (75–80 ms) and a faster (50–60 ms) state for stretches of
//! seconds, with no steal counted, and the share of each changed between
//! runs, so no figure of training speed held within its bound.

use std::cell::RefCell;
use std::time::Instant;

use msd_autograd::Graph;
use msd_data::{Batcher, SlidingWindows, Split};
use msd_harness::{
    fit, validation_loss, BatchSource, FitReport, ForecastSource, ModelSpec, TrainConfig,
};
use msd_mixer::variants::Variant;
use msd_nn::{Adam, AdamConfig, Ctx, Optimizer, Target};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

use crate::probe::SpanLog;
use crate::serve_mixer::{mixer, series, HORIZON, INPUT_LEN};
use crate::stats::median;
use crate::{derive, Outcome};

const TRAIN_WINDOWS: usize = 256;
const VAL_WINDOWS: usize = 96;
const BATCH: usize = 32;
/// The quickstart's epoch count.
const EPOCHS: usize = 5;

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        lr: ModelSpec::MsdMixer(Variant::Full).default_lr(),
        // Never stop early: every fit runs the same number of steps.
        patience: usize::MAX,
        seed: derive(seed, 3),
        ..TrainConfig::default()
    }
}

/// A batch source that notes the instant of every `batch` call. One step of
/// `fit` runs from one training batch to the next batch of either source,
/// so the stamps time each step without entering `fit`.
struct Stamped<'a> {
    inner: ForecastSource<'a>,
    calls: RefCell<Vec<Instant>>,
}

impl<'a> Stamped<'a> {
    fn new(inner: ForecastSource<'a>) -> Self {
        Self {
            inner,
            calls: RefCell::new(Vec::with_capacity(256)),
        }
    }
}

impl BatchSource for Stamped<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        self.calls.borrow_mut().push(Instant::now());
        self.inner.batch(indices)
    }
}

/// µs of every training step: from a training batch call to the next call
/// on either source (every epoch ends with a validation pass).
fn step_us(train: &Stamped, val: &Stamped) -> Vec<f64> {
    let mut all: Vec<(Instant, bool)> = train.calls.borrow().iter().map(|&t| (t, true)).collect();
    all.extend(val.calls.borrow().iter().map(|&t| (t, false)));
    all.sort_by_key(|&(t, _)| t);
    all.windows(2)
        .filter(|w| w[0].1)
        .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e6)
        .collect()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// One untimed set-up (dataset and model) and one timed `fit`.
struct Fit {
    fit_s: f64,
    report: FitReport,
    steps_us: Vec<f64>,
}

fn one_fit(seed: u64) -> Fit {
    let data = series(seed);
    let train = Stamped::new(ForecastSource::new(
        SlidingWindows::new(&data, INPUT_LEN, HORIZON, Split::Train),
        TRAIN_WINDOWS,
    ));
    let val = Stamped::new(ForecastSource::new(
        SlidingWindows::new(&data, INPUT_LEN, HORIZON, Split::Val),
        VAL_WINDOWS,
    ));
    let (model, mut store) = mixer(seed);
    let t0 = Instant::now();
    let report = fit(&model, &mut store, &train, Some(&val), &config(seed));
    Fit {
        fit_s: t0.elapsed().as_secs_f64(),
        report,
        steps_us: step_us(&train, &val),
    }
}

/// The `fit`-level checks: every batch applied, every loss finite, and the
/// last epoch's loss below the first.
fn check_fit(f: &Fit, out: &mut Outcome) {
    let r = &f.report;
    out.check(r.aborted.is_none(), || {
        format!("fit aborted: {:?}", r.aborted)
    });
    out.check(r.epochs_run == EPOCHS, || {
        format!("fit ran {} of {EPOCHS} epochs", r.epochs_run)
    });
    let finite = r
        .train_losses
        .iter()
        .chain(&r.val_losses)
        .all(|l| l.is_finite());
    out.check(finite, || {
        format!("non-finite loss: {:?} / {:?}", r.train_losses, r.val_losses)
    });
    let (first, last) = (r.train_losses[0], r.train_losses[EPOCHS - 1]);
    out.check(last < first, || {
        format!("training made no progress: {first} → {last}")
    });
}

/// Span names of one traced step, in call order.
const STEP_PARTS: [&str; 5] = [
    "harness.batch",
    "msd-mixer.forward_loss",
    "autograd.backward",
    "nn.optim_step",
    "nn.snapshot",
];

/// One untraced `fit`, then `fit`'s loop run again through public calls
/// with a span around each; the losses must match `fit`'s bit for bit.
/// Reports the training-step layers into `out`.
pub fn trace(seed: u64, out: &mut Outcome) {
    let reference = one_fit(seed);
    check_fit(&reference, out);

    let cfg = config(seed);
    let data = series(seed);
    let train = ForecastSource::new(
        SlidingWindows::new(&data, INPUT_LEN, HORIZON, Split::Train),
        TRAIN_WINDOWS,
    );
    let val = ForecastSource::new(
        SlidingWindows::new(&data, INPUT_LEN, HORIZON, Split::Val),
        VAL_WINDOWS,
    );
    let (model, mut store) = mixer(seed);
    let mut log = SpanLog::new();
    let mut opt = Adam::new(AdamConfig {
        lr: cfg.lr,
        ..AdamConfig::default()
    });
    let mut rng = Rng::seed_from(cfg.seed);
    let (mut train_losses, mut val_losses) = (Vec::new(), Vec::new());
    let mut best_val = f32::INFINITY;
    let mut step = 0u64;
    for epoch in 0..cfg.epochs {
        opt.set_lr(cfg.schedule.lr_at(cfg.lr, epoch));
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for idx in Batcher::new(train.len(), cfg.batch_size, Some(&mut rng)) {
            let s = log.open("harness.step", step, None);
            let (x, target) = log.record(STEP_PARTS[0], step, Some(s), || train.batch(&idx));
            let g = Graph::new();
            let (_, loss) = {
                let ctx = Ctx::new(&g, &store, &mut rng);
                log.record(STEP_PARTS[1], step, Some(s), || {
                    model.forward_loss(&ctx, &x, &target)
                })
            };
            let loss_val = g.value(loss).item();
            let grads = log.record(STEP_PARTS[2], step, Some(s), || g.backward(loss));
            let outcome = log.record(STEP_PARTS[3], step, Some(s), || {
                opt.step(&mut store, &grads)
            });
            out.check(outcome.applied, || {
                format!("optimiser rejected step {step}")
            });
            epoch_loss += loss_val as f64;
            batches += 1;
            // `fit` snapshots the rollback target after every applied batch.
            let _last_good = log.record(STEP_PARTS[4], step, Some(s), || store.snapshot());
            log.close(s);
            step += 1;
        }
        train_losses.push((epoch_loss / batches as f64) as f32);
        let vloss = log.record("harness.val", epoch as u64, None, || {
            validation_loss(&model, &store, &val, cfg.batch_size)
        });
        val_losses.push(vloss);
        if vloss < best_val {
            best_val = vloss;
            let _best = store.snapshot();
        }
    }
    let r = &reference.report;
    let same = same_bits(&train_losses, &r.train_losses) && same_bits(&val_losses, &r.val_losses);
    out.check(same, || {
        format!(
            "traced losses {train_losses:?} / {val_losses:?} differ from fit's {:?} / {:?}",
            r.train_losses, r.val_losses
        )
    });
    out.notes.push(format!(
        "traced step reproduces fit's losses bit for bit: {same} ({train_losses:?})"
    ));

    let m = &mut out.metrics;
    let mut parts_ms = 0.0;
    for (name, ms, allocs, mb, faults) in [
        (
            "harness.batch",
            "harness.batch_ms",
            "harness.batch_allocs",
            "harness.batch_alloc_mb",
            "harness.batch_faults",
        ),
        (
            "msd-mixer.forward_loss",
            "msd-mixer.forward_loss_ms",
            "msd-mixer.forward_loss_allocs",
            "msd-mixer.forward_loss_alloc_mb",
            "msd-mixer.forward_loss_faults",
        ),
        (
            "autograd.backward",
            "autograd.backward_ms",
            "autograd.backward_allocs",
            "autograd.backward_alloc_mb",
            "autograd.backward_faults",
        ),
        (
            "nn.optim_step",
            "nn.optim_step_ms",
            "nn.optim_step_allocs",
            "nn.optim_step_alloc_mb",
            "nn.optim_step_faults",
        ),
        (
            "nn.snapshot",
            "nn.snapshot_ms",
            "nn.snapshot_allocs",
            "nn.snapshot_alloc_mb",
            "nn.snapshot_faults",
        ),
        (
            "harness.val",
            "harness.val_ms",
            "harness.val_allocs",
            "harness.val_alloc_mb",
            "harness.val_faults",
        ),
    ] {
        let spans: Vec<_> = log.named(name).collect();
        let of = |f: fn(&crate::probe::Span) -> f64| {
            median(&spans.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        let part_ms = of(|s| (s.end_ns - s.start_ns) as f64 / 1e6);
        if name != "harness.val" {
            parts_ms += part_ms;
        }
        m.set(ms, part_ms);
        m.set(allocs, of(|s| s.allocs as f64));
        m.set(mb, of(|s| s.bytes as f64 / 1e6));
        m.set(faults, of(|s| s.minor_faults as f64));
    }
    let step_spans: Vec<_> = log.named("harness.step").collect();
    let step_ms = median(
        &step_spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let step_allocs = median(
        &step_spans
            .iter()
            .map(|s| s.allocs as f64)
            .collect::<Vec<_>>(),
    );
    let fit_step_ms = reference.fit_s * 1e3 / reference.steps_us.len() as f64;
    m.set("harness.step_ms", step_ms);
    m.set("harness.fit_self_ms", fit_step_ms - step_ms);
    let untraced_ms = median(&reference.steps_us) / 1e3;
    out.notes
        .push(format!("allocations per traced step: {step_allocs}"));
    out.notes.push(format!(
        "tracing overhead: traced step p50 {step_ms:.2} ms − untraced step p50 {untraced_ms:.2} ms = {:.2} ms; \
         fit wall per step {fit_step_ms:.2} ms",
        step_ms - untraced_ms
    ));
    out.notes.push(format!(
        "coverage: step parts sum to {parts_ms:.2} ms = {:.1}% of the traced step p50",
        100.0 * parts_ms / step_ms
    ));
    match log.write("train_step") {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

//! The training driver: mini-batch epochs, validation-based early stopping
//! with best-checkpoint restore, divergence recovery, and evaluation
//! helpers.
//!
//! ## Divergence recovery
//!
//! A batch whose loss or gradients are non-finite is never applied (the
//! optimiser rejects poisoned gradients outright). Instead the driver rolls
//! parameters back to the last good snapshot, resets the optimiser's moment
//! state, and backs the learning rate off by [`TrainConfig::lr_backoff`].
//! After [`TrainConfig::max_retries`] *consecutive* failures the run aborts
//! cleanly with a diagnostic in [`FitReport::aborted`] rather than looping
//! on garbage. Every action is recorded by a [`TrainMonitor`]
//! (JSONL to [`TrainConfig::telemetry`], counters in
//! [`FitReport::telemetry`]); with telemetry disabled the driver's numerics
//! are unchanged.

use crate::checkpoint::{Fingerprint, TrainCheckpoint, TrainerState};
use crate::telemetry::{TrainEvent, TrainMonitor};
use crate::{AnyModel, BatchSource};
use msd_autograd::Graph;
use msd_mixer::Target;
use msd_nn::checkpoint::CheckpointDir;
use msd_nn::{Adam, AdamConfig, Ctx, LrSchedule, Optimizer, ParamStore};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;
use std::path::PathBuf;
use std::time::Instant;

/// Training hyperparameters.
///
/// A plain value: nothing reads the environment to fill it. A binary's
/// `main` builds one base config (from its flags) and each experiment
/// runner derives its fits' configs from that base by struct update.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Early-stopping patience in epochs (validation loss).
    pub patience: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// RNG seed (shuffling, dropout).
    pub seed: u64,
    /// Consecutive non-finite batches tolerated before the run aborts
    /// (default 4).
    pub max_retries: usize,
    /// Learning-rate multiplier applied on each divergence rollback
    /// (default 0.5).
    pub lr_backoff: f32,
    /// Take the rollback snapshot every N applied batches (default 1:
    /// after every good batch; raise to trade recovery granularity for
    /// less cloning on very large models).
    pub snapshot_every: usize,
    /// Directory for durable crash-safe checkpoints (`None` disables them
    /// entirely — and changes no numerics).
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a durable checkpoint every N applied batches (default 8).
    /// Only meaningful with [`TrainConfig::checkpoint_dir`] set.
    pub checkpoint_every: usize,
    /// Rotated checkpoint generations kept besides the latest (default 2).
    pub checkpoint_keep: usize,
    /// Resume from the newest valid checkpoint in
    /// [`TrainConfig::checkpoint_dir`] before training. When no compatible
    /// checkpoint exists the run starts fresh with a warning on stderr.
    pub resume: bool,
    /// Fault injection: end the process's training loop abruptly after N
    /// applied batches, exactly as `kill -9` would — no best-checkpoint
    /// restore, no cleanup. Tests use this to exercise the resume path
    /// deterministically.
    pub kill_after_batches: Option<usize>,
    /// JSONL telemetry log that [`fit`] appends the run's
    /// [`TrainEvent`]s to (`None`, the default, logs nothing; the summary
    /// counters are kept either way). [`fit_monitored`] ignores it: its
    /// caller supplies the monitor.
    pub telemetry: Option<PathBuf>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 32,
            lr: 1e-3,
            patience: 3,
            schedule: LrSchedule::HalvingAfter(1),
            seed: 7,
            max_retries: 4,
            lr_backoff: 0.5,
            snapshot_every: 1,
            checkpoint_dir: None,
            checkpoint_every: 8,
            checkpoint_keep: 2,
            resume: false,
            kill_after_batches: None,
            telemetry: None,
        }
    }
}

/// What [`fit`] reports back.
#[derive(Clone, Debug)]
pub struct FitReport {
    /// Mean training loss per epoch over *applied* batches; NaN for an
    /// epoch in which every batch was dropped as non-finite (never a
    /// fabricated 0.0).
    pub train_losses: Vec<f32>,
    /// Validation loss per epoch (when a validation source was given).
    pub val_losses: Vec<f32>,
    /// Epochs actually run (≤ `epochs` with early stopping).
    pub epochs_run: usize,
    /// Batches dropped across the run because loss or gradients were
    /// non-finite.
    pub skipped_batches: usize,
    /// Divergence recoveries performed (rollback + optimiser reset + lr
    /// backoff).
    pub rollbacks: usize,
    /// `Some(diagnostic)` when divergence retries were exhausted and the
    /// run stopped early; parameters are left at the last good snapshot
    /// (or the best validation checkpoint when one exists).
    pub aborted: Option<String>,
    /// The checkpoint file this run resumed from, when
    /// [`TrainConfig::resume`] found a compatible one.
    pub resumed_from: Option<PathBuf>,
    /// Aggregated telemetry counters for the run.
    pub telemetry: crate::telemetry::TelemetrySummary,
}

/// Trains `model` on `train`, optionally early-stopping on `val`, restoring
/// the best validation checkpoint at the end. Telemetry is appended to
/// [`TrainConfig::telemetry`] when set; a path that cannot be opened warns
/// on stderr and disables the log rather than failing the run. See
/// [`fit_monitored`] to supply an explicit monitor.
pub fn fit(
    model: &AnyModel,
    store: &mut ParamStore,
    train: &dyn BatchSource,
    val: Option<&dyn BatchSource>,
    cfg: &TrainConfig,
) -> FitReport {
    let mut monitor = match &cfg.telemetry {
        Some(path) => TrainMonitor::to_path(path).unwrap_or_else(|e| {
            eprintln!(
                "[telemetry] cannot open {}: {e}; telemetry disabled",
                path.display()
            );
            TrainMonitor::disabled()
        }),
        None => TrainMonitor::disabled(),
    };
    fit_monitored(model, store, train, val, cfg, &mut monitor)
}

/// [`fit`] with a caller-supplied [`TrainMonitor`] (tests and programmatic
/// telemetry consumers); [`TrainConfig::telemetry`] is ignored.
pub fn fit_monitored(
    model: &AnyModel,
    store: &mut ParamStore,
    train: &dyn BatchSource,
    val: Option<&dyn BatchSource>,
    cfg: &TrainConfig,
    monitor: &mut TrainMonitor,
) -> FitReport {
    assert!(!train.is_empty(), "empty training source");
    assert!(cfg.snapshot_every > 0, "snapshot_every must be positive");
    assert!(
        cfg.checkpoint_every > 0,
        "checkpoint_every must be positive"
    );
    let mut opt = Adam::new(AdamConfig {
        lr: cfg.lr,
        ..AdamConfig::default()
    });
    let mut rng = Rng::seed_from(cfg.seed);
    let mut report = FitReport {
        train_losses: Vec::new(),
        val_losses: Vec::new(),
        epochs_run: 0,
        skipped_batches: 0,
        rollbacks: 0,
        aborted: None,
        resumed_from: None,
        telemetry: Default::default(),
    };
    let mut best_val = f32::INFINITY;
    let mut best_snapshot: Option<Vec<Tensor>> = None;
    let mut bad_epochs = 0usize;

    // Divergence-recovery state: the multiplicative lr backoff (sticky
    // across epochs), the rollback target, and the consecutive-failure
    // count that bounds retries.
    let mut lr_scale = 1.0f32;
    let mut last_good: Option<Vec<Tensor>> = None;
    let mut consecutive_failures = 0usize;
    let mut applied_since_snapshot = 0usize;

    // Durable checkpoint plumbing. With `checkpoint_dir: None` everything
    // below is inert and the training numerics are untouched.
    let ckpt_dir = cfg
        .checkpoint_dir
        .as_ref()
        .map(|d| CheckpointDir::new(d, cfg.checkpoint_keep));
    let fingerprint = Fingerprint {
        seed: cfg.seed,
        batch_size: cfg.batch_size as u64,
        epochs: cfg.epochs as u64,
        lr: cfg.lr,
        schedule: format!("{:?}", cfg.schedule),
        train_len: train.len() as u64,
    };
    let mut start_epoch = 0usize;
    let mut applied_total = 0usize;
    // (shuffle order, next batch, loss accumulator, applied, skipped) of
    // the partially trained epoch being resumed.
    let mut resume_point: Option<(Vec<usize>, usize, f64, usize, usize)> = None;
    if cfg.resume {
        if let Some(dir) = &ckpt_dir {
            match TrainCheckpoint::load_newest(dir) {
                Some((path, ck)) => match ck.validate(&fingerprint, store).and_then(|()| {
                    // Stage the optimiser before touching the store:
                    // `import_state` is all-or-nothing, so a bad file
                    // leaves both optimiser and parameters untouched.
                    let mut staged = Adam::new(AdamConfig {
                        lr: cfg.lr,
                        ..AdamConfig::default()
                    });
                    staged.import_state(&ck.optim)?;
                    Ok(staged)
                }) {
                    Ok(staged_opt) => {
                        opt = staged_opt;
                        let values: Vec<Tensor> =
                            ck.params.iter().map(|(_, t)| t.clone()).collect();
                        store.load_values(&values);
                        rng = Rng::from_state(ck.rng);
                        let t = &ck.trainer;
                        start_epoch = t.epoch as usize;
                        resume_point = Some((
                            t.order.iter().map(|&i| i as usize).collect(),
                            t.next_batch as usize,
                            t.epoch_loss,
                            t.epoch_batches as usize,
                            t.epoch_skipped as usize,
                        ));
                        lr_scale = t.lr_scale;
                        consecutive_failures = t.consecutive_failures as usize;
                        applied_total = t.applied_total as usize;
                        report.train_losses = t.train_losses.clone();
                        report.val_losses = t.val_losses.clone();
                        report.skipped_batches = t.skipped_batches as usize;
                        report.rollbacks = t.rollbacks as usize;
                        best_val = t.best_val;
                        bad_epochs = t.bad_epochs as usize;
                        best_snapshot = ck.best.clone();
                        // The restored parameters are by construction a good
                        // state: make them the rollback target.
                        last_good = Some(store.snapshot());
                        monitor.restore_summary(t.telemetry.clone());
                        monitor.record(&TrainEvent::Resume {
                            epoch: start_epoch,
                            batch: t.next_batch as usize,
                            path: path.display().to_string(),
                        });
                        eprintln!(
                            "[checkpoint] resumed from {} at epoch {start_epoch} batch {}",
                            path.display(),
                            t.next_batch
                        );
                        report.resumed_from = Some(path);
                    }
                    Err(e) => eprintln!(
                        "[checkpoint] {} does not belong to this run ({e}); starting fresh",
                        path.display()
                    ),
                },
                None => eprintln!(
                    "[checkpoint] no usable checkpoint under {}; starting fresh",
                    cfg.checkpoint_dir.as_ref().unwrap().display()
                ),
            }
        }
    }

    'training: for epoch in start_epoch..cfg.epochs {
        opt.set_lr(cfg.schedule.lr_at(cfg.lr, epoch) * lr_scale);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        let mut epoch_skipped = 0usize;
        let mut batch_offset = 0usize;
        let batcher = match resume_point.take() {
            Some((order, next_batch, loss, applied, skipped)) => {
                // Mid-epoch resume: reuse the checkpointed shuffle order
                // (the shuffle already consumed the RNG before the
                // checkpoint) and the partial-epoch accumulators.
                epoch_loss = loss;
                batches = applied;
                epoch_skipped = skipped;
                batch_offset = next_batch;
                msd_data::Batcher::resume(order, cfg.batch_size, next_batch)
            }
            None => msd_data::Batcher::new(train.len(), cfg.batch_size, Some(&mut rng)),
        };
        // The order is checkpointed alongside the cursor so a resumed run
        // replays exactly the batches an uninterrupted one would see.
        let epoch_order: Option<Vec<usize>> = ckpt_dir.as_ref().map(|_| batcher.order().to_vec());
        for (enum_idx, idx) in batcher.enumerate() {
            let batch_idx = batch_offset + enum_idx;
            let t0 = Instant::now();
            let (x, target) = train.batch(&idx);
            let g = Graph::new();
            let ctx = Ctx::new(&g, store, &mut rng);
            let (_, loss) = model.forward_loss(&ctx, &x, &target);
            let loss_val = g.value(loss).item();
            // A non-finite loss skips backward entirely; a finite loss with
            // non-finite gradients is rejected by the optimiser. Either way
            // `grad_norm` records what was observed.
            let mut failure_norm = f32::NAN;
            if loss_val.is_finite() {
                let grads = g.backward(loss);
                let outcome = opt.step(store, &grads);
                if outcome.applied {
                    epoch_loss += loss_val as f64;
                    batches += 1;
                    consecutive_failures = 0;
                    applied_since_snapshot += 1;
                    if applied_since_snapshot >= cfg.snapshot_every {
                        last_good = Some(store.snapshot());
                        applied_since_snapshot = 0;
                    }
                    monitor.record(&TrainEvent::BatchEnd {
                        epoch,
                        batch: batch_idx,
                        loss: loss_val,
                        grad_norm: outcome.grad_norm,
                        clip_scale: outcome.clip_scale,
                        lr: opt.lr(),
                        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    });
                    applied_total += 1;
                    if let (Some(dir), Some(order)) = (&ckpt_dir, &epoch_order) {
                        if applied_total.is_multiple_of(cfg.checkpoint_every) {
                            let ck = TrainCheckpoint {
                                fingerprint: fingerprint.clone(),
                                params: store
                                    .iter()
                                    .map(|(_, name, v)| (name.to_string(), v.clone()))
                                    .collect(),
                                optim: opt.export_state(),
                                rng: rng.state(),
                                trainer: TrainerState {
                                    epoch: epoch as u64,
                                    next_batch: (batch_idx + 1) as u64,
                                    order: order.iter().map(|&i| i as u64).collect(),
                                    epoch_loss,
                                    epoch_batches: batches as u64,
                                    epoch_skipped: epoch_skipped as u64,
                                    lr_scale,
                                    consecutive_failures: consecutive_failures as u64,
                                    applied_total: applied_total as u64,
                                    train_losses: report.train_losses.clone(),
                                    val_losses: report.val_losses.clone(),
                                    skipped_batches: report.skipped_batches as u64,
                                    rollbacks: report.rollbacks as u64,
                                    best_val,
                                    bad_epochs: bad_epochs as u64,
                                    telemetry: monitor.summary().clone(),
                                },
                                best: best_snapshot.clone(),
                            };
                            match ck.save(dir) {
                                Ok(()) => monitor.record(&TrainEvent::Snapshot {
                                    epoch,
                                    kind: "durable",
                                }),
                                Err(e) => {
                                    eprintln!("[checkpoint] write failed: {e} (training continues)")
                                }
                            }
                        }
                    }
                    if let Some(kill) = cfg.kill_after_batches {
                        if applied_total >= kill {
                            // Simulated `kill -9`: return mid-epoch with no
                            // best-checkpoint restore and no epoch
                            // bookkeeping — the state a real crash leaves
                            // behind, minus the durable checkpoints.
                            report.aborted = Some(format!(
                                "fault injection: killed after {applied_total} applied batches"
                            ));
                            report.skipped_batches += epoch_skipped;
                            report.epochs_run = epoch + 1;
                            monitor.flush();
                            report.telemetry = monitor.summary().clone();
                            return report;
                        }
                    }
                    continue;
                }
                failure_norm = outcome.grad_norm;
            }

            // Non-finite loss or gradients: recover or abort.
            epoch_skipped += 1;
            consecutive_failures += 1;
            monitor.record(&TrainEvent::NonFinite {
                epoch,
                batch: batch_idx,
                loss: loss_val,
                grad_norm: failure_norm,
            });
            if consecutive_failures > cfg.max_retries {
                let reason = format!(
                    "divergence retries exhausted: {consecutive_failures} consecutive \
                     non-finite batches at epoch {epoch} batch {batch_idx} \
                     (loss {loss_val}, grad norm {failure_norm}, lr {})",
                    opt.lr()
                );
                monitor.record(&TrainEvent::Abort {
                    epoch,
                    batch: batch_idx,
                    reason: reason.clone(),
                });
                eprintln!("[train] aborting: {reason}");
                if let Some(snap) = &last_good {
                    store.load_values(snap);
                    monitor.record(&TrainEvent::Restore {
                        epoch,
                        kind: "good-state",
                    });
                }
                report.skipped_batches += epoch_skipped;
                report.aborted = Some(reason);
                report.epochs_run = epoch + 1;
                break 'training;
            }
            // Roll back to the last good parameters, drop poisoned moment
            // state, and back the learning rate off for the rest of the run.
            if let Some(snap) = &last_good {
                store.load_values(snap);
                monitor.record(&TrainEvent::Restore {
                    epoch,
                    kind: "good-state",
                });
            }
            opt.reset_state();
            lr_scale *= cfg.lr_backoff;
            let new_lr = cfg.schedule.lr_at(cfg.lr, epoch) * lr_scale;
            opt.set_lr(new_lr);
            report.rollbacks += 1;
            monitor.record(&TrainEvent::Rollback {
                epoch,
                batch: batch_idx,
                new_lr,
                retries_left: cfg.max_retries - consecutive_failures,
            });
        }
        // Mean loss over applied batches only — and honestly NaN (with a
        // stderr warning) when every batch was dropped, instead of the old
        // silent 0.0.
        let epoch_mean = if batches > 0 {
            (epoch_loss / batches as f64) as f32
        } else {
            eprintln!(
                "[train] epoch {epoch}: every batch was non-finite (skipped {epoch_skipped})"
            );
            f32::NAN
        };
        report.train_losses.push(epoch_mean);
        report.skipped_batches += epoch_skipped;
        report.epochs_run = epoch + 1;

        let mut epoch_val = None;
        if let Some(val) = val {
            let vloss = validation_loss(model, store, val, cfg.batch_size);
            report.val_losses.push(vloss);
            epoch_val = Some(vloss);
            if vloss < best_val {
                best_val = vloss;
                best_snapshot = Some(store.snapshot());
                bad_epochs = 0;
                monitor.record(&TrainEvent::Snapshot {
                    epoch,
                    kind: "best-val",
                });
            } else {
                bad_epochs += 1;
            }
        }
        monitor.record(&TrainEvent::EpochEnd {
            epoch,
            train_loss: epoch_mean,
            val_loss: epoch_val,
            lr: opt.lr(),
            skipped: epoch_skipped,
        });
        if val.is_some() && bad_epochs >= cfg.patience {
            monitor.record(&TrainEvent::EarlyStop { epoch });
            break;
        }
    }
    if let Some(snap) = best_snapshot {
        store.load_values(&snap);
        monitor.record(&TrainEvent::Restore {
            epoch: report.epochs_run.saturating_sub(1),
            kind: "best-val",
        });
    }
    monitor.flush();
    report.telemetry = monitor.summary().clone();
    report
}

/// Mean loss over a source in eval mode (no dropout, no update).
pub fn validation_loss(
    model: &AnyModel,
    store: &ParamStore,
    source: &dyn BatchSource,
    batch_size: usize,
) -> f32 {
    let mut total = 0.0f64;
    let mut batches = 0usize;
    for idx in msd_data::Batcher::new(source.len(), batch_size, None) {
        let (x, target) = source.batch(&idx);
        let g = Graph::eval();
        let mut rng = Rng::seed_from(0);
        let ctx = Ctx::new(&g, store, &mut rng);
        let (_, loss) = model.forward_loss(&ctx, &x, &target);
        total += g.value(loss).item() as f64;
        batches += 1;
    }
    (total / batches.max(1) as f64) as f32
}

/// Evaluates forecasting/reconstruction MSE and MAE over a source,
/// accumulating elementwise over every batch.
pub fn evaluate_forecast(
    model: &AnyModel,
    store: &ParamStore,
    source: &dyn BatchSource,
    batch_size: usize,
) -> (f32, f32) {
    let mut se = 0.0f64;
    let mut ae = 0.0f64;
    let mut count = 0usize;
    for idx in msd_data::Batcher::new(source.len(), batch_size, None) {
        let (x, target) = source.batch(&idx);
        let pred = model.predict(store, &x);
        match &target {
            Target::Series(y) => {
                for (&p, &t) in pred.data().iter().zip(y.data()) {
                    let d = (p - t) as f64;
                    se += d * d;
                    ae += d.abs();
                    count += 1;
                }
            }
            Target::MaskedSeries {
                series,
                observed_mask,
            } => {
                for ((&p, &t), &m) in pred
                    .data()
                    .iter()
                    .zip(series.data())
                    .zip(observed_mask.data())
                {
                    if m == 0.0 {
                        let d = (p - t) as f64;
                        se += d * d;
                        ae += d.abs();
                        count += 1;
                    }
                }
            }
            Target::Labels(_) => panic!("evaluate_forecast on a classification source"),
        }
    }
    (
        (se / count.max(1) as f64) as f32,
        (ae / count.max(1) as f64) as f32,
    )
}

/// Evaluates classification accuracy over a source.
pub fn evaluate_accuracy(
    model: &AnyModel,
    store: &ParamStore,
    source: &dyn BatchSource,
    batch_size: usize,
) -> f32 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for idx in msd_data::Batcher::new(source.len(), batch_size, None) {
        let (x, target) = source.batch(&idx);
        let Target::Labels(labels) = &target else {
            panic!("evaluate_accuracy on a non-classification source")
        };
        let logits = model.predict(store, &x);
        let preds = logits.argmax_last();
        for (p, &t) in preds.iter().zip(labels) {
            if *p == t {
                correct += 1;
            }
            total += 1;
        }
    }
    correct as f32 / total.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForecastSource, ModelSpec};
    use msd_data::{SlidingWindows, Split};
    use msd_mixer::variants::Variant;
    use msd_nn::Task;

    fn sine_series(t: usize) -> Tensor {
        Tensor::from_vec(&[1, t], (0..t).map(|i| (i as f32 / 4.0).sin()).collect())
    }

    #[test]
    fn fit_reduces_training_loss_for_linear_baseline() {
        let data = sine_series(400);
        let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
        let src = ForecastSource::new(windows, 128);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let model = ModelSpec::DLinear.build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        let report = fit(
            &model,
            &mut store,
            &src,
            None,
            &TrainConfig {
                epochs: 4,
                lr: 5e-3,
                ..TrainConfig::default()
            },
        );
        assert_eq!(report.epochs_run, 4);
        assert!(
            report.train_losses.last().unwrap() < &(report.train_losses[0] * 0.7),
            "losses {:?}",
            report.train_losses
        );
    }

    #[test]
    fn fit_appends_telemetry_to_the_configured_path() {
        let path =
            std::env::temp_dir().join(format!("msd_fit_telemetry_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let data = sine_series(200);
        let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
        let src = ForecastSource::new(windows, 64);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(5);
        let model = ModelSpec::DLinear.build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        let report = fit(
            &model,
            &mut store,
            &src,
            None,
            &TrainConfig {
                epochs: 2,
                batch_size: 16,
                telemetry: Some(path.clone()),
                ..TrainConfig::default()
            },
        );
        let log = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let batch_events = log
            .lines()
            .filter(|l| l.starts_with('{') && l.ends_with('}'))
            .filter(|l| l.contains("\"event\":\"batch\""))
            .count();
        assert!(report.telemetry.batches > 0);
        assert!(
            batch_events >= report.telemetry.batches,
            "{batch_events} complete batch events for {} applied batches",
            report.telemetry.batches
        );
    }

    #[test]
    fn early_stopping_restores_best_checkpoint() {
        let data = sine_series(300);
        let train_w = SlidingWindows::new(&data, 24, 8, Split::Train);
        let val_w = SlidingWindows::new(&data, 24, 8, Split::Val);
        let train_src = ForecastSource::new(train_w, 64);
        let val_src = ForecastSource::new(val_w, 32);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let model = ModelSpec::NLinear.build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        let report = fit(
            &model,
            &mut store,
            &train_src,
            Some(&val_src),
            &TrainConfig {
                epochs: 6,
                patience: 2,
                lr: 5e-3,
                ..TrainConfig::default()
            },
        );
        // Final parameters achieve (at least close to) the best recorded
        // validation loss.
        let final_val = validation_loss(&model, &store, &val_src, 32);
        let best = report
            .val_losses
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        assert!(
            final_val <= best * 1.05 + 1e-4,
            "final {final_val} vs best {best}"
        );
    }

    /// A validation source whose targets are offset by a scripted amount per
    /// epoch, so the validation-loss trajectory is controlled: large offset
    /// ⇒ large loss. One batch per epoch (len ≤ batch size).
    struct ScriptedValSource {
        offsets: Vec<f32>,
        calls: std::cell::Cell<usize>,
    }

    impl BatchSource for ScriptedValSource {
        fn len(&self) -> usize {
            8
        }

        fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
            let call = self.calls.get();
            self.calls.set(call + 1);
            let off = self.offsets[call.min(self.offsets.len() - 1)];
            let n = indices.len();
            let x = Tensor::ones(&[n, 1, 24]);
            let y = Tensor::full(&[n, 1, 8], off);
            (x, Target::Series(y))
        }
    }

    #[test]
    fn worsening_then_recovering_val_restores_best_predictions() {
        // Scripted val losses ≈ [9, ~0, 900, 100]: best at epoch 1, then
        // worse, then recovered-but-not-best. With patience 3 all four
        // epochs run, and the final parameters must be *exactly* the
        // epoch-1 checkpoint — asserted on predictions, not loss, against
        // a truncated reference run that stops at epoch 1. Both runs use
        // LrSchedule::HalvingAfter so the restore interacts with a moving
        // learning rate.
        let data = sine_series(400);
        let cfg = |epochs| TrainConfig {
            epochs,
            lr: 5e-3,
            patience: 3,
            schedule: LrSchedule::HalvingAfter(1),
            ..TrainConfig::default()
        };
        let probe = Tensor::ones(&[2, 1, 24]);

        // Full run: 4 epochs, early-stopping machinery engaged.
        let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
        let src = ForecastSource::new(windows, 128);
        let val = ScriptedValSource {
            offsets: vec![3.0, 0.0, 30.0, 10.0],
            calls: std::cell::Cell::new(0),
        };
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(21);
        let model = ModelSpec::NLinear.build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        let report = fit(&model, &mut store, &src, Some(&val), &cfg(4));
        assert_eq!(report.epochs_run, 4, "patience 3 must not stop early here");
        let best_epoch = report
            .val_losses
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best_epoch, 1, "val losses {:?}", report.val_losses);
        let final_pred = model.predict(&store, &probe);

        // Reference run: identical seed/config, truncated after epoch 1,
        // no validation (validation never consumes the training RNG).
        let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
        let src = ForecastSource::new(windows, 128);
        let mut ref_store = ParamStore::new();
        let mut ref_rng = Rng::seed_from(21);
        let ref_model = ModelSpec::NLinear.build(
            &mut ref_store,
            &mut ref_rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        fit(&ref_model, &mut ref_store, &src, None, &cfg(2));
        let ref_pred = ref_model.predict(&ref_store, &probe);

        assert_eq!(
            final_pred.data(),
            ref_pred.data(),
            "restored checkpoint is not bit-identical to the best epoch"
        );
    }

    #[test]
    fn patience_exhaustion_stops_early_and_still_restores_best() {
        // Val loss worsens from epoch 1 on; patience 2 stops after epoch 2
        // and the best (epoch 0) checkpoint is restored.
        let data = sine_series(400);
        let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
        let src = ForecastSource::new(windows, 128);
        let val = ScriptedValSource {
            offsets: vec![0.0, 20.0, 40.0, 60.0],
            calls: std::cell::Cell::new(0),
        };
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(22);
        let model = ModelSpec::NLinear.build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        let cfg = TrainConfig {
            epochs: 6,
            lr: 5e-3,
            patience: 2,
            ..TrainConfig::default()
        };
        let report = fit(&model, &mut store, &src, Some(&val), &cfg);
        assert_eq!(report.epochs_run, 3, "val losses {:?}", report.val_losses);

        let probe = Tensor::ones(&[1, 1, 24]);
        let final_pred = model.predict(&store, &probe);
        let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
        let src = ForecastSource::new(windows, 128);
        let mut ref_store = ParamStore::new();
        let mut ref_rng = Rng::seed_from(22);
        let ref_model = ModelSpec::NLinear.build(
            &mut ref_store,
            &mut ref_rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        fit(
            &ref_model,
            &mut ref_store,
            &src,
            None,
            &TrainConfig {
                epochs: 1,
                lr: 5e-3,
                patience: 2,
                ..TrainConfig::default()
            },
        );
        let ref_pred = ref_model.predict(&ref_store, &probe);
        assert_eq!(final_pred.data(), ref_pred.data());
    }

    #[test]
    fn evaluate_forecast_perfect_model_zero_error() {
        // A "model" that predicts the truth: use the mixer? Simpler — use a
        // source whose target equals what NLinear-with-zero-weights outputs.
        // Instead verify the metric math directly on a trained-enough model:
        let data = sine_series(300);
        let windows = SlidingWindows::new(&data, 24, 8, Split::Test);
        let src = ForecastSource::new(windows, 16);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let model = ModelSpec::NLinear.build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        let (mse, mae) = evaluate_forecast(&model, &store, &src, 8);
        assert!(mse.is_finite() && mae.is_finite());
        assert!(mse >= 0.0 && mae >= 0.0);
        // MSE ≥ MAE² by Jensen.
        assert!(mse + 1e-6 >= mae * mae);
    }

    #[test]
    fn mixer_trains_through_harness() {
        let data = sine_series(300);
        let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
        let src = ForecastSource::new(windows, 64);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(4);
        let model = ModelSpec::MsdMixer(Variant::Full).build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            8,
        );
        let report = fit(
            &model,
            &mut store,
            &src,
            None,
            &TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
        );
        assert!(report.train_losses.iter().all(|l| l.is_finite()));
        assert!(report.train_losses[1] < report.train_losses[0]);
    }
}

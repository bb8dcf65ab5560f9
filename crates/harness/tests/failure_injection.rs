//! Failure-injection tests: the harness must behave sanely on degenerate
//! and adversarial inputs (NaNs, constants, empty splits, wrong targets).

use msd_data::{SlidingWindows, Split};
use msd_harness::{
    evaluate_forecast, fit, fit_monitored, BatchSource, ForecastSource, ModelSpec, TrainConfig,
    TrainMonitor,
};
use msd_mixer::variants::Variant;
use msd_mixer::Target;
use msd_nn::{ParamStore, Task};
use msd_tensor::{rng::Rng, Tensor};

/// Builds a small seeded DLinear forecaster (input 8 → horizon 4).
fn small_model(seed: u64) -> (msd_harness::AnyModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(seed);
    let model =
        ModelSpec::DLinear.build(&mut store, &mut rng, 1, 8, Task::Forecast { horizon: 4 }, 4);
    (model, store)
}

/// A clean source except that the batches named in `poison_calls` carry one
/// NaN input element (→ NaN loss downstream).
struct InjectAtSource {
    poison_calls: Vec<usize>,
    calls: std::cell::Cell<usize>,
}

impl InjectAtSource {
    fn new(poison_calls: &[usize]) -> Self {
        Self {
            poison_calls: poison_calls.to_vec(),
            calls: std::cell::Cell::new(0),
        }
    }
}

impl BatchSource for InjectAtSource {
    fn len(&self) -> usize {
        64
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let n = indices.len();
        let call = self.calls.get();
        self.calls.set(call + 1);
        // A learnable mapping: x ramps per index, y is its continuation.
        let mut x = Tensor::zeros(&[n, 1, 8]);
        for (b, &i) in indices.iter().enumerate() {
            for t in 0..8 {
                x.data_mut()[b * 8 + t] = ((i + t) as f32 / 8.0).sin();
            }
        }
        if self.poison_calls.contains(&call) {
            x.data_mut()[0] = f32::NAN;
        }
        let mut y = Tensor::zeros(&[n, 1, 4]);
        for (b, &i) in indices.iter().enumerate() {
            for t in 0..4 {
                y.data_mut()[b * 4 + t] = ((i + 8 + t) as f32 / 8.0).sin();
            }
        }
        (x, Target::Series(y))
    }
}

/// A source that serves NaN-poisoned batches every other call.
struct PoisonedSource {
    calls: std::cell::Cell<usize>,
}

impl BatchSource for PoisonedSource {
    fn len(&self) -> usize {
        64
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let n = indices.len();
        let call = self.calls.get();
        self.calls.set(call + 1);
        let mut x = Tensor::ones(&[n, 1, 8]);
        if call.is_multiple_of(2) {
            x.data_mut()[0] = f32::NAN;
        }
        let y = Tensor::ones(&[n, 1, 4]);
        (x, Target::Series(y))
    }
}

#[test]
fn fit_survives_nan_batches() {
    // Batches whose loss is non-finite are skipped; training still runs and
    // parameters stay finite.
    let src = PoisonedSource {
        calls: std::cell::Cell::new(0),
    };
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(1);
    let model =
        ModelSpec::DLinear.build(&mut store, &mut rng, 1, 8, Task::Forecast { horizon: 4 }, 4);
    let report = fit(
        &model,
        &mut store,
        &src,
        None,
        &TrainConfig {
            epochs: 2,
            lr: 1e-2,
            ..TrainConfig::default()
        },
    );
    assert_eq!(report.epochs_run, 2);
    // 2 batches/epoch × 2 epochs; every even call is poisoned → 2 skipped,
    // each one recovered (never consecutive), and the report says so.
    assert_eq!(report.skipped_batches, 2);
    assert_eq!(report.rollbacks, 2);
    assert!(report.aborted.is_none());
    for (_, _, value) in store.iter() {
        assert!(
            value.data().iter().all(|v| v.is_finite()),
            "params went non-finite"
        );
    }
}

#[test]
fn constant_input_series_trains_without_blowup() {
    // A constant series has zero variance: the scaler floor, the ACF guard,
    // and the optimiser must all cope.
    let data = Tensor::full(&[2, 300], 3.0);
    let train = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 64);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(2);
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut rng,
        2,
        24,
        Task::Forecast { horizon: 8 },
        4,
    );
    let report = fit(
        &model,
        &mut store,
        &train,
        None,
        &TrainConfig {
            epochs: 2,
            lr: 5e-3,
            ..TrainConfig::default()
        },
    );
    assert!(report.train_losses.iter().all(|l| l.is_finite()));
    let test = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Test), 16);
    let (mse, _) = evaluate_forecast(&model, &store, &test, 16);
    // Constant data is perfectly predictable: error collapses quickly.
    assert!(mse < 9.0 + 1e-3, "mse {mse}");
}

#[test]
#[should_panic(expected = "empty training source")]
fn fit_rejects_empty_source() {
    struct Empty;
    impl BatchSource for Empty {
        fn len(&self) -> usize {
            0
        }
        fn batch(&self, _: &[usize]) -> (Tensor, Target) {
            unreachable!()
        }
    }
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(3);
    let model =
        ModelSpec::DLinear.build(&mut store, &mut rng, 1, 8, Task::Forecast { horizon: 4 }, 4);
    let _ = fit(&model, &mut store, &Empty, None, &TrainConfig::default());
}

#[test]
fn mismatched_target_kind_panics_cleanly() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(4);
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut rng,
        1,
        8,
        Task::Forecast { horizon: 4 },
        4,
    );
    let g = msd_autograd::Graph::new();
    let mut rng2 = Rng::seed_from(5);
    let ctx = msd_nn::Ctx::new(&g, &store, &mut rng2);
    let x = Tensor::ones(&[1, 1, 8]);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        model.forward_loss(&ctx, &x, &Target::Labels(vec![0]))
    }));
    assert!(result.is_err(), "expected a panic on target/task mismatch");
}

#[test]
fn extreme_magnitudes_stay_finite() {
    // Inputs at 1e4 scale (unscaled data fed by mistake): losses may be
    // huge but must remain finite, and clipping keeps updates bounded.
    let mut rng = Rng::seed_from(6);
    let data = Tensor::randn(&[1, 300], 1.0, &mut rng).scale(1e4);
    let train = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 32);
    let mut store = ParamStore::new();
    let model = ModelSpec::NLinear.build(
        &mut store,
        &mut rng,
        1,
        24,
        Task::Forecast { horizon: 8 },
        4,
    );
    let report = fit(
        &model,
        &mut store,
        &train,
        None,
        &TrainConfig {
            epochs: 1,
            lr: 1e-3,
            ..TrainConfig::default()
        },
    );
    assert!(report.train_losses.iter().all(|l| l.is_finite()));
}

#[test]
fn mid_training_nan_recovers_with_rollback_reset_and_backoff() {
    // len 64 / batch 16 → 4 batches per epoch; poison the last batch of
    // epoch 0. The driver must roll back to the last good snapshot, reset
    // the optimiser, halve the lr, and finish the run — all visible in the
    // report and the telemetry stream.
    let src = InjectAtSource::new(&[3]);
    let (model, mut store) = small_model(1);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 1e-2,
        max_retries: 4,
        lr_backoff: 0.5,
        ..TrainConfig::default()
    };
    let mut monitor = TrainMonitor::in_memory();
    let report = fit_monitored(&model, &mut store, &src, None, &cfg, &mut monitor);

    assert_eq!(report.epochs_run, 2);
    assert!(
        report.aborted.is_none(),
        "single NaN must not abort: {:?}",
        report.aborted
    );
    assert_eq!(report.skipped_batches, 1);
    assert_eq!(report.rollbacks, 1);
    assert_eq!(report.telemetry.batches, 7, "7 of 8 batches applied");
    assert!(report.train_losses.iter().all(|l| l.is_finite()));
    for (_, _, value) in store.iter() {
        assert!(value.data().iter().all(|v| v.is_finite()));
    }

    let lines = monitor.lines().join("\n");
    assert!(
        lines.contains("\"event\":\"non_finite\""),
        "telemetry:\n{lines}"
    );
    assert!(
        lines.contains("\"event\":\"rollback\""),
        "telemetry:\n{lines}"
    );
    assert!(
        lines.contains("\"event\":\"restore\"") && lines.contains("\"kind\":\"good-state\""),
        "telemetry:\n{lines}"
    );
    // The rollback halved the lr: epoch-0 lr is 1e-2, so new_lr is 5e-3.
    assert!(lines.contains("\"new_lr\":0.005"), "telemetry:\n{lines}");
    assert!(lines.contains("\"retries_left\":3"), "telemetry:\n{lines}");
}

#[test]
fn persistent_nans_abort_cleanly_with_diagnostic() {
    // Every batch is poisoned: after max_retries + 1 consecutive failures
    // the run stops with a diagnostic instead of looping on garbage.
    let src = InjectAtSource::new(&(0..64).collect::<Vec<_>>());
    let (model, mut store) = small_model(2);
    let init = store.snapshot();
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        max_retries: 2,
        ..TrainConfig::default()
    };
    let mut monitor = TrainMonitor::in_memory();
    let report = fit_monitored(&model, &mut store, &src, None, &cfg, &mut monitor);

    let diag = report.aborted.expect("run must abort");
    assert!(diag.contains("retries exhausted"), "diagnostic: {diag}");
    assert_eq!(report.epochs_run, 1, "abort happens in the first epoch");
    assert_eq!(report.skipped_batches, 3, "max_retries + 1 failures");
    assert!(monitor
        .lines()
        .iter()
        .any(|l| l.contains("\"event\":\"abort\"")));
    // No good snapshot ever existed: parameters remain the (finite) init.
    for ((_, _, value), initial) in store.iter().zip(&init) {
        assert_eq!(
            value.data(),
            initial.data(),
            "params moved during an all-NaN run"
        );
    }
}

#[test]
fn all_nan_epoch_reports_nan_loss_not_zero() {
    // One epoch, every batch dropped, but retries not exhausted: the epoch
    // loss must be NaN — the old driver averaged zero batches into 0.0.
    let src = InjectAtSource::new(&(0..4).collect::<Vec<_>>());
    let (model, mut store) = small_model(3);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        max_retries: 10,
        ..TrainConfig::default()
    };
    let report = fit(&model, &mut store, &src, None, &cfg);
    assert!(report.aborted.is_none());
    assert_eq!(report.skipped_batches, 4);
    assert!(
        report.train_losses[0].is_nan(),
        "all-skipped epoch must report NaN, got {}",
        report.train_losses[0]
    );
}

#[test]
fn telemetry_jsonl_records_recovery_end_to_end() {
    let path = std::env::temp_dir().join(format!(
        "msd_failure_injection_telemetry_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let src = InjectAtSource::new(&[2]);
    let (model, mut store) = small_model(4);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let mut monitor = TrainMonitor::to_path(&path).unwrap();
    let report = fit_monitored(&model, &mut store, &src, None, &cfg, &mut monitor);
    drop(monitor);

    assert_eq!(report.rollbacks, 1);
    let content = std::fs::read_to_string(&path).unwrap();
    let kinds: Vec<&str> = content
        .lines()
        .map(|l| {
            let start = l.find("\"event\":\"").unwrap() + 9;
            &l[start..start + l[start..].find('"').unwrap()]
        })
        .collect();
    assert!(kinds.contains(&"batch"), "kinds {kinds:?}");
    assert!(kinds.contains(&"non_finite"));
    assert!(kinds.contains(&"rollback"));
    assert!(kinds.contains(&"restore"));
    assert!(kinds.contains(&"epoch"));
    // Batch events carry the full per-batch schema.
    let batch_line = content
        .lines()
        .find(|l| l.contains("\"event\":\"batch\""))
        .unwrap();
    for key in [
        "\"loss\":",
        "\"grad_norm\":",
        "\"clip_scale\":",
        "\"lr\":",
        "\"wall_ms\":",
    ] {
        assert!(batch_line.contains(key), "missing {key} in {batch_line}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn telemetry_and_recovery_machinery_change_no_numerics() {
    // The same seeded run — monitored vs. disabled, clean data — must be
    // bit-identical: observation and recovery scaffolding cost nothing
    // numerically unless a divergence actually happens.
    let run = |monitored: bool| {
        let src = InjectAtSource::new(&[]);
        let (model, mut store) = small_model(5);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 1e-2,
            ..TrainConfig::default()
        };
        let report = if monitored {
            let mut monitor = TrainMonitor::in_memory();
            fit_monitored(&model, &mut store, &src, None, &cfg, &mut monitor)
        } else {
            fit(&model, &mut store, &src, None, &cfg)
        };
        let values: Vec<Vec<u32>> = store
            .iter()
            .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
            .collect();
        (report.train_losses, values)
    };
    let (losses_a, params_a) = run(true);
    let (losses_b, params_b) = run(false);
    assert_eq!(losses_a, losses_b, "losses diverged with telemetry on");
    assert_eq!(params_a, params_b, "parameters diverged with telemetry on");
}

//! Crash-safe checkpoint/resume: a training run killed at an arbitrary
//! applied batch and resumed from its durable checkpoint must continue
//! *bit-identically* to a run that was never interrupted — parameters,
//! loss curves, and predictions. Corrupt checkpoint files of any kind must
//! never panic: they are diagnosed, skipped, and the loader falls back to
//! the newest valid rotation.

use msd_data::{SlidingWindows, Split};
use msd_harness::ClassifySource;
use msd_harness::{fit, ForecastSource, ModelSpec, TrainCheckpoint, TrainConfig};
use msd_mixer::variants::Variant;
use msd_nn::checkpoint::{section_bounds, MAGIC};
use msd_nn::{ParamStore, Task};
use msd_tensor::{rng::Rng, Tensor};
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msd_ckpt_resume_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn param_bits(store: &ParamStore) -> Vec<Vec<u32>> {
    store
        .iter()
        .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn sine_series(t: usize) -> Tensor {
    Tensor::from_vec(&[1, t], (0..t).map(|i| (i as f32 / 4.0).sin()).collect())
}

/// A small MSD-Mixer forecaster — it uses dropout, so training consumes the
/// RNG per batch and the resume path must restore the dropout stream too.
fn mixer_model(seed: u64) -> (msd_harness::AnyModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(seed);
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut rng,
        1,
        24,
        Task::Forecast { horizon: 8 },
        4,
    );
    (model, store)
}

fn forecast_cfg(ckpt: Option<&Path>, resume: bool, kill: Option<usize>) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 16,
        lr: 5e-3,
        seed: 11,
        checkpoint_dir: ckpt.map(|p| p.to_path_buf()),
        checkpoint_every: 2,
        resume,
        kill_after_batches: kill,
        ..TrainConfig::default()
    }
}

/// Reference run, killed run, resumed run — asserted bit-identical at every
/// kill point, with validation-based early-stopping machinery engaged.
#[test]
fn resume_is_bit_identical_for_forecasting() {
    let data = sine_series(400);
    let train_src = || ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 48);
    let val_src = || ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Val), 16);
    let probe = Tensor::ones(&[2, 1, 24]);

    // Uninterrupted reference: no checkpointing at all.
    let (model, mut store) = mixer_model(9);
    let ref_report = fit(
        &model,
        &mut store,
        &train_src(),
        Some(&val_src()),
        &forecast_cfg(None, false, None),
    );
    let ref_params = param_bits(&store);
    let ref_pred = model.predict(&store, &probe);

    // 48 samples / batch 16 → 3 batches/epoch, 9 applied batches total.
    // Kill on a checkpoint boundary (4), one past it (5), and mid-final-
    // epoch (7); checkpoints land every 2 applied batches.
    for kill in [4usize, 5, 7] {
        let dir = temp_dir(&format!("forecast_{kill}"));

        let (model, mut store) = mixer_model(9);
        let killed = fit(
            &model,
            &mut store,
            &train_src(),
            Some(&val_src()),
            &forecast_cfg(Some(&dir), false, Some(kill)),
        );
        assert!(killed.aborted.is_some(), "kill hook must abort the run");

        // "New process": fresh store and model, resume from disk.
        let (model, mut store) = mixer_model(9);
        let resumed = fit(
            &model,
            &mut store,
            &train_src(),
            Some(&val_src()),
            &forecast_cfg(Some(&dir), true, None),
        );
        assert!(
            resumed.resumed_from.is_some(),
            "kill at {kill}: run did not resume from a checkpoint"
        );
        assert_eq!(
            param_bits(&store),
            ref_params,
            "kill at {kill}: resumed parameters differ from uninterrupted run"
        );
        assert_eq!(
            resumed.train_losses, ref_report.train_losses,
            "kill at {kill}: loss curves differ"
        );
        assert_eq!(resumed.val_losses, ref_report.val_losses);
        assert_eq!(resumed.epochs_run, ref_report.epochs_run);
        assert_eq!(
            resumed.telemetry.batches, ref_report.telemetry.batches,
            "kill at {kill}: restored telemetry counters must cover the whole logical run"
        );
        let pred = model.predict(&store, &probe);
        assert_eq!(
            pred.data(),
            ref_pred.data(),
            "kill at {kill}: predictions differ after resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic synthetic classification set: per-class phase-shifted
/// sines, labels by index.
fn classify_src() -> ClassifySource {
    let (n, c, l, classes) = (24usize, 1usize, 16usize, 3usize);
    let mut xs = Vec::with_capacity(n * c * l);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % classes;
        ys.push(label);
        for t in 0..l {
            xs.push(((t + i) as f32 / 3.0 + label as f32).sin());
        }
    }
    ClassifySource::new(Tensor::from_vec(&[n, c, l], xs), ys)
}

fn classify_model(seed: u64) -> (msd_harness::AnyModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(seed);
    let model = ModelSpec::DLinear.build(
        &mut store,
        &mut rng,
        1,
        16,
        Task::Classify { classes: 3 },
        4,
    );
    (model, store)
}

#[test]
fn resume_is_bit_identical_for_classification() {
    let cfg = |dir: Option<&Path>, resume, kill| TrainConfig {
        epochs: 3,
        batch_size: 8,
        lr: 1e-2,
        seed: 23,
        checkpoint_dir: dir.map(|p| p.to_path_buf()),
        checkpoint_every: 2,
        resume,
        kill_after_batches: kill,
        ..TrainConfig::default()
    };
    let probe = Tensor::ones(&[2, 1, 16]);

    let (model, mut store) = classify_model(31);
    let ref_report = fit(
        &model,
        &mut store,
        &classify_src(),
        None,
        &cfg(None, false, None),
    );
    let ref_params = param_bits(&store);
    let ref_logits = model.predict(&store, &probe);

    // 24 samples / batch 8 → 3 batches/epoch, 9 applied in total.
    for kill in [2usize, 5, 8] {
        let dir = temp_dir(&format!("classify_{kill}"));
        let (model, mut store) = classify_model(31);
        let killed = fit(
            &model,
            &mut store,
            &classify_src(),
            None,
            &cfg(Some(&dir), false, Some(kill)),
        );
        assert!(killed.aborted.is_some());

        let (model, mut store) = classify_model(31);
        let resumed = fit(
            &model,
            &mut store,
            &classify_src(),
            None,
            &cfg(Some(&dir), true, None),
        );
        assert!(resumed.resumed_from.is_some(), "kill at {kill}");
        assert_eq!(param_bits(&store), ref_params, "kill at {kill}");
        assert_eq!(
            resumed.train_losses, ref_report.train_losses,
            "kill at {kill}"
        );
        assert_eq!(model.predict(&store, &probe).data(), ref_logits.data());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Produces a checkpoint directory with a latest file plus rotations by
/// running a killed training run.
fn populated_ckpt_dir(name: &str) -> PathBuf {
    let dir = temp_dir(name);
    let data = sine_series(400);
    let src = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 48);
    let (model, mut store) = mixer_model(9);
    let mut cfg = forecast_cfg(Some(&dir), false, Some(6));
    cfg.checkpoint_every = 1; // a checkpoint per batch → rotations exist
    let report = fit(&model, &mut store, &src, None, &cfg);
    assert!(report.aborted.is_some());
    assert!(dir.join("ckpt-latest.msd").is_file());
    assert!(dir.join("ckpt-1.msd").is_file());
    dir
}

#[test]
fn corrupt_checkpoint_corpus_is_rejected_without_panicking() {
    let dir = populated_ckpt_dir("corpus");
    let bytes = std::fs::read(dir.join("ckpt-latest.msd")).unwrap();
    assert!(
        TrainCheckpoint::decode(&bytes).is_ok(),
        "baseline file must decode"
    );

    // Truncation at (and one byte before) every section boundary.
    let bounds = section_bounds(&bytes).unwrap();
    assert!(
        bounds.len() >= 6,
        "expected all five sections + footer: {bounds:?}"
    );
    for (name, end) in &bounds {
        for cut in [end.saturating_sub(1), *end] {
            if cut == bytes.len() {
                continue;
            }
            assert!(
                TrainCheckpoint::decode(&bytes[..cut]).is_err(),
                "truncation at '{name}' boundary ({cut} bytes) was accepted"
            );
        }
    }
    // Flipped bytes anywhere in the file.
    for i in (0..bytes.len()).step_by(13) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        assert!(
            TrainCheckpoint::decode(&bad).is_err(),
            "single-bit flip at offset {i} was accepted"
        );
    }
    // Stale magic from the v1 era.
    let mut stale = bytes.clone();
    stale[..MAGIC.len()].copy_from_slice(b"MSDCKPT1");
    assert!(
        TrainCheckpoint::decode(&stale).is_err(),
        "stale magic accepted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_latest_falls_back_to_previous_rotation() {
    let dir = populated_ckpt_dir("fallback");
    // Tear the newest file mid-write (as a crash during save would).
    let latest = dir.join("ckpt-latest.msd");
    let bytes = std::fs::read(&latest).unwrap();
    std::fs::write(&latest, &bytes[..bytes.len() / 2]).unwrap();

    let data = sine_series(400);
    let src = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 48);
    let (model, mut store) = mixer_model(9);
    let report = fit(
        &model,
        &mut store,
        &src,
        None,
        &forecast_cfg(Some(&dir), true, None),
    );
    let from = report.resumed_from.expect("must fall back to a rotation");
    assert_eq!(
        from,
        dir.join("ckpt-1.msd"),
        "resumed from {}",
        from.display()
    );
    assert!(report.aborted.is_none());
    assert!(report.train_losses.iter().all(|l| l.is_finite()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_corrupt_dir_starts_fresh_and_still_matches_reference() {
    let dir = populated_ckpt_dir("all_bad");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::write(&path, b"MSDCKPT2 garbage that decodes to nothing").unwrap();
    }
    let data = sine_series(400);
    let src = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 48);

    let (model, mut store) = mixer_model(9);
    let mut cfg = forecast_cfg(Some(&dir), true, None);
    cfg.checkpoint_dir = Some(dir.clone());
    let report = fit(&model, &mut store, &src, None, &cfg);
    assert!(
        report.resumed_from.is_none(),
        "garbage must not be resumed from"
    );

    // A fresh start is exactly the uninterrupted run.
    let (ref_model, mut ref_store) = mixer_model(9);
    let ref_report = fit(
        &ref_model,
        &mut ref_store,
        &src,
        None,
        &forecast_cfg(None, false, None),
    );
    assert_eq!(param_bits(&store), param_bits(&ref_store));
    assert_eq!(report.train_losses, ref_report.train_losses);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_checkpointing_changes_no_numerics() {
    let run = |dir: Option<&Path>| {
        let data = sine_series(400);
        let src = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 48);
        let (model, mut store) = mixer_model(9);
        let report = fit(
            &model,
            &mut store,
            &src,
            None,
            &forecast_cfg(dir, false, None),
        );
        (report.train_losses, param_bits(&store))
    };
    let dir = temp_dir("numerics");
    let (losses_on, params_on) = run(Some(&dir));
    let (losses_off, params_off) = run(None);
    assert_eq!(
        losses_on, losses_off,
        "checkpointing changed the loss curve"
    );
    assert_eq!(
        params_on, params_off,
        "checkpointing changed the parameters"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_keeps_a_bounded_number_of_generations() {
    let dir = temp_dir("rotation");
    let data = sine_series(400);
    let src = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 48);
    let (model, mut store) = mixer_model(9);
    let mut cfg = forecast_cfg(Some(&dir), false, None);
    cfg.checkpoint_every = 1; // 9 applied batches → 9 writes
    cfg.checkpoint_keep = 2;
    let _ = fit(&model, &mut store, &src, None, &cfg);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["ckpt-1.msd", "ckpt-2.msd", "ckpt-latest.msd"],
        "rotation must keep exactly latest + checkpoint_keep generations"
    );
    // Every surviving generation decodes.
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        assert!(
            TrainCheckpoint::decode(&bytes).is_ok(),
            "{name} does not decode"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

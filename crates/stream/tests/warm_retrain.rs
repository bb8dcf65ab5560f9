//! Warm-retrain bit-identity: every fine-tune the engine performs must be
//! replayable *standalone* — install the recorded seed checkpoint in a
//! fresh directory, rebuild the architecture, resume a `fit` over the
//! recorded buffer with the same hyperparameters, and the encoded artifact
//! must be byte-identical to the one the engine hot-swapped in.
//!
//! This pins two things at once: the engine's adaptation path is exactly
//! the PR 3 checkpoint-resume machinery (no private training loop), and a
//! drift incident can be reproduced after the fact from its recorded
//! checkpoint + buffer alone.

use msd_harness::{fit_monitored, TrainMonitor};
use msd_nn::{ArtifactWriter, ParamStore, PrecisionTier, Task};
use msd_stream::{
    install_checkpoint, BufferSource, DriftScenario, RetrainParams, ScenarioConfig, StreamConfig,
    StreamEngine,
};
use msd_tensor::rng::Rng;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msd_stream_warm_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn engine_fine_tunes_replay_bit_identically_from_their_checkpoints() {
    // Run the scenario far enough to cover both the base train and the
    // drift-triggered warm retrain.
    let scenario_cfg = ScenarioConfig::smoke(7);
    let stream_cfg = StreamConfig::smoke(temp_dir("engine").join("ckpt"));
    let mut engine = StreamEngine::new(stream_cfg.clone()).expect("engine setup");
    let mut scenario = DriftScenario::new(scenario_cfg);
    for _ in 0..1800 {
        let (sample, _) = scenario.next_sample();
        engine.push(&sample).expect("stream step");
    }
    let report = engine.finish().expect("engine shutdown");
    assert_eq!(
        report.swap_records.len(),
        2,
        "expected the base train and one warm retrain"
    );

    let params = RetrainParams::smoke();
    for (i, rec) in report.swap_records.iter().enumerate() {
        // Fresh directory, fresh store: only the recorded checkpoint and
        // buffer carry state from the engine's run.
        let dir = temp_dir(&format!("replay_{i}"));
        install_checkpoint(&dir, &rec.checkpoint).expect("install checkpoint");
        let cfg = params.train_config(&dir);

        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(stream_cfg.init_seed);
        let model = stream_cfg.spec.build(
            &mut store,
            &mut rng,
            stream_cfg.channels,
            stream_cfg.window,
            Task::Reconstruct,
            stream_cfg.d_model,
        );
        let source = BufferSource::new(
            rec.buffer.clone(),
            params.corrupt_ratio,
            params.corrupt_seed,
        );
        let mut monitor = TrainMonitor::disabled();
        let fit = fit_monitored(&model, &mut store, &source, None, &cfg, &mut monitor);
        assert!(
            fit.resumed_from.is_some(),
            "replay {i} did not resume from the installed checkpoint"
        );
        assert!(
            fit.aborted.is_none(),
            "replay {i} aborted: {:?}",
            fit.aborted
        );

        let artifact = ArtifactWriter::new(PrecisionTier::F32)
            .encode(&store)
            .expect("encode artifact");
        assert_eq!(
            artifact, rec.artifact,
            "replayed fine-tune {i} is not byte-identical to the engine's"
        );
    }
}

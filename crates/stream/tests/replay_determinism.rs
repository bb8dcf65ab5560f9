//! The headline gate of the streaming engine: a seeded stream replayed
//! twice — including a mid-stream drift, warm retrain, and hot-swap —
//! must produce byte-identical score and event logs.
//!
//! The CI matrix runs this suite under `MSD_KERNEL_FORCE` ∈ {auto, scalar};
//! the logs must agree within each tier, and the house bit-determinism rule
//! makes them agree *across* tiers too (the tier-1 script additionally
//! `cmp`s the harness bin's on-disk logs between two OS processes).

use msd_stream::{DriftScenario, ScenarioConfig, StreamConfig, StreamEngine, StreamReport};
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msd_stream_replay_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Enough steps to cover warmup, calibration, the regime shift at 1600,
/// and the drift-triggered swap shortly after.
const STEPS: u64 = 2000;

fn run_once(root: &Path) -> StreamReport {
    let scenario_cfg = ScenarioConfig::smoke(7);
    let mut cfg = StreamConfig::smoke(root.join("ckpt"));
    cfg.channels = scenario_cfg.channels;
    let mut engine = StreamEngine::new(cfg).expect("engine setup");
    let mut scenario = DriftScenario::new(scenario_cfg);
    for _ in 0..STEPS {
        let (sample, _) = scenario.next_sample();
        engine.push(&sample).expect("stream step");
    }
    engine.finish().expect("engine shutdown")
}

#[test]
fn replaying_a_seeded_stream_reproduces_both_logs_byte_for_byte() {
    let a = run_once(&temp_dir("a"));
    let b = run_once(&temp_dir("b"));

    // The run must actually exercise the adaptation path: a replay gate
    // over a drift-free stream would prove nothing about retrain/swap.
    assert!(a.drifts >= 1, "scenario raised no drift event");
    assert!(a.swaps >= 2, "scenario performed no hot-swap");
    assert_eq!(a.lost_requests, 0, "requests lost across the swap");
    assert!(
        a.event_lines
            .iter()
            .any(|l| l.contains("\"event\":\"drift\"")),
        "drift missing from the event log"
    );
    assert!(
        a.event_lines
            .iter()
            .any(|l| l.contains("\"event\":\"swap\"")),
        "swap missing from the event log"
    );

    // Byte-identical logs — the strings, not parsed approximations.
    assert_eq!(a.score_lines, b.score_lines, "score logs diverged");
    assert_eq!(a.event_lines, b.event_lines, "event logs diverged");
    assert_eq!(a.calibrations, b.calibrations, "frozen thresholds diverged");

    // The artifacts that were hot-swapped in must also be byte-identical:
    // the retrain path is part of the replayed trajectory.
    assert_eq!(a.swap_records.len(), b.swap_records.len());
    for (ra, rb) in a.swap_records.iter().zip(&b.swap_records) {
        assert_eq!(ra.step, rb.step);
        assert_eq!(ra.version, rb.version);
        assert_eq!(ra.artifact, rb.artifact, "swap artifact bytes diverged");
        assert_eq!(
            ra.checkpoint, rb.checkpoint,
            "seed checkpoint bytes diverged"
        );
    }
}

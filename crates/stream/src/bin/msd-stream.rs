//! The streaming harness bin: runs the seeded synthetic drift scenario
//! through the full engine — warmup, base train, online scoring via the
//! gateway, drift detection, warm retrain, hot-swap — and reports
//! point-adjusted F1 before and after adaptation.
//!
//! The score log (`scores.jsonl`) and event log (`events.jsonl`) written
//! under `--out-dir` are replay-deterministic: two runs with the same seed
//! must produce byte-identical files, which is exactly what the tier-1
//! streaming gate `cmp`s. Exit status is non-zero when the scenario fails
//! its contract (no drift, no swap, lost requests, or no F1 improvement).
//!
//! ```text
//! msd-stream --seed 7 --steps 3600 --out-dir target/stream-run1
//! ```

use msd_metrics::anomaly::point_adjusted_scores;
use msd_stream::{DriftScenario, ScenarioConfig, StreamConfig, StreamEngine};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: msd-stream [options]\n\
           --seed <n>      scenario seed (default 7)\n\
           --steps <n>     samples to stream (default 3600)\n\
           --out-dir <dir> where scores.jsonl / events.jsonl / checkpoints go\n\
                           (default target/stream)"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 7u64;
    let mut steps = 3600u64;
    let mut out_dir = PathBuf::from("target/stream");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => seed = parse(it.next()),
            "--steps" => steps = parse(it.next()),
            "--out-dir" => out_dir = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let scenario_cfg = ScenarioConfig::smoke(seed);
    let drift_at = scenario_cfg.drift_at;
    let mut cfg = StreamConfig::smoke(out_dir.join("ckpt"));
    cfg.channels = scenario_cfg.channels;
    cfg.score_log = Some(out_dir.join("scores.jsonl"));
    cfg.event_log = Some(out_dir.join("events.jsonl"));

    let mut engine = StreamEngine::new(cfg).expect("engine setup");
    let mut scenario = DriftScenario::new(scenario_cfg.clone());
    let mut labels = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let (sample, label) = scenario.next_sample();
        labels.push(label);
        engine.push(&sample).expect("stream step failed");
    }
    let report = engine.finish().expect("engine shutdown");

    println!(
        "msd-stream: seed {seed}, {} samples, {} windows scored, {} drift event(s), {} swap(s), {} lost request(s)",
        report.samples, report.windows_scored, report.drifts, report.swaps, report.lost_requests
    );
    for rec in &report.swap_records {
        println!("  version {} published at step {}", rec.version, rec.step);
    }

    let mut failed = false;
    if report.drifts == 0 {
        eprintln!("FAIL: the scenario's regime shift raised no drift event");
        failed = true;
    }
    if report.swaps < 2 {
        eprintln!(
            "FAIL: no hot-swap happened (only {} publication(s))",
            report.swaps
        );
        failed = true;
    }
    if report.lost_requests != 0 {
        eprintln!(
            "FAIL: {} request(s) lost across the swap",
            report.lost_requests
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }

    // Point-adjusted F1 with the fixed threshold a deployed detector would
    // use: the quantile threshold frozen at each detector calibration. The
    // "before" segment is the stale-model window [drift_at, swap);
    // "after" is everything from the swap on.
    let swap_step = report.swap_records.last().unwrap().step;
    let threshold_at = |t: u64| -> Option<f32> {
        report
            .calibrations
            .iter()
            .rev()
            .find(|&&(s, _)| s <= t)
            .map(|&(_, thr)| thr)
    };
    let segment = |lo: u64, hi: u64, name: &str| -> f32 {
        let mut pred = Vec::new();
        let mut truth = Vec::new();
        for line_t_score in &report.score_lines {
            // Lines are `{"t":N,"score":S}`; parse the two numbers.
            let (t, score) = parse_score_line(line_t_score);
            if t < lo || t >= hi {
                continue;
            }
            let Some(thr) = threshold_at(t) else { continue };
            pred.push(score > thr);
            truth.push(labels[t as usize]);
        }
        let s = point_adjusted_scores(&pred, &truth);
        println!(
            "  F1 {name}: {:.3} (precision {:.3}, recall {:.3}, {} points)",
            s.f1,
            s.precision,
            s.recall,
            pred.len()
        );
        s.f1
    };
    let f1_before = segment(drift_at, swap_step, "before adaptation");
    let f1_after = segment(swap_step, steps, "after adaptation ");
    if f1_after <= f1_before {
        eprintln!("FAIL: adaptation did not improve F1 ({f1_before:.3} → {f1_after:.3})");
        std::process::exit(1);
    }
    println!("OK: adaptation improved point-adjusted F1 {f1_before:.3} → {f1_after:.3}");
}

/// Parses one score-log line `{"t":N,"score":S}`.
fn parse_score_line(line: &str) -> (u64, f32) {
    let t = line
        .split("\"t\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("malformed score line");
    let score = line
        .split("\"score\":")
        .nth(1)
        .and_then(|s| s.trim_end_matches('}').parse().ok())
        .expect("malformed score line");
    (t, score)
}

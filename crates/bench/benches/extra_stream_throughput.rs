//! Streaming-engine throughput: samples/sec and windows/sec through the
//! full ingestion → standardization → gateway-scored pipeline, plus the
//! per-score serve-latency percentiles.
//!
//! Drift detection runs but is configured to never trigger (`upper` far
//! above any reachable statistic), so the measurement is a steady-state
//! scoring run — the retrain path has its own gate and would only add a
//! one-off spike here. Wall-clock is reported in this table and nowhere
//! else: the engine's own logs stay replay-deterministic.
//!
//! Run with `cargo bench -p msd-bench --bench extra_stream_throughput`.
//! Rows append to `target/BENCH_stream.json` (one JSON object per line).

use std::io::Write as _;
use std::time::Instant;

use msd_serve::percentile;
use msd_stream::{DriftScenario, ScenarioConfig, StreamConfig, StreamEngine};
use msd_tensor::ops::kernels::{detected_tier, with_tier};

fn main() {
    // Measure the real dispatch tier, matching production serving: the
    // engine's serve workers inherit it through `Server::start`.
    with_tier(detected_tier(), run);
}

fn run() {
    let out_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_stream.json");
    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .expect("open target/BENCH_stream.json");

    let steps = 20_000u64;
    let root = std::env::temp_dir().join(format!("msd_stream_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let scenario_cfg = ScenarioConfig::smoke(7);
    let mut cfg = StreamConfig::smoke(root);
    cfg.channels = scenario_cfg.channels;
    cfg.drift.upper = 1e9; // steady-state scoring: never trigger a retrain
    let mut engine = StreamEngine::new(cfg).expect("engine setup");
    let mut scenario = DriftScenario::new(scenario_cfg);

    let t0 = Instant::now();
    for _ in 0..steps {
        let (sample, _) = scenario.next_sample();
        engine.push(&sample).expect("stream step");
    }
    let report = engine.finish().expect("engine shutdown");
    let elapsed = t0.elapsed().as_secs_f64();

    assert_eq!(report.lost_requests, 0, "bench run lost requests");
    assert!(report.windows_scored > 0, "bench run scored nothing");

    let samples_per_sec = steps as f64 / elapsed;
    let windows_per_sec = report.windows_scored as f64 / elapsed;
    let mut lat = report.latencies_us.clone();
    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 50), percentile(&lat, 99));

    println!(
        "stream throughput: {steps} samples in {elapsed:.2}s — {samples_per_sec:.0} samples/s, \
         {windows_per_sec:.0} windows/s, score latency p50 {p50}us p99 {p99}us"
    );
    writeln!(
        out,
        "{{\"kind\":\"stream_throughput\",\"samples\":{steps},\"windows\":{},\"samples_per_sec\":{samples_per_sec:.1},\"windows_per_sec\":{windows_per_sec:.1},\"score_p50_us\":{p50},\"score_p99_us\":{p99}}}",
        report.windows_scored
    )
    .expect("append stream row");
    println!("rows appended to target/BENCH_stream.json");
}

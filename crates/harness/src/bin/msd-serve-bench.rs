//! Serving throughput benchmark: per-sample sequential `predict` versus the
//! `msd-serve` batched runtime, on the same model, parameters, and request
//! set.
//!
//! The run is doubly gated:
//!
//! * **bit-identity** — every served response is byte-compared against the
//!   sequential reference; any mismatch aborts with a non-zero exit, so a
//!   throughput number can never be bought with changed outputs;
//! * **speedup** (opt-in via `--min-speedup`) — the served/sequential
//!   throughput ratio must clear the bar.
//!
//! Kernels run on the calling thread in both phases, so the comparison
//! isolates what the runtime adds: micro-batching plus worker-level
//! parallelism.
//!
//! The report is appended to `--out` (default `target/BENCH_serve.json`) as
//! one JSON object per line and echoed to stdout.

use std::io::Write as _;
use std::time::Duration;

use msd_harness::ModelSpec;
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_serve::loadgen::{run_open_loop, sequential_baseline, BenchReport, LoadSpec};
use msd_serve::{ServeConfig, Server};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn usage() -> ! {
    eprintln!(
        "usage: msd-serve-bench [options]\n\
           --requests <n>      requests to drive through both paths (default 512)\n\
           --max-batch <n>     micro-batch cap for the served run (default 32)\n\
           --workers <n>       serving worker threads (default 4)\n\
           --rate <rps>        open-loop arrival rate; 0 = flat out (default 0)\n\
           --min-speedup <f>   fail unless served/sequential >= f (default: report only)\n\
           --out <path>        JSONL report sink (default target/BENCH_serve.json)\n\
           --events <path>     serve runtime JSONL telemetry (optional)"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requests = 512usize;
    let mut max_batch = 32usize;
    let mut workers = 4usize;
    let mut rate_rps = 0.0f64;
    let mut min_speedup: Option<f64> = None;
    let mut out = String::from("target/BENCH_serve.json");
    let mut events: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--requests" => requests = parse(it.next()),
            "--max-batch" => max_batch = parse(it.next()),
            "--workers" => workers = parse(it.next()),
            "--rate" => rate_rps = parse(it.next()),
            "--min-speedup" => min_speedup = Some(parse(it.next())),
            "--out" => out = parse(it.next()),
            "--events" => events = Some(parse(it.next())),
            _ => usage(),
        }
    }
    let (channels, input_len, horizon) = (2usize, 96usize, 24usize);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(13);
    let spec = ModelSpec::MsdMixer(Variant::Full);
    let model = spec.build(
        &mut store,
        &mut rng,
        channels,
        input_len,
        Task::Forecast { horizon },
        16,
    );
    let inputs: Vec<Tensor> = (0..requests)
        .map(|_| Tensor::randn(&[1, channels, input_len], 1.0, &mut rng))
        .collect();

    eprintln!("sequential: {requests} x {}", spec.name());
    let (reference, sequential_rps) = sequential_baseline(&model, &store, &inputs);

    eprintln!("served: workers={workers} max_batch={max_batch} rate={rate_rps}");
    let server = Server::start(
        model,
        store,
        ServeConfig {
            max_batch,
            max_wait: Duration::from_micros(500),
            // Flat-out submission must not shed load: the whole request set
            // fits the queue, so rejects can only mean a runtime bug.
            queue_cap: requests.max(256),
            workers,
            events_path: events.map(Into::into),
            use_plans: true,
            ..ServeConfig::default()
        },
    )
    .expect("start serve runtime");
    let outcome = run_open_loop(
        &server,
        &inputs,
        &LoadSpec {
            requests,
            rate_rps,
            seed: 29,
            // Cap catch-up bursts at one micro-batch: a stall never floods
            // the queue with every overdue arrival at once, and the skew it
            // caused is reported in the JSONL row instead of hidden in p99.
            max_burst: max_batch,
        },
    );
    let stats = server.shutdown();

    let mut mismatches = 0usize;
    let mut failed = 0usize;
    for (i, resp) in outcome.responses.iter().enumerate() {
        match resp {
            Ok(y) => {
                let r = &reference[i];
                let same = y.shape() == r.shape()
                    && y.data()
                        .iter()
                        .zip(r.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    mismatches += 1;
                }
            }
            Err(e) => {
                eprintln!("request {i} failed: {e}");
                failed += 1;
            }
        }
    }
    assert_eq!(
        mismatches, 0,
        "served responses diverged from sequential predict"
    );
    assert_eq!(
        failed, 0,
        "requests were lost or rejected under a full-size queue"
    );

    let report = BenchReport {
        model: spec.name().to_string(),
        requests,
        workers,
        max_batch,
        sequential_rps,
        served_rps: outcome.throughput_rps,
        mean_batch: stats.mean_batch,
        p50_us: stats.p50_us,
        p95_us: stats.p95_us,
        p99_us: stats.p99_us,
        rejected: stats.rejected,
        skew_mean_us: outcome.skew_mean_us,
        skew_max_us: outcome.skew_max_us,
        reanchors: outcome.reanchors,
    };
    let line = report.to_json();
    println!("{line}");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .expect("open --out report file");
    writeln!(file, "{line}").expect("append report line");
    eprintln!(
        "speedup: {:.2}x (sequential {:.1} rps, served {:.1} rps, mean batch {:.1})",
        report.speedup(),
        sequential_rps,
        outcome.throughput_rps,
        stats.mean_batch
    );
    if let Some(bar) = min_speedup {
        if report.speedup() < bar {
            eprintln!(
                "FAIL: speedup {:.2}x below required {bar:.2}x",
                report.speedup()
            );
            std::process::exit(1);
        }
    }
}

//! End-to-end and per-layer benchmark of the MSD-Mixer stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path msdbench/Cargo.toml -- \
//!     --workload serve_mixer --seed 7 --seconds 30 --trace 0
//! ```
//!
//! Each invocation runs one workload in this process and prints, last, one
//! JSON line `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` is a separate run that times the benchmark's own calls into
//! each layer's public functions and reports the per-layer metrics. The
//! metric catalogue below must match `BENCHMARK.json` (a unit test checks).
//! The exit status is non-zero when any output check fails.

mod gw_edge;
mod peel;
mod probe;
mod serve_mixer;
mod stats;
mod stream_adapt;
mod train_step;

use probe::{CountingAlloc, Metrics};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload does not call reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("gateway.http_us", "us"),
    ("gateway.registry_us", "us"),
    ("gateway.edge_self_us", "us"),
    ("gateway.route_self_us", "us"),
    ("gateway.wire_us", "us"),
    ("gateway.allocs_per_req", "count"),
    ("gateway.replica_max_share", "share"),
    ("gateway.swap_ms", "ms"),
    ("serve.infer_us", "us"),
    ("serve.self_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.batch_fill", "share"),
    ("serve.plan_share", "share"),
    ("serve.allocs_per_req", "count"),
    ("serve.failed", "count"),
    ("autograd.plan_us", "us"),
    ("autograd.plan_batch_us", "us"),
    ("autograd.tape_us", "us"),
    ("autograd.plan_allocs", "count"),
    ("autograd.compile_ms", "ms"),
    ("harness.batch_ms", "ms"),
    ("harness.batch_allocs", "count"),
    ("harness.batch_alloc_mb", "MB"),
    ("harness.batch_faults", "count"),
    ("msd-mixer.forward_loss_ms", "ms"),
    ("msd-mixer.forward_loss_allocs", "count"),
    ("msd-mixer.forward_loss_alloc_mb", "MB"),
    ("msd-mixer.forward_loss_faults", "count"),
    ("autograd.backward_ms", "ms"),
    ("autograd.backward_allocs", "count"),
    ("autograd.backward_alloc_mb", "MB"),
    ("autograd.backward_faults", "count"),
    ("nn.optim_step_ms", "ms"),
    ("nn.optim_step_allocs", "count"),
    ("nn.optim_step_alloc_mb", "MB"),
    ("nn.optim_step_faults", "count"),
    ("nn.snapshot_ms", "ms"),
    ("nn.snapshot_allocs", "count"),
    ("nn.snapshot_alloc_mb", "MB"),
    ("nn.snapshot_faults", "count"),
    ("harness.val_ms", "ms"),
    ("harness.val_allocs", "count"),
    ("harness.val_alloc_mb", "MB"),
    ("harness.val_faults", "count"),
    ("harness.step_ms", "ms"),
    ("harness.fit_self_ms", "ms"),
    ("stream.ingest_us", "us"),
    ("stream.score_push_us", "us"),
    ("stream.ring_us", "us"),
    ("stream.scaler_us", "us"),
    ("stream.score_us", "us"),
    ("stream.drift_us", "us"),
    ("stream.engine_self_us", "us"),
    ("stream.adapt_ms", "ms"),
    ("stream.windows", "count"),
    ("stream.drifts", "count"),
    ("stream.swaps", "count"),
    ("stream.lost", "count"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minor_faults", "count"),
    ("proc.threads", "count"),
    ("host.steal_share", "share"),
];

const WORKLOADS: &[&str] = &["gw_edge", "serve_mixer", "stream_adapt"];

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    /// Wrong, missing, refused or errored ops.
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// A run with no ops yet and no failed check.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a failed output check; the run reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

/// A seed for one purpose (`salt`) derived from the workload seed
/// (splitmix64), so datasets, inits and inputs all move with `--seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn usage() -> ! {
    eprintln!(
        "usage: msdbench --workload <{}> [--seed N (default 1)] [--seconds S (default 30)] \
         [--trace 0|1 (default 0)]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    args
}

/// Formats a value as JSON; a failed op's infinite latency becomes the
/// largest finite double so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn main() {
    // The program reads MSD_CHAOS, MSD_TELEMETRY, MSD_PLAN,
    // MSD_KERNEL_FORCE, MSD_NUM_THREADS and more at run time: a variable
    // left in the caller's shell would change the program being measured.
    // Removed before any thread starts.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MSD_") {
            std::env::remove_var(&key);
        }
    }
    // Kernels run on the calling thread. At the default intra-op count
    // every large kernel spawns helper threads; on the 2-vCPU guest this
    // was sized on, four interleaved pairs of 12 s training runs gave
    // 168–245 samples/s against 346–366 with one thread, and `serve_mixer`
    // (two workers already on two vCPUs) lost a quarter of its throughput:
    // a spread no bound could hold. The host record prints the count.
    std::env::set_var("MSD_NUM_THREADS", "1");
    let args = parse_args();
    let start = probe::Sample::now();
    let mut out = match args.workload.as_str() {
        "gw_edge" => gw_edge::run(&args),
        "serve_mixer" => serve_mixer::run(&args),
        "stream_adapt" => stream_adapt::run(&args),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    out.check(out.attempted > 0, || "no op was attempted".into());
    start.metrics_since(&mut out.metrics);

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in probe::host_record() {
        println!("  {line}");
    }
    println!(
        "  host steal share over the run: {:.4}",
        out.metrics.get("host.steal_share").unwrap_or(0.0)
    );
    for line in &out.notes {
        println!("  {line}");
    }
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            // Per-layer: this workload does not call the layer.
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        println!("  {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(value)
        ));
    }
    println!(
        "  ops attempted {} failed {}{}",
        out.attempted,
        out.failed,
        if out.correct {
            ""
        } else {
            " — OUTPUT CHECKS FAILED"
        }
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(",")
    );
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue above is the one `BENCHMARK.json` declares.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{key}\"")).nth(1).expect("section");
            let body = &body[..body.find(']').expect("array end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        entry
                            .split(&format!("\"{f}\":"))
                            .nth(1)
                            .and_then(|v| v.split('"').nth(1))
                            .expect("field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
        let workloads = section_names(&json, "workloads");
        assert_eq!(workloads, WORKLOADS);
    }

    fn section_names(json: &str, key: &str) -> Vec<String> {
        let body = json.split(&format!("\"{key}\"")).nth(1).expect("section");
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\":")
            .skip(1)
            .filter_map(|v| v.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn derived_seeds_differ_by_salt_and_seed() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}

//! Kernel-layer throughput: SIMD dispatch kernels versus their naive
//! reference oracles, plus end-to-end numbers (epoch time, serve-path batch
//! latency) on the model the kernels feed.
//!
//! Every microbench first byte-compares the kernel output against the
//! oracle on the same buffer, so a throughput row can never hide a numerics
//! change. The bench *fails* (non-zero exit) if the fused LayerNorm or GELU
//! kernels fall below a floor of 1.1x over the naive loops.
//!
//! Run with `cargo bench -p msd-bench --bench extra_kernel_throughput`.
//! Rows append to `target/BENCH_kernels.json` (one JSON object per line).

use std::io::Write as _;
use std::time::Instant;

use msd_harness::{fit, ForecastSource, ModelSpec, TrainConfig};
use msd_data::{Split, SlidingWindows};
use msd_mixer::variants::Variant;
use msd_nn::{Model, ParamStore, Task};
use msd_tensor::ops::kernels::{ew, norm, oracle, reduce};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Best-of-k wall time for `f`, in seconds, after one warmup call.
fn time_best(k: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..k {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn assert_same_bits(a: &[f32], b: &[f32], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: kernel and oracle disagree at element {i} ({x} vs {y})"
        );
    }
}

struct KernelRow {
    name: &'static str,
    bytes: usize,
    kernel_gbps: f64,
    oracle_gbps: f64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.kernel_gbps / self.oracle_gbps
    }
    fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"kernel\",\"name\":\"{}\",\"bytes\":{},\"kernel_gbps\":{:.3},\"oracle_gbps\":{:.3},\"speedup\":{:.3}}}",
            self.name,
            self.bytes,
            self.kernel_gbps,
            self.oracle_gbps,
            self.speedup()
        )
    }
}

fn bench_kernel(
    name: &'static str,
    bytes: usize,
    reps: usize,
    mut kernel: impl FnMut(),
    mut naive: impl FnMut(),
) -> KernelRow {
    let tk = time_best(reps, &mut kernel);
    let to = time_best(reps, &mut naive);
    KernelRow {
        name,
        bytes,
        kernel_gbps: bytes as f64 / tk / 1e9,
        oracle_gbps: bytes as f64 / to / 1e9,
    }
}

fn main() {
    // The floor gate measures the real dispatch tier: a CI matrix entry
    // that pins MSD_KERNEL_FORCE=scalar would otherwise compare the scalar
    // tier against the scalar oracle and trivially miss the floor.
    std::env::set_var("MSD_KERNEL_FORCE", "auto");
    let out_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_kernels.json");
    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .expect("open target/BENCH_kernels.json");

    let mut rng = Rng::seed_from(41);
    let n = 1usize << 20;
    let x: Vec<f32> = (0..n).map(|_| rng.normal() * 2.0).collect();
    let y: Vec<f32> = (0..n).map(|_| rng.normal() * 2.0).collect();
    let mut buf_k = vec![0.0f32; n];
    let mut buf_o = vec![0.0f32; n];
    let reps = 12;

    println!("kernel throughput (n = {n} elements)");
    println!(
        "{:>14} {:>12} {:>12} {:>9}",
        "kernel", "GB/s", "oracle GB/s", "speedup"
    );

    let mut rows = Vec::new();

    // Correctness check once per kernel, then time.
    ew::gelu(&x, &mut buf_k);
    oracle::gelu(&x, &mut buf_o);
    assert_same_bits(&buf_k, &buf_o, "gelu");
    rows.push(bench_kernel(
        "gelu",
        8 * n,
        reps,
        || ew::gelu(&x, &mut buf_k),
        || oracle::gelu(&x, &mut buf_o),
    ));

    ew::gelu_bwd(&x, &y, &mut buf_k);
    oracle::gelu_bwd(&x, &y, &mut buf_o);
    assert_same_bits(&buf_k, &buf_o, "gelu_bwd");
    rows.push(bench_kernel(
        "gelu_bwd",
        12 * n,
        reps,
        || ew::gelu_bwd(&x, &y, &mut buf_k),
        || oracle::gelu_bwd(&x, &y, &mut buf_o),
    ));

    assert!(reduce::sum(&x).to_bits() == oracle::sum(&x).to_bits(), "sum mismatch");
    rows.push(bench_kernel(
        "sum",
        4 * n,
        reps,
        || {
            std::hint::black_box(reduce::sum(&x));
        },
        || {
            std::hint::black_box(oracle::sum(&x));
        },
    ));

    assert!(reduce::dot(&x, &y).to_bits() == oracle::dot(&x, &y).to_bits(), "dot mismatch");
    rows.push(bench_kernel(
        "dot",
        8 * n,
        reps,
        || {
            std::hint::black_box(reduce::dot(&x, &y));
        },
        || {
            std::hint::black_box(oracle::dot(&x, &y));
        },
    ));

    // LayerNorm forward over [rows, d] = full kernel vs naive loops.
    let (rows_ln, d) = (2048usize, 512usize);
    let ln_n = rows_ln * d;
    let gamma: Vec<f32> = (0..d).map(|_| 1.0 + 0.1 * rng.normal()).collect();
    let beta: Vec<f32> = (0..d).map(|_| 0.1 * rng.normal()).collect();
    let (mut mean_k, mut rstd_k) = (vec![0.0f32; rows_ln], vec![0.0f32; rows_ln]);
    let (mut mean_o, mut rstd_o) = (vec![0.0f32; rows_ln], vec![0.0f32; rows_ln]);
    norm::layernorm_fwd(&x[..ln_n], d, &gamma, &beta, 1e-5, &mut buf_k[..ln_n], &mut mean_k, &mut rstd_k);
    oracle::layernorm_fwd(&x[..ln_n], d, &gamma, &beta, 1e-5, &mut buf_o[..ln_n], &mut mean_o, &mut rstd_o);
    assert_same_bits(&buf_k[..ln_n], &buf_o[..ln_n], "layernorm_fwd");
    assert_same_bits(&mean_k, &mean_o, "layernorm mean");
    rows.push(bench_kernel(
        "layernorm_fwd",
        8 * ln_n,
        reps,
        || norm::layernorm_fwd(&x[..ln_n], d, &gamma, &beta, 1e-5, &mut buf_k[..ln_n], &mut mean_k, &mut rstd_k),
        || oracle::layernorm_fwd(&x[..ln_n], d, &gamma, &beta, 1e-5, &mut buf_o[..ln_n], &mut mean_o, &mut rstd_o),
    ));

    for row in &rows {
        writeln!(out, "{}", row.to_json()).expect("append BENCH_kernels.json row");
        println!(
            "{:>14} {:>12.2} {:>12.2} {:>8.2}x",
            row.name,
            row.kernel_gbps,
            row.oracle_gbps,
            row.speedup()
        );
    }

    // End-to-end: epoch time of a short forecasting fit on the full mixer.
    let data = Tensor::from_vec(&[1, 600], (0..600).map(|i| (i as f32 / 4.0).sin()).collect());
    let train_src = ForecastSource::new(SlidingWindows::new(&data, 48, 12, Split::Train), 96);
    let mut store = ParamStore::new();
    let mut mrng = Rng::seed_from(13);
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut mrng,
        1,
        48,
        Task::Forecast { horizon: 12 },
        16,
    );
    let epochs = 2usize;
    let t0 = Instant::now();
    let report = fit(
        &model,
        &mut store,
        &train_src,
        None,
        &TrainConfig {
            epochs,
            batch_size: 16,
            lr: 1e-3,
            seed: 7,
            ..TrainConfig::default()
        },
    );
    let epoch_secs = t0.elapsed().as_secs_f64() / report.epochs_run.max(1) as f64;
    writeln!(
        out,
        "{{\"kind\":\"epoch\",\"model\":\"msd_mixer_full\",\"epochs\":{},\"secs_per_epoch\":{epoch_secs:.4}}}",
        report.epochs_run
    )
    .expect("append epoch row");
    println!("epoch time: {epoch_secs:.3}s/epoch over {} epochs", report.epochs_run);

    // Serve-path latency: per-sample cost of the batched worker forward.
    let batch: Vec<Tensor> = (0..8)
        .map(|_| Tensor::randn(&[1, 1, 48], 1.0, &mut mrng))
        .collect();
    let serve_best = time_best(8, || {
        std::hint::black_box(model.predict_batch(&store, &batch));
    });
    let us_per_sample = serve_best / batch.len() as f64 * 1e6;
    writeln!(
        out,
        "{{\"kind\":\"serve_latency\",\"model\":\"msd_mixer_full\",\"batch\":{},\"us_per_sample\":{us_per_sample:.1}}}",
        batch.len()
    )
    .expect("append serve row");
    println!("serve batch latency: {us_per_sample:.1}us/sample (batch of {})", batch.len());
    println!("rows appended to target/BENCH_kernels.json");

    // CI gate: the fused hot kernels must clear the single-core-safe floor.
    for name in ["gelu", "layernorm_fwd"] {
        let row = rows.iter().find(|r| r.name == name).unwrap();
        assert!(
            row.speedup() >= 1.1,
            "{name} kernel speedup {:.2}x is below the 1.1x floor over the naive oracle",
            row.speedup()
        );
    }
}

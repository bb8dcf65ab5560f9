//! Compiled-plan serving latency: `Model::predict_plan` (AOT plan + reused
//! arena) versus `Model::predict` (tape rebuilt per call) on every
//! task-general zoo model, single-sample — the serving hot path.
//!
//! Each model is first byte-compared plan-vs-tape on the bench input, so a
//! latency row can never hide a numerics change. The bench *fails* (non-zero
//! exit) if the plan path falls below the 1.1x floor the serving runtime's
//! default (`use_plans: true`) is predicated on.
//!
//! Run with `cargo bench -p msd-bench --bench extra_plan_latency`.
//! Rows append to `target/BENCH_kernels.json` (one JSON object per line).

use std::io::Write as _;
use std::time::Instant;

use msd_autograd::PlanArena;
use msd_harness::ModelSpec;
use msd_nn::{Model, ParamStore, Task};
use msd_tensor::ops::kernels::{detected_tier, with_tier};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Best single-call wall time of `calls` calls of `f`, in seconds.
fn time_best(calls: usize, f: &mut impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..calls {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best single-call wall times of `plan` and `tape`, in seconds, over
/// `rounds` rounds of `calls` calls per side, after one warmup call each.
/// The sides alternate in short rounds (plan first on even rounds, tape
/// first on odd ones), so a host stall of a few hundred microseconds costs
/// both sides a round instead of reading as one side's slowdown.
fn time_best_alternating(
    rounds: usize,
    calls: usize,
    mut plan: impl FnMut(),
    mut tape: impl FnMut(),
) -> (f64, f64) {
    plan();
    tape();
    let (mut best_plan, mut best_tape) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds {
        if round % 2 == 0 {
            best_plan = best_plan.min(time_best(calls, &mut plan));
            best_tape = best_tape.min(time_best(calls, &mut tape));
        } else {
            best_tape = best_tape.min(time_best(calls, &mut tape));
            best_plan = best_plan.min(time_best(calls, &mut plan));
        }
    }
    (best_plan, best_tape)
}

fn main() {
    // Measure the real dispatch tier, matching production serving.
    with_tier(detected_tier(), run);
}

fn run() {
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

    let (channels, input_len, horizon, d_model) = (2usize, 48usize, 12usize, 8usize);
    // 200 timed calls per side, in 20 alternating rounds of 10.
    let (rounds, calls) = (20, 10);

    println!("plan vs tape, single-sample predict ([1, {channels}, {input_len}])");
    println!(
        "{:>12} {:>12} {:>12} {:>9}",
        "model", "plan us", "tape us", "speedup"
    );

    let mut worst = f64::INFINITY;
    let mut log_speedup_sum = 0.0f64;
    let mut n_models = 0usize;
    for (i, spec) in ModelSpec::TASK_GENERAL.iter().enumerate() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0xBE + i as u64);
        let model = spec.build(
            &mut store,
            &mut rng,
            channels,
            input_len,
            Task::Forecast { horizon },
            d_model,
        );
        let x = Tensor::randn(&[1, channels, input_len], 1.0, &mut rng);

        let plan = model
            .compile_plan(&store, x.shape())
            .unwrap_or_else(|e| panic!("{}: plan compile failed: {e}", spec.name()));
        let mut arena = PlanArena::new();

        // Bit-identity first: a latency row must never hide a numerics change.
        let reference = model.predict(&store, &x);
        let got = model.predict_plan(&plan, &store, &x, &mut arena);
        assert_eq!(reference.shape(), got.shape(), "{}: shape", spec.name());
        for (j, (a, b)) in reference.data().iter().zip(got.data()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{}: plan and tape disagree at element {j} ({a} vs {b})",
                spec.name()
            );
        }

        let (t_plan, t_tape) = time_best_alternating(
            rounds,
            calls,
            || {
                std::hint::black_box(model.predict_plan(&plan, &store, &x, &mut arena));
            },
            || {
                std::hint::black_box(model.predict(&store, &x));
            },
        );
        let speedup = t_tape / t_plan;
        worst = worst.min(speedup);
        log_speedup_sum += speedup.ln();
        n_models += 1;
        writeln!(
            out,
            "{{\"kind\":\"plan_latency\",\"model\":\"{}\",\"plan_us\":{:.2},\"tape_us\":{:.2},\"speedup\":{:.3},\"arena_f32\":{}}}",
            spec.name(),
            t_plan * 1e6,
            t_tape * 1e6,
            speedup,
            plan.arena_len(1)
        )
        .expect("append plan row");
        println!(
            "{:>12} {:>12.2} {:>12.2} {:>8.2}x",
            spec.name(),
            t_plan * 1e6,
            t_tape * 1e6,
            speedup
        );
    }
    let geomean = (log_speedup_sum / n_models as f64).exp();
    println!("geomean speedup: {geomean:.2}x (worst {worst:.2}x)");
    println!("rows appended to target/BENCH_kernels.json");

    // CI gate: plans must beat the tape clearly in aggregate and must never
    // be slower on any single model, or serving's plans-by-default decision
    // is wrong. (Expected margins: ~1.5x geomean, worst model ~1.12x; the
    // worst-case floor is 1.0 so a noisy-neighbour CI host can't flake it.)
    assert!(
        geomean >= 1.1,
        "geomean plan-vs-tape speedup {geomean:.2}x is below the 1.1x floor"
    );
    assert!(
        worst >= 1.0,
        "a zoo model is slower through its plan than the tape ({worst:.2}x)"
    );
}

//! Command-line entry point for running any experiment family outside the
//! bench harness.
//!
//! ```sh
//! cargo run --release -p msd-harness --bin msd-experiment -- long-term
//! MSD_SCALE=smoke cargo run --release -p msd-harness --bin msd-experiment -- all
//! ```

use msd_harness::experiments::{
    ablation, anomaly, case_study, classification, imputation, long_term, short_term,
};
use msd_harness::{Scale, TrainConfig};

fn usage() -> ! {
    eprintln!(
        "usage: msd-experiment <family> [options]\n\
         families: long-term | short-term | imputation | anomaly |\n\
                   classification | ablation | case-study | smoke |\n\
                   ckpt-smoke | plan-dump | all\n\
         options:\n\
           --telemetry <path>       append JSONL training telemetry to <path>\n\
           --max-retries <n>        divergence retries before abort\n\
           --lr-backoff <f>         lr multiplier per rollback\n\
           --checkpoint-dir <dir>   durable crash-safe checkpoints\n\
           --checkpoint-every <n>   applied batches between checkpoints\n\
           --resume                 resume from the newest valid checkpoint\n\
           --kill-after <n>         fault injection: die after n applied batches\n\
           --save-params <path>     (ckpt-smoke) save final parameters for diffing\n\
         scale via MSD_SCALE=smoke|fast|full (default fast);\n\
         results cached under target/msd-results/;\n\
         'smoke' trains a tiny model (with one injected NaN batch) to\n\
         exercise the telemetry + recovery path in seconds;\n\
         'plan-dump' compiles each task-general model into an inference\n\
         plan and prints its ordered ops, fusions, and arena size, then\n\
         profiles MSD-Mixer's plan per step at batch 1 and 8;\n\
         'ckpt-smoke' trains a tiny deterministic forecaster for the\n\
         kill-and-resume bit-identity check"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut family: Option<String> = None;
    let mut save_params: Option<String> = None;
    // The flags fill one base config; every fit of the chosen family starts
    // from it and sets only its own epochs, batch size, lr and seed.
    let mut base = TrainConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--telemetry" => match it.next() {
                Some(v) => base.telemetry = Some(v.into()),
                None => usage(),
            },
            "--max-retries" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => base.max_retries = v,
                None => usage(),
            },
            "--lr-backoff" => match it.next().and_then(|v| v.parse::<f32>().ok()) {
                Some(v) => base.lr_backoff = v,
                None => usage(),
            },
            "--checkpoint-dir" => match it.next() {
                Some(v) => base.checkpoint_dir = Some(v.into()),
                None => usage(),
            },
            "--checkpoint-every" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => base.checkpoint_every = v,
                None => usage(),
            },
            "--resume" => base.resume = true,
            "--kill-after" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => base.kill_after_batches = Some(v),
                None => usage(),
            },
            "--save-params" => match it.next() {
                Some(v) => save_params = Some(v.clone()),
                None => usage(),
            },
            f if !f.starts_with('-') && family.is_none() => family = Some(f.to_string()),
            _ => usage(),
        }
    }
    let family = family.unwrap_or_else(|| usage());
    let scale = Scale::from_env();
    eprintln!("running '{family}' at scale '{}'", scale.name());
    let base = &base;
    match family.as_str() {
        "long-term" => run_long_term(scale, base),
        "short-term" => run_short_term(scale, base),
        "imputation" => run_imputation(scale, base),
        "anomaly" => run_anomaly(scale, base),
        "classification" => run_classification(scale, base),
        "ablation" => run_ablation(scale, base),
        "case-study" => run_case_study(scale, base),
        "smoke" => run_smoke(base),
        "ckpt-smoke" => run_ckpt_smoke(base, save_params.as_deref()),
        "plan-dump" => run_plan_dump(),
        "all" => {
            run_long_term(scale, base);
            run_short_term(scale, base);
            run_imputation(scale, base);
            run_anomaly(scale, base);
            run_classification(scale, base);
            run_ablation(scale, base);
            run_case_study(scale, base);
        }
        _ => usage(),
    }
}

/// A seconds-long end-to-end check of the training runtime: trains a tiny
/// DLinear forecaster on a synthetic sine with one NaN-poisoned batch
/// injected mid-run, so the emitted telemetry (`--telemetry`) demonstrates
/// the full recovery path: non-finite detection, rollback, optimiser reset,
/// lr backoff, and a finished run.
fn run_smoke(base: &TrainConfig) {
    use msd_harness::{fit, BatchSource, ModelSpec};
    use msd_nn::{ParamStore, Task};
    use msd_tensor::{rng::Rng, Tensor};

    struct SmokeSource {
        calls: std::cell::Cell<usize>,
    }

    impl BatchSource for SmokeSource {
        fn len(&self) -> usize {
            128
        }

        fn batch(&self, indices: &[usize]) -> (msd_tensor::Tensor, msd_mixer::Target) {
            let n = indices.len();
            let call = self.calls.get();
            self.calls.set(call + 1);
            let mut x = Tensor::zeros(&[n, 1, 24]);
            let mut y = Tensor::zeros(&[n, 1, 8]);
            for (b, &i) in indices.iter().enumerate() {
                for t in 0..24 {
                    x.data_mut()[b * 24 + t] = ((i + t) as f32 / 4.0).sin();
                }
                for t in 0..8 {
                    y.data_mut()[b * 8 + t] = ((i + 24 + t) as f32 / 4.0).sin();
                }
            }
            if call == 5 {
                x.data_mut()[0] = f32::NAN;
            }
            (x, msd_mixer::Target::Series(y))
        }
    }

    let src = SmokeSource {
        calls: std::cell::Cell::new(0),
    };
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(7);
    let model = ModelSpec::DLinear.build(
        &mut store,
        &mut rng,
        1,
        24,
        Task::Forecast { horizon: 8 },
        8,
    );
    let report = fit(
        &model,
        &mut store,
        &src,
        None,
        &TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 5e-3,
            ..base.clone()
        },
    );
    println!(
        "smoke,epochs={},skipped={},rollbacks={},aborted={},final_loss={:.5}",
        report.epochs_run,
        report.skipped_batches,
        report.rollbacks,
        report.aborted.is_some(),
        report.train_losses.last().copied().unwrap_or(f32::NAN),
    );
    assert_eq!(
        report.skipped_batches, 1,
        "smoke run must hit the injected NaN"
    );
    assert_eq!(report.rollbacks, 1, "smoke run must recover via rollback");
    assert!(report.aborted.is_none(), "smoke run must not abort");
    assert!(
        report.train_losses.last().unwrap().is_finite(),
        "smoke run diverged"
    );
}

/// Deterministic kill-and-resume smoke: trains a tiny mixer forecaster on
/// an *index-pure* sine source (batch content depends only on the sampled
/// indices, never on call order, so a resumed process sees exactly the
/// data an uninterrupted one would). Checkpointing, resume, and fault
/// injection are all driven by the shared `--checkpoint-dir` /
/// `--resume` / `--kill-after` flags; `--save-params` writes the final
/// parameters so the tier-1 gate can byte-compare runs.
fn run_ckpt_smoke(base: &TrainConfig, save_params: Option<&str>) {
    use msd_data::{SlidingWindows, Split};
    use msd_harness::{fit, ForecastSource, ModelSpec};
    use msd_mixer::variants::Variant;
    use msd_nn::{ParamStore, Task};
    use msd_tensor::{rng::Rng, Tensor};

    let data = Tensor::from_vec(
        &[1, 400],
        (0..400).map(|i| (i as f32 / 4.0).sin()).collect(),
    );
    let windows = SlidingWindows::new(&data, 24, 8, Split::Train);
    let src = ForecastSource::new(windows, 48);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(9);
    let model = ModelSpec::MsdMixer(Variant::Full).build(
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
        &src,
        None,
        &TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 5e-3,
            seed: 11,
            ..base.clone()
        },
    );
    println!(
        "ckpt-smoke,epochs={},batches={},aborted={},resumed={},final_loss={:.6}",
        report.epochs_run,
        report.telemetry.batches,
        report.aborted.is_some(),
        report.resumed_from.is_some(),
        report.train_losses.last().copied().unwrap_or(f32::NAN),
    );
    if let Some(path) = save_params {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).expect("cannot create --save-params file"),
        );
        msd_nn::store::save(&store, &mut file).expect("cannot save parameters");
    }
}

fn run_long_term(scale: Scale, base: &TrainConfig) {
    for r in long_term::results(scale, base) {
        println!(
            "long-term,{},{},{},{:.4},{:.4}",
            r.dataset, r.horizon, r.model, r.mse, r.mae
        );
    }
}

fn run_short_term(scale: Scale, base: &TrainConfig) {
    for r in short_term::results(scale, base) {
        println!(
            "short-term,{},{},{:.4},{:.4},{:.4}",
            r.subset, r.model, r.smape, r.mase, r.owa
        );
    }
}

fn run_imputation(scale: Scale, base: &TrainConfig) {
    for r in imputation::results(scale, base) {
        println!(
            "imputation,{},{},{},{:.4},{:.4}",
            r.dataset, r.ratio, r.model, r.mse, r.mae
        );
    }
}

fn run_anomaly(scale: Scale, base: &TrainConfig) {
    for r in anomaly::results(scale, base) {
        println!(
            "anomaly,{},{},{:.2},{:.2},{:.2}",
            r.dataset, r.model, r.precision, r.recall, r.f1
        );
    }
}

fn run_classification(scale: Scale, base: &TrainConfig) {
    for r in classification::results(scale, base) {
        println!("classification,{},{},{:.4}", r.dataset, r.model, r.accuracy);
    }
}

fn run_ablation(scale: Scale, base: &TrainConfig) {
    for r in ablation::results(scale, base) {
        println!(
            "ablation,{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            r.variant, r.long_mse, r.owa, r.imp_mse, r.f1, r.acc
        );
    }
}

fn run_case_study(scale: Scale, base: &TrainConfig) {
    for r in case_study::results(scale, base) {
        println!(
            "case-study,{},{:.5},{:.4},{:.4}",
            r.model, r.residual_energy, r.residual_acf_violation, r.explained_energy
        );
    }
}

/// Compiles every task-general model into an inference plan for a small
/// forecasting shape and dumps the plan: ordered kernel steps with their
/// batch-proportional axes marked, fusion decisions, and the solved arena
/// as `S·b + F` lanes — first for the f32 store, then
/// re-loaded from an int8 artifact and lowered, so the dump shows the
/// artifact tier and each step's kernel precision (`[int8]` suffix).
/// Models whose forwards are not yet plan-compilable report the typed
/// compile error instead (they serve via the tape fallback).
fn run_plan_dump() {
    use msd_harness::ModelSpec;
    use msd_nn::{ArtifactReader, ArtifactWriter, Model, ParamStore, PrecisionTier, Task};
    use msd_tensor::rng::Rng;

    let (channels, input_len, horizon, d_model) = (2, 48, 12, 8);
    let task = Task::Forecast { horizon };
    for (i, spec) in ModelSpec::TASK_GENERAL.iter().enumerate() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0xD0 + i as u64);
        let model = spec.build(
            &mut store,
            &mut rng,
            channels,
            input_len,
            task.clone(),
            d_model,
        );
        println!(
            "== {} ([b, {channels}, {input_len}] -> horizon {horizon})",
            model.name()
        );
        println!("-- artifact tier: {}", store.tier());
        let plan = match model.compile_plan(&store, &[1, channels, input_len]) {
            Ok(plan) => plan,
            Err(e) => {
                println!("  not plan-compilable: {e}");
                continue;
            }
        };
        print!("{}", plan.describe());

        // The same architecture served from an int8 artifact: quantize and
        // reload; `compile_plan` lowers the plan, and the dump tags each
        // lowered step's kernel precision.
        let bytes = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&store)
            .expect("fresh weights are finite");
        let mut qstore = ParamStore::new();
        let mut rng = Rng::seed_from(0xD0 + i as u64);
        let _ = spec.build(
            &mut qstore,
            &mut rng,
            channels,
            input_len,
            task.clone(),
            d_model,
        );
        ArtifactReader::decode(&bytes)
            .and_then(|r| r.load_into(&mut qstore))
            .expect("int8 round trip");
        match model.compile_plan(&qstore, &[1, channels, input_len]) {
            Ok(plan) => {
                println!(
                    "-- artifact tier: {} ({}/{} steps lowered)",
                    qstore.tier(),
                    plan.int8_steps(),
                    plan.steps()
                );
                print!("{}", plan.describe());
            }
            Err(e) => println!("  int8 store not plan-compilable: {e}"),
        }
    }
    print_plan_profile();
}

/// Profiles one MSD-Mixer plan at msdbench serve_mixer's shape (C = 7,
/// L = H = 96, d_model 16) at batch 1 and 8, one step at a time: the
/// median µs of each step, its share of the plan (the sum of step
/// medians), and the GFLOP/s of its matrix products against a 512³
/// `sgemm_strided` peak (the fastest of seven runs) measured first on this
/// thread. A per-kind summary follows each table.
fn print_plan_profile() {
    use msd_harness::ModelSpec;
    use msd_mixer::variants::Variant;
    use msd_nn::{Model, ParamStore, Task};
    use msd_tensor::ops::gemm::sgemm_strided;
    use msd_tensor::rng::Rng;
    use msd_tensor::Tensor;
    use std::time::Instant;

    let s = 512;
    let mut rng = Rng::seed_from(0x9EA4);
    let a: Vec<f32> = (0..s * s).map(|_| rng.normal()).collect();
    let b: Vec<f32> = (0..s * s).map(|_| rng.normal()).collect();
    let mut c = vec![0.0f32; s * s];
    let fastest = (0..7)
        .map(|_| {
            let t = Instant::now();
            sgemm_strided(s, s, s, &a, s, 1, &b, s, 1, &mut c);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let peak = 2.0 * (s * s * s) as f64 / fastest / 1e9;

    let (channels, len, d_model) = (7, 96, 16);
    let mut store = ParamStore::new();
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut rng,
        channels,
        len,
        Task::Forecast { horizon: len },
        d_model,
    );
    println!(
        "== plan profile: {} ([b, {channels}, {len}] -> horizon {len}, d_model {d_model}); \
         sgemm_strided {s}³ peak {peak:.1} GFLOP/s",
        model.name()
    );
    // One plan serves both batches.
    let plan = model
        .compile_plan(&store, &[1, channels, len])
        .expect("MSD-Mixer compiles");
    println!(
        "   one plan: arena {} f32 at batch 1, {} at batch 8",
        plan.arena_len(1),
        plan.arena_len(8)
    );
    for batch in [1, 8] {
        let x = Tensor::randn(&[batch, channels, len], 1.0, &mut rng);
        let mut arena = msd_autograd::PlanArena::new();
        let steps = plan.profile(&store, &model.plan_prelude(&x), &mut arena, 200 / batch);
        let total: f64 = steps.iter().map(|st| st.us).sum();
        let gflops = |flops: usize, us: f64| {
            if flops == 0 {
                "-".to_string()
            } else {
                let g = flops as f64 / us / 1e3;
                format!("{g:.1} ({:.0}%)", 100.0 * g / peak)
            }
        };
        println!(
            "-- batch {batch}: {} steps, {total:.1} µs (sum of step medians)",
            steps.len()
        );
        println!(
            "  {:<5} {:<12} {:<18} {:>9} {:>6}  GFLOP/s (of peak)",
            "step", "kind", "shape", "µs", "share"
        );
        for st in &steps {
            println!(
                "  %{:<4} {:<12} {:<18} {:>9.1} {:>5.1}%  {}",
                st.step,
                st.kind,
                format!("{:?}", st.shape),
                st.us,
                100.0 * st.us / total,
                gflops(st.flops, st.us)
            );
        }
        let mut kinds: Vec<(&str, usize, f64, usize)> = Vec::new();
        for st in &steps {
            match kinds.iter_mut().find(|k| k.0 == st.kind) {
                Some(k) => {
                    k.1 += 1;
                    k.2 += st.us;
                    k.3 += st.flops;
                }
                None => kinds.push((st.kind, 1, st.us, st.flops)),
            }
        }
        kinds.sort_by(|x, y| y.2.total_cmp(&x.2));
        println!("  by kind:");
        for (kind, count, us, flops) in kinds {
            println!(
                "    {kind:<12} {count:>4} steps {us:>9.1} µs {:>5.1}%  {}",
                100.0 * us / total,
                gflops(flops, us)
            );
        }
    }
}

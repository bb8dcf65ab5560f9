//! The compiled-plan serving gate: for every task-general model, a
//! [`CompiledPlan`] produced by `Model::compile_plan` must be bit-identical
//! to per-sample `Model::predict` — across batch compositions and every
//! kernel dispatch tier (`MSD_KERNEL_FORCE`).
//!
//! The reference is computed once with kernels pinned to the scalar tier;
//! plans compiled and executed under every tier must reproduce it bit for
//! bit, through a single recycled [`PlanArena`] so stale-buffer reuse is
//! also under test.
//!
//! One `#[test]` on purpose: it mutates the process-wide `MSD_KERNEL_FORCE`
//! variable, so the sweep must run sequentially in a single test.

use msd_autograd::PlanArena;
use msd_harness::ModelSpec;
use msd_nn::{Model, ParamStore, Task};
use msd_tensor::ops::kernels::{detected_tier, tier, Tier};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Sets `MSD_KERNEL_FORCE` and asserts that kernels now dispatch to the tier
/// it names: a tier read that cached the variable would turn the scalar leg
/// into a silent auto-vs-auto comparison.
fn force_tier(force: &str) {
    std::env::set_var("MSD_KERNEL_FORCE", force);
    let want = match force {
        "scalar" => Tier::Scalar,
        _ => detected_tier(),
    };
    assert_eq!(tier(), want, "MSD_KERNEL_FORCE={force} must take effect");
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} ({x} vs {y})"
        );
    }
}

#[test]
fn compiled_plans_bit_identical_to_predict_for_all_models_tiers_threads() {
    let saved_force = std::env::var("MSD_KERNEL_FORCE").ok();
    let (channels, input_len, horizon, d_model) = (2usize, 48usize, 12usize, 8usize);
    let pool = 6usize;

    for spec in ModelSpec::TASK_GENERAL {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(29);
        let model = spec.build(
            &mut store,
            &mut rng,
            channels,
            input_len,
            Task::Forecast { horizon },
            d_model,
        );
        let samples: Vec<Tensor> = (0..pool)
            .map(|_| Tensor::randn(&[1, channels, input_len], 1.0, &mut rng))
            .collect();

        force_tier("scalar");
        let reference: Vec<Tensor> =
            samples.iter().map(|x| model.predict(&store, x)).collect();

        for force in ["scalar", "auto"] {
            force_tier(force);
            let label = |rest: &str| format!("{} force={force} {rest}", spec.name());

            // Every zoo model must be plan-compilable — a regression to
            // the tape fallback would silently lose the latency win.
            let plan = model
                .compile_plan(&store, &[1, channels, input_len])
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", label("")));

            // One arena recycled across the whole sweep, per-sample.
            let mut arena = PlanArena::new();
            for (i, x) in samples.iter().enumerate() {
                let got = model.predict_plan(&plan, &store, x, &mut arena);
                assert_bits_equal(&got, &reference[i], &label(&format!("sample={i}")));
            }

            // Batched compositions: a plan compiled for [B, C, L] must
            // reproduce the packed tape prediction bit for bit, and
            // unpack to the per-sample references.
            let mut comp_rng = Rng::seed_from(31);
            for trial in 0..4 {
                let size = 1 + comp_rng.below(pool);
                let picks: Vec<usize> = (0..size).map(|_| comp_rng.below(pool)).collect();
                let batch: Vec<&Tensor> = picks.iter().map(|&i| &samples[i]).collect();
                let packed = Tensor::concat(&batch, 0);
                let bplan = model
                    .compile_plan(&store, packed.shape())
                    .unwrap_or_else(|e| panic!("{}: batch compile failed: {e}", label("")));
                let full = model.predict_plan(&bplan, &store, &packed, &mut arena);
                for (slot, &i) in picks.iter().enumerate() {
                    assert_bits_equal(
                        &full.narrow(0, slot, 1),
                        &reference[i],
                        &label(&format!("trial={trial} slot={slot} sample={i}")),
                    );
                }
            }
        }
    }

    match saved_force {
        Some(v) => std::env::set_var("MSD_KERNEL_FORCE", v),
        None => std::env::remove_var("MSD_KERNEL_FORCE"),
    }
}

//! The compiled-plan serving gate: for every task-general model, the one
//! [`CompiledPlan`] produced by `Model::compile_plan` must be bit-identical
//! to per-sample `Model::predict` — at every batch size from 1 to 8, across
//! batch compositions and every kernel dispatch tier.
//!
//! The reference is computed once with kernels scoped to the scalar tier;
//! plans compiled and executed under every tier must reproduce it bit for
//! bit, through a single recycled [`PlanArena`] so stale-buffer reuse is
//! also under test. Each tier is a [`with_tier`] scope on the test's own
//! thread, and each leg asserts that its kernels dispatch to the tier it
//! names.

use msd_autograd::PlanArena;
use msd_harness::ModelSpec;
use msd_nn::{Model, ParamStore, Task};
use msd_tensor::ops::kernels::{detected_tier, tier, with_tier, Tier};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} ({x} vs {y})");
    }
}

#[test]
fn compiled_plans_bit_identical_to_predict_for_all_models_tiers_threads() {
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

        let reference: Vec<Tensor> = with_tier(Tier::Scalar, || {
            assert_eq!(tier(), Tier::Scalar, "scalar reference");
            samples.iter().map(|x| model.predict(&store, x)).collect()
        });

        for want in [Tier::Scalar, detected_tier()] {
            with_tier(want, || {
                assert_eq!(tier(), want, "the leg must run on the tier it names");
                let label = |rest: &str| format!("{} tier={} {rest}", spec.name(), want.name());
                // Every zoo model must be plan-compilable — a regression to
                // the tape fallback would silently lose the latency win.
                let plan = model
                    .compile_plan(&store, &[1, channels, input_len])
                    .unwrap_or_else(|e| panic!("{}: compile failed: {e}", label("")));
                // The batch named at compile time does not matter.
                let plan8 = model
                    .compile_plan(&store, &[8, channels, input_len])
                    .unwrap();
                assert_eq!(
                    plan8.describe(),
                    plan.describe(),
                    "{}",
                    label("[8, C, L] plan")
                );

                // One arena recycled across the whole sweep, per-sample.
                let mut arena = PlanArena::new();
                for (i, x) in samples.iter().enumerate() {
                    let got = model.predict_plan(&plan, &store, x, &mut arena);
                    assert_bits_equal(&got, &reference[i], &label(&format!("sample={i}")));
                }

                // Batched compositions: the same plan, run on a packed random
                // composition of every batch size from 1 to 8, must unpack to
                // the per-sample references bit for bit.
                let mut comp_rng = Rng::seed_from(31);
                for size in 1..=8 {
                    let picks: Vec<usize> = (0..size).map(|_| comp_rng.below(pool)).collect();
                    let batch: Vec<&Tensor> = picks.iter().map(|&i| &samples[i]).collect();
                    let packed = Tensor::concat(&batch, 0);
                    let full = model.predict_plan(&plan, &store, &packed, &mut arena);
                    for (slot, &i) in picks.iter().enumerate() {
                        assert_bits_equal(
                            &full.narrow(0, slot, 1),
                            &reference[i],
                            &label(&format!("batch={size} slot={slot} sample={i}")),
                        );
                    }
                }
            });
        }
    }
}

//! The int8-lowering gate: for every task-general model, the plan
//! `Model::compile_plan` returns for an int8-tier store (lowered onto the
//! int8 kernels) must be bit-identical across every `MSD_KERNEL_FORCE`
//! tier, every `MSD_NUM_THREADS` setting, and every batch composition —
//! integer accumulation is order-exact and the dequant epilogue is a fixed
//! scalar sequence, so the lowered path has *no* tier- or thread-dependent
//! numerics to tolerate.
//!
//! The store under test is a genuine int8-tier artifact round trip
//! (`ArtifactWriter` → `ArtifactReader`), not a hand-built quant table, so
//! the gate also covers the save/load path serving uses.
//!
//! One `#[test]` on purpose: it mutates process-wide env vars, so the sweep
//! must run sequentially in a single test.

use msd_autograd::PlanArena;
use msd_harness::ModelSpec;
use msd_nn::{ArtifactReader, ArtifactWriter, Model, ParamStore, PrecisionTier, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} ({x} vs {y})");
    }
}

#[test]
fn lowered_plans_bit_identical_across_tiers_threads_and_batches() {
    let saved_threads = std::env::var("MSD_NUM_THREADS").ok();
    let saved_force = std::env::var("MSD_KERNEL_FORCE").ok();
    let (channels, input_len, horizon, d_model) = (2usize, 48usize, 12usize, 8usize);
    let pool = 5usize;

    for spec in ModelSpec::TASK_GENERAL {
        let mut f32_store = ParamStore::new();
        let mut rng = Rng::seed_from(37);
        let model = spec.build(
            &mut f32_store,
            &mut rng,
            channels,
            input_len,
            Task::Forecast { horizon },
            d_model,
        );

        // Freshly built models zero-initialize their output heads (the
        // residual decomposition starts at zero), which would make every
        // prediction exactly 0.0 and the numeric-effect canary below
        // vacuous. Perturb all weights as a stand-in for training.
        let mut noise_rng = Rng::seed_from(101);
        for id in 0..f32_store.len() {
            let shape = f32_store.get(id).shape().to_vec();
            let noise = Tensor::randn(&shape, 0.05, &mut noise_rng);
            for (v, n) in f32_store.get_mut(id).data_mut().iter_mut().zip(noise.data()) {
                *v += n;
            }
        }

        // Round-trip through a real int8 artifact: the store now holds
        // dequantized f32 values plus the quant table plans lower onto.
        let bytes = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&f32_store)
            .unwrap();
        let mut store = ParamStore::new();
        let mut rng2 = Rng::seed_from(37);
        spec.build(
            &mut store,
            &mut rng2,
            channels,
            input_len,
            Task::Forecast { horizon },
            d_model,
        );
        ArtifactReader::decode(&bytes).unwrap().load_into(&mut store).unwrap();
        assert_eq!(store.tier(), PrecisionTier::Int8);

        let samples: Vec<Tensor> = (0..pool)
            .map(|_| Tensor::randn(&[1, channels, input_len], 1.0, &mut rng))
            .collect();

        // `compile_plan` verifies at f32 against the dequantized store, then
        // lowers because the store is int8-tier — the plan serving runs.
        let compile_lowered = |shape: &[usize]| {
            let plan = model
                .compile_plan(&store, shape)
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", spec.name()));
            assert!(
                plan.int8_steps() > 0,
                "{}: no steps lowered to int8",
                spec.name()
            );
            assert!(
                plan.describe().contains("[int8]"),
                "{}: describe() must surface per-step precision:\n{}",
                spec.name(),
                plan.describe()
            );
            plan
        };

        // Reference: the lowered plan at scalar kernels, one thread.
        std::env::set_var("MSD_KERNEL_FORCE", "scalar");
        std::env::set_var("MSD_NUM_THREADS", "1");
        let plan = compile_lowered(&[1, channels, input_len]);
        let mut arena = PlanArena::new();
        let reference: Vec<Tensor> = samples
            .iter()
            .map(|x| model.predict_plan(&plan, &store, x, &mut arena))
            .collect();

        // Lowered answers must differ from pure-f32 answers somewhere —
        // otherwise this gate is vacuously comparing the f32 path to
        // itself (e.g. lowering silently not engaging). The unlowered
        // baseline compiles from an f32-tier twin holding the same
        // (dequantized) values, so the tier is the only difference.
        {
            let mut twin = ParamStore::new();
            spec.build(
                &mut twin,
                &mut Rng::seed_from(37),
                channels,
                input_len,
                Task::Forecast { horizon },
                d_model,
            );
            twin.load_values(&store.snapshot());
            assert_eq!(twin.tier(), PrecisionTier::F32);
            let mut unlowered = model
                .compile_plan(&twin, &[1, channels, input_len])
                .unwrap();
            assert_eq!(unlowered.int8_steps(), 0);
            let f32_out = model.predict_plan(&unlowered, &twin, &samples[0], &mut arena);
            let differs = f32_out
                .data()
                .iter()
                .zip(reference[0].data())
                .any(|(a, b)| a.to_bits() != b.to_bits());
            assert!(differs, "{}: int8 lowering had no numeric effect", spec.name());
            // (lowering the f32 plan onto the int8 store's weights gives
            // back compile_plan's lowering and its answers)
            assert_eq!(
                unlowered.lower_int8(&store),
                plan.int8_steps(),
                "{}",
                spec.name()
            );
            let relowered = model.predict_plan(&unlowered, &store, &samples[0], &mut arena);
            assert_bits_equal(&relowered, &reference[0], spec.name());
        }

        for force in ["scalar", "auto"] {
            std::env::set_var("MSD_KERNEL_FORCE", force);
            for threads in ["1", "2", "4"] {
                std::env::set_var("MSD_NUM_THREADS", threads);
                let label = |rest: &str| {
                    format!("{} force={force} threads={threads} {rest}", spec.name())
                };

                let plan = compile_lowered(&[1, channels, input_len]);
                for (i, x) in samples.iter().enumerate() {
                    let got = model.predict_plan(&plan, &store, x, &mut arena);
                    assert_bits_equal(&got, &reference[i], &label(&format!("sample={i}")));
                }

                // Batch-composition invariance: dynamic per-row activation
                // quantization means a sample's row is identical no matter
                // which batch it rides in.
                let mut comp_rng = Rng::seed_from(41);
                for trial in 0..3 {
                    let size = 1 + comp_rng.below(pool);
                    let picks: Vec<usize> = (0..size).map(|_| comp_rng.below(pool)).collect();
                    let batch: Vec<&Tensor> = picks.iter().map(|&i| &samples[i]).collect();
                    let packed = Tensor::concat(&batch, 0);
                    let bplan = compile_lowered(packed.shape());
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
    }

    match saved_threads {
        Some(v) => std::env::set_var("MSD_NUM_THREADS", v),
        None => std::env::remove_var("MSD_NUM_THREADS"),
    }
    match saved_force {
        Some(v) => std::env::set_var("MSD_KERNEL_FORCE", v),
        None => std::env::remove_var("MSD_KERNEL_FORCE"),
    }
}

//! Property test for the serving contract: `predict_batch` is bit-identical
//! to per-sample `predict` for every task-general model, every random batch
//! composition, every `MSD_NUM_THREADS` setting, and every kernel dispatch
//! tier (`MSD_KERNEL_FORCE`).
//!
//! This is the gate that lets `msd-serve` batch arbitrarily without ever
//! changing an answer: kernels accumulate each output element in a fixed
//! order independent of batch extent, thread count, *and* SIMD width — the
//! per-sample reference is computed with kernels forced to the scalar tier,
//! so any tier-dependent accumulation order on the serve path fails here.
//!
//! One `#[test]` on purpose: it mutates the process-wide `MSD_NUM_THREADS`
//! and `MSD_KERNEL_FORCE` variables, so the sweep must run sequentially in a
//! single test.

use msd_harness::ModelSpec;
use msd_nn::{Model, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

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
fn predict_batch_bit_identical_for_all_task_general_models_and_thread_counts() {
    let saved_threads = std::env::var("MSD_NUM_THREADS").ok();
    let saved_force = std::env::var("MSD_KERNEL_FORCE").ok();
    let (channels, input_len, horizon, d_model) = (2usize, 48usize, 12usize, 8usize);
    let pool = 9usize; // distinct samples to compose batches from

    for spec in ModelSpec::TASK_GENERAL {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(17);
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

        // The reference runs per-sample with kernels pinned to the scalar
        // tier on one thread; every other (tier, threads) combination must
        // reproduce it bit for bit.
        std::env::set_var("MSD_KERNEL_FORCE", "scalar");
        std::env::set_var("MSD_NUM_THREADS", "1");
        let reference: Vec<Tensor> = samples.iter().map(|x| model.predict(&store, x)).collect();

        for force in ["scalar", "auto"] {
            std::env::set_var("MSD_KERNEL_FORCE", force);
            for threads in ["1", "2", "4"] {
                std::env::set_var("MSD_NUM_THREADS", threads);
                // Random compositions: size, membership, and order all vary,
                // with repeats allowed (the same sample may appear twice).
                let mut comp_rng = Rng::seed_from(23);
                for trial in 0..8 {
                    let size = 1 + comp_rng.below(pool);
                    let picks: Vec<usize> = (0..size).map(|_| comp_rng.below(pool)).collect();
                    let batch: Vec<Tensor> = picks.iter().map(|&i| samples[i].clone()).collect();
                    let outputs = model.predict_batch(&store, &batch);
                    assert_eq!(outputs.len(), picks.len());
                    for (slot, (&i, y)) in picks.iter().zip(&outputs).enumerate() {
                        assert_bits_equal(
                            y,
                            &reference[i],
                            &format!(
                                "{} force={force} threads={threads} trial={trial} slot={slot} sample={i}",
                                spec.name()
                            ),
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

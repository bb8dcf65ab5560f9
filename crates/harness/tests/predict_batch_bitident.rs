//! Property test for the serving contract: `predict_batch` is bit-identical
//! to per-sample `predict` for every task-general model, every random batch
//! composition, and every kernel dispatch tier.
//!
//! This is the gate that lets `msd-serve` batch arbitrarily without ever
//! changing an answer: kernels accumulate each output element in a fixed
//! order independent of batch extent *and* SIMD width — the per-sample
//! reference is computed with kernels scoped to the scalar tier, so any
//! tier-dependent accumulation order on the serve path fails here. Each
//! tier is a [`with_tier`] scope on the test's own thread, and each leg
//! asserts that its kernels dispatch to the tier it names.

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
fn predict_batch_bit_identical_for_all_task_general_models_and_thread_counts() {
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

        // The reference runs per-sample with kernels scoped to the scalar
        // tier; every tier must reproduce it bit for bit.
        let reference: Vec<Tensor> = with_tier(Tier::Scalar, || {
            assert_eq!(tier(), Tier::Scalar, "scalar reference");
            samples.iter().map(|x| model.predict(&store, x)).collect()
        });

        for want in [Tier::Scalar, detected_tier()] {
            with_tier(want, || {
                assert_eq!(tier(), want, "the leg must run on the tier it names");
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
                                "{} tier={} trial={trial} slot={slot} sample={i}",
                                spec.name(),
                                want.name()
                            ),
                        );
                    }
                }
            });
        }
    }
}

//! The quantization accuracy contract: for every task-general zoo model,
//! serving from an `f16` or `int8` artifact must stay within a declared
//! error budget of the f32 reference — measured with `msd-metrics`, not
//! eyeballed.
//!
//! The budget table below *is* the contract (DESIGN.md §15). Each row
//! bounds, per precision tier:
//!
//! - **forecasting** — `mse` and `smape` of the quantized predictions
//!   against the f32 predictions for the same inputs;
//! - **classification** — `accuracy` of the quantized argmax labels with
//!   the f32 argmax labels (label agreement).
//!
//! The f32 reference comes from the *pre-quantization* store; each
//! quantized run round-trips that store through a real artifact
//! (`ArtifactWriter` → `ArtifactReader`) and serves the way the gateway
//! does: plain predict for f16 (dequantized weights through the f32
//! kernels), a lowered plan for int8. Weights are noise-perturbed because
//! freshly built zoo models zero-initialize their output heads, which
//! would make every prediction 0.0 and the budgets vacuous.

use msd_autograd::PlanArena;
use msd_harness::ModelSpec;
use msd_metrics::{accuracy, mse, smape};
use msd_nn::{ArtifactReader, ArtifactWriter, Model, ParamStore, PrecisionTier, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

const CHANNELS: usize = 2;
const INPUT_LEN: usize = 48;
const HORIZON: usize = 12;
const CLASSES: usize = 4;
const D_MODEL: usize = 8;
const BATCH: usize = 16;

/// One row of the error-budget contract.
struct Budget {
    tier: PrecisionTier,
    /// Forecasting: max `mse(quantized, f32)` over the prediction batch.
    max_mse: f32,
    /// Forecasting: max `smape(quantized, f32)`, percent.
    max_smape: f32,
    /// Classification: min argmax agreement with the f32 labels, in [0, 1].
    min_label_agreement: f32,
}

/// The contract. f16 carries ~11 significand bits, so its forecasts sit at
/// round-off distance from f32 and its labels never move; int8 stores 8
/// bits per weight (plus per-channel scales), so forecasts drift by a
/// bounded few percent and the occasional near-tie label may flip.
///
/// Bounds are the measured worst case across the zoo (PatchTST for both
/// forecast metrics, MSD-Mixer for int8 label flips) with ~2-4× headroom;
/// the measured figures per model land in DESIGN.md §15.
const BUDGETS: &[Budget] = &[
    Budget {
        tier: PrecisionTier::F16,
        max_mse: 1e-5,
        max_smape: 0.5,
        min_label_agreement: 1.0,
    },
    Budget {
        tier: PrecisionTier::Int8,
        max_mse: 5e-3,
        max_smape: 8.0,
        min_label_agreement: 0.85,
    },
];

/// Builds the spec's model for `task` with noise-perturbed weights, and a
/// deterministic input batch.
fn build_perturbed(spec: &ModelSpec, task: Task) -> (msd_harness::AnyModel, ParamStore, Tensor) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(37);
    let model = spec.build(&mut store, &mut rng, CHANNELS, INPUT_LEN, task, D_MODEL);
    let mut noise_rng = Rng::seed_from(101);
    for id in 0..store.len() {
        let shape = store.get(id).shape().to_vec();
        let noise = Tensor::randn(&shape, 0.05, &mut noise_rng);
        for (v, n) in store.get_mut(id).data_mut().iter_mut().zip(noise.data()) {
            *v += n;
        }
    }
    let x = Tensor::randn(&[BATCH, CHANNELS, INPUT_LEN], 1.0, &mut rng);
    (model, store, x)
}

/// Predicts `x` from a `tier` artifact round trip of `store`, serving the
/// way the gateway serves that tier.
fn predict_tiered(
    model: &msd_harness::AnyModel,
    store: &ParamStore,
    spec: &ModelSpec,
    task: Task,
    tier: PrecisionTier,
    x: &Tensor,
) -> Tensor {
    let bytes = ArtifactWriter::new(tier).encode(store).unwrap();
    let mut qstore = ParamStore::new();
    let mut rng = Rng::seed_from(37);
    let _ = spec.build(&mut qstore, &mut rng, CHANNELS, INPUT_LEN, task, D_MODEL);
    ArtifactReader::decode(&bytes)
        .and_then(|r| r.load_into(&mut qstore))
        .unwrap();
    assert_eq!(qstore.tier(), tier);
    match tier {
        PrecisionTier::Int8 => {
            let plan = model.compile_plan(&qstore, x.shape()).unwrap();
            assert!(
                plan.int8_steps() > 0,
                "{}: no steps lowered to int8",
                spec.name()
            );
            model.predict_plan(&plan, &qstore, x, &mut PlanArena::new())
        }
        _ => model.predict(&qstore, x),
    }
}

fn argmax_labels(logits: &Tensor) -> Vec<usize> {
    let [b, c] = *logits.shape() else {
        panic!("classification output must be [B, classes], got {:?}", logits.shape())
    };
    (0..b)
        .map(|i| {
            let row = &logits.data()[i * c..(i + 1) * c];
            (0..c).max_by(|&p, &q| row[p].total_cmp(&row[q])).unwrap()
        })
        .collect()
}

#[test]
fn quantized_tiers_hold_the_declared_error_budgets() {
    for spec in &ModelSpec::TASK_GENERAL {
        // Forecasting: bounded mse/smape drift from the f32 predictions.
        let task = Task::Forecast { horizon: HORIZON };
        let (model, store, x) = build_perturbed(spec, task.clone());
        let reference = model.predict(&store, &x);
        for budget in BUDGETS {
            let quant = predict_tiered(&model, &store, spec, task.clone(), budget.tier, &x);
            let got_mse = mse(quant.data(), reference.data());
            let got_smape = smape(quant.data(), reference.data());
            eprintln!(
                "{:<12} {:<5} forecast  mse={got_mse:.3e}  smape={got_smape:.4}%",
                spec.name(),
                budget.tier
            );
            assert!(
                got_mse <= budget.max_mse,
                "{} {}: forecast mse {got_mse:.3e} exceeds budget {:.3e}",
                spec.name(),
                budget.tier,
                budget.max_mse
            );
            assert!(
                got_smape <= budget.max_smape,
                "{} {}: forecast smape {got_smape:.4}% exceeds budget {}%",
                spec.name(),
                budget.tier,
                budget.max_smape
            );
        }

        // Classification: bounded label disagreement with the f32 labels.
        let task = Task::Classify { classes: CLASSES };
        let (model, store, x) = build_perturbed(spec, task.clone());
        let ref_labels = argmax_labels(&model.predict(&store, &x));
        for budget in BUDGETS {
            let quant = predict_tiered(&model, &store, spec, task.clone(), budget.tier, &x);
            let agreement = accuracy(&argmax_labels(&quant), &ref_labels);
            eprintln!(
                "{:<12} {:<5} classify  label-agreement={agreement:.3}",
                spec.name(),
                budget.tier
            );
            assert!(
                agreement >= budget.min_label_agreement,
                "{} {}: label agreement {agreement:.3} under budget {:.3}",
                spec.name(),
                budget.tier,
                budget.min_label_agreement
            );
        }
    }
}

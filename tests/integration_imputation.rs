//! End-to-end imputation integration: masking → training with the
//! magnitude-only Residual Loss → masked-position evaluation.

use msd_data::{long_term_datasets, LongRangeSpec, SlidingWindows, Split, StandardScaler};
use msd_harness::{evaluate_forecast, fit, ImputationSource, ModelSpec, TrainConfig};
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;

fn spec() -> LongRangeSpec {
    LongRangeSpec {
        total_steps: 1000,
        channels: 4,
        ..long_term_datasets()
            .into_iter()
            .find(|s| s.name == "ETTm1")
            .unwrap()
    }
}

fn run(model_spec: ModelSpec, ratio: f32) -> f32 {
    let spec = spec();
    let raw = spec.generate();
    let scaler = StandardScaler::fit(&raw, 700);
    let data = scaler.transform(&raw);
    let train_src = ImputationSource::new(
        SlidingWindows::new(&data, 96, 0, Split::Train),
        160,
        ratio,
        5,
    );
    let test_src =
        ImputationSource::new(SlidingWindows::new(&data, 96, 0, Split::Test), 64, ratio, 6);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(3);
    let model = model_spec.build_with(
        &mut store,
        &mut rng,
        spec.channels,
        96,
        Task::Reconstruct,
        8,
        true,
    );
    fit(
        &model,
        &mut store,
        &train_src,
        None,
        &TrainConfig {
            epochs: 4,
            lr: model_spec.default_lr(),
            ..TrainConfig::default()
        },
    );
    let (mse, _) = evaluate_forecast(&model, &store, &test_src, 32);
    mse
}

#[test]
fn imputation_beats_zero_fill() {
    // Zero-filling missing values scores MSE ≈ 1 on standardised data.
    let mse = run(ModelSpec::MsdMixer(Variant::Full), 0.25);
    assert!(mse < 0.7, "imputation mse {mse}");
}

#[test]
fn higher_missing_ratio_is_harder() {
    let low = run(ModelSpec::DLinear, 0.125);
    let high = run(ModelSpec::DLinear, 0.5);
    assert!(
        high > low * 0.9,
        "50% missing ({high}) should not be easier than 12.5% ({low})"
    );
}

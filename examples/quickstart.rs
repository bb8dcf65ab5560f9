//! Quickstart: train MSD-Mixer to forecast a small synthetic multivariate
//! series and print test errors.
//!
//! ```sh
//! cargo run --release -p msd-harness --example quickstart
//! ```

use msd_data::{long_term_datasets, SlidingWindows, Split, StandardScaler};
use msd_harness::{evaluate_forecast, fit, ForecastSource, ModelSpec, TrainConfig};
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;

fn main() {
    // 1. Data: an ETTh1-like synthetic series, standardised on the train
    //    split (see DESIGN.md §2 for how the stand-ins mirror the paper's
    //    benchmarks).
    let spec = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTh1")
        .expect("registry contains ETTh1");
    println!(
        "dataset: {} ({} channels, {} steps)",
        spec.name, spec.channels, spec.total_steps
    );
    let raw = spec.generate();
    let scaler = StandardScaler::fit(&raw, (spec.total_steps as f32 * 0.7) as usize);
    let data = scaler.transform(&raw);

    // 2. Sliding windows: look back 96 steps, forecast 96.
    let (input_len, horizon) = (96, 96);
    let train = ForecastSource::new(
        SlidingWindows::new(&data, input_len, horizon, Split::Train),
        256,
    );
    let val = ForecastSource::new(
        SlidingWindows::new(&data, input_len, horizon, Split::Val),
        96,
    );
    let test = ForecastSource::new(
        SlidingWindows::new(&data, input_len, horizon, Split::Test),
        192,
    );

    // 3. Model: MSD-Mixer with the paper's patch sizes {24, 12, 4, 2, 1}.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(42);
    let model_spec = ModelSpec::MsdMixer(Variant::Full);
    let model = model_spec.build(
        &mut store,
        &mut rng,
        spec.channels,
        input_len,
        Task::Forecast { horizon },
        16,
    );
    println!(
        "model: {} ({} parameters)",
        model.name(),
        store.num_scalars()
    );

    // 4. Train with Adam + early stopping on the validation split.
    let report = fit(
        &model,
        &mut store,
        &train,
        Some(&val),
        &TrainConfig {
            epochs: 5,
            lr: model_spec.default_lr(),
            ..TrainConfig::default()
        },
    );
    println!(
        "trained {} epochs; train losses: {:?}",
        report.epochs_run, report.train_losses
    );

    // 5. Evaluate on the held-out test windows.
    let (mse, mae) = evaluate_forecast(&model, &store, &test, 32);
    println!("test MSE = {mse:.3}, MAE = {mae:.3} (standardised space)");
    println!("(predicting zeros would score MSE ≈ 1.0 on this data)");
}

//! Domain scenario: day-ahead load forecasting on an Electricity-like feed
//! (the workload that motivates the paper's intro). Compares MSD-Mixer
//! against the linear and hierarchical baselines at two horizons and shows
//! a sample forecast as ASCII sparklines.
//!
//! ```sh
//! cargo run --release -p msd-harness --example electricity_forecast
//! ```

use msd_data::{long_term_datasets, LongRangeSpec, SlidingWindows, Split, StandardScaler};
use msd_harness::{evaluate_forecast, fit, ForecastSource, ModelSpec, TrainConfig};
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn sparkline(values: &[f32]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = (hi - lo).max(1e-6);
    values
        .iter()
        .map(|&v| BARS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

fn main() {
    // A smaller Electricity-like feed so the example finishes in seconds.
    let spec = LongRangeSpec {
        channels: 12,
        total_steps: 2500,
        ..long_term_datasets()
            .into_iter()
            .find(|s| s.name == "Electricity")
            .expect("registry contains Electricity")
    };
    println!(
        "== Day-ahead load forecasting on {} ({} feeders) ==\n",
        spec.name, spec.channels
    );
    let raw = spec.generate();
    let scaler = StandardScaler::fit(&raw, (spec.total_steps as f32 * 0.7) as usize);
    let data = scaler.transform(&raw);

    let input_len = 96;
    for horizon in [24usize, 96] {
        println!("--- horizon {horizon} steps ---");
        let train = ForecastSource::new(
            SlidingWindows::new(&data, input_len, horizon, Split::Train),
            192,
        );
        let test_windows = SlidingWindows::new(&data, input_len, horizon, Split::Test);
        let test = ForecastSource::new(
            SlidingWindows::new(&data, input_len, horizon, Split::Test),
            96,
        );
        for model_spec in [
            ModelSpec::MsdMixer(Variant::Full),
            ModelSpec::DLinear,
            ModelSpec::NHits,
        ] {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from(11);
            let model = model_spec.build(
                &mut store,
                &mut rng,
                spec.channels,
                input_len,
                Task::Forecast { horizon },
                16,
            );
            fit(
                &model,
                &mut store,
                &train,
                None,
                &TrainConfig {
                    epochs: 4,
                    lr: model_spec.default_lr(),
                    ..TrainConfig::default()
                },
            );
            let (mse, mae) = evaluate_forecast(&model, &store, &test, 32);
            println!("  {:<10} MSE {mse:.3}  MAE {mae:.3}", model_spec.name());

            if model_spec == ModelSpec::MsdMixer(Variant::Full) && horizon == 96 {
                // Show feeder 0 of the first test window: history, truth,
                // and the model's forecast.
                let (x, y) = test_windows.get(0);
                let pred = model.predict(&store, &x.reshape(&[1, spec.channels, input_len]));
                let hist: Vec<f32> = (0..input_len).map(|t| x.at(&[0, t])).collect();
                let truth: Vec<f32> = (0..horizon).map(|t| y.at(&[0, t])).collect();
                let fcst: Vec<f32> = (0..horizon).map(|t| pred.at(&[0, 0, t])).collect();
                println!("    history : {}", sparkline(&hist));
                println!("    truth   : {}", sparkline(&truth));
                println!("    forecast: {}", sparkline(&fcst));
                let _ = Tensor::zeros(&[1]);
            }
        }
        println!();
    }
    println!("Lower is better; errors are in standardised units.");
}

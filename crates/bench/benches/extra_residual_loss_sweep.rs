//! Extension ablation (beyond the paper's Table XII): sweep the Residual
//! Loss weight `λ` (Eq. 7) and the white-noise tolerance `α` (Eq. 6) on the
//! ETTh1-like forecasting task, reporting test error and residual
//! whiteness. Quantifies the design choices DESIGN.md §3 calls out.

use msd_data::{long_term_datasets, SlidingWindows, Split, StandardScaler};
use msd_harness::{evaluate_forecast, fit, AnyModel, ForecastSource, Table, TrainConfig};
use msd_mixer::{decompose, MsdMixer, MsdMixerConfig};
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;

fn run(
    lambda: f32,
    alpha: f32,
    scale: msd_harness::Scale,
    base: &TrainConfig,
) -> (f32, f32, f32, f32) {
    let spec = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTh1")
        .expect("ETTh1");
    let raw = spec.generate();
    let scaler = StandardScaler::fit(&raw, (spec.total_steps as f32 * 0.7) as usize);
    let data = scaler.transform(&raw);
    let train = ForecastSource::new(
        SlidingWindows::new(&data, 96, 96, Split::Train),
        scale.max_train_windows(),
    );
    let test = ForecastSource::new(
        SlidingWindows::new(&data, 96, 96, Split::Test),
        scale.max_eval_windows(),
    );
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(53);
    let cfg = MsdMixerConfig {
        in_channels: spec.channels,
        input_len: 96,
        patch_sizes: vec![24, 12, 4, 2, 1],
        d_model: scale.d_model(),
        hidden_ratio: 2,
        drop_path: 0.05,
        alpha,
        lambda,
        magnitude_only: false,
        task: Task::Forecast { horizon: 96 },
    };
    let mixer = MsdMixer::new(&mut store, &mut rng, &cfg);
    let model = AnyModel::Mixer(mixer);
    fit(
        &model,
        &mut store,
        &train,
        None,
        &TrainConfig {
            epochs: scale.epochs(),
            lr: 5e-3,
            ..base.clone()
        },
    );
    let (mse, mae) = evaluate_forecast(&model, &store, &test, 32);
    let AnyModel::Mixer(mixer) = &model else {
        unreachable!()
    };
    let test_w = SlidingWindows::new(&data, 96, 96, Split::Test);
    let (x, _) = test_w.get(0);
    let d = decompose(mixer, &store, &x);
    (mse, mae, d.residual_energy(), d.residual_acf_violation())
}

fn main() {
    let (scale, base) = msd_bench::banner("Extra — Residual Loss sweep (λ, α)");

    let mut t = Table::new(
        "λ sweep at α = 2 (ETTh1-like, horizon 96)",
        &["lambda", "MSE", "MAE", "residual energy", "ACF violation"],
    );
    for lambda in [0.0f32, 0.1, 0.5, 1.0, 2.0] {
        let (mse, mae, energy, viol) = run(lambda, 2.0, scale, &base);
        t.row(&[
            format!("{lambda:.1}"),
            format!("{mse:.3}"),
            format!("{mae:.3}"),
            format!("{energy:.4}"),
            format!("{viol:.3}"),
        ]);
    }
    t.footnote("λ=0 is the MSD-Mixer-L ablation; the paper trains with λ>0 (Eq. 7).");
    print!("{}", t.render());

    let mut t = Table::new(
        "α sweep at λ = 0.5",
        &["alpha", "MSE", "MAE", "residual energy", "ACF violation"],
    );
    for alpha in [1.0f32, 2.0, 4.0] {
        let (mse, mae, energy, viol) = run(0.5, alpha, scale, &base);
        t.row(&[
            format!("{alpha:.1}"),
            format!("{mse:.3}"),
            format!("{mae:.3}"),
            format!("{energy:.4}"),
            format!("{viol:.3}"),
        ]);
    }
    t.footnote("α controls the white-noise tolerance band ±α/√L of Eq. 6.");
    print!("{}", t.render());
}

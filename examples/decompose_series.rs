//! Domain scenario: interpretable multi-scale decomposition (the paper's
//! Figure 4 / Sec. IV-H). Trains MSD-Mixer on ETTh1-like data, decomposes a
//! window into its learned components, and renders them as sparklines with
//! residual whiteness diagnostics.
//!
//! ```sh
//! cargo run --release -p msd-harness --example decompose_series
//! ```

use msd_data::{long_term_datasets, SlidingWindows, Split, StandardScaler};
use msd_harness::{fit, AnyModel, ForecastSource, TrainConfig};
use msd_mixer::{decompose, MsdMixer, MsdMixerConfig};
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::stats::white_noise_bound;

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
    println!("== Learned multi-scale decomposition (Figure 4 setup) ==\n");
    let spec = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTh1")
        .expect("registry contains ETTh1");
    let raw = spec.generate();
    let scaler = StandardScaler::fit(&raw, (spec.total_steps as f32 * 0.7) as usize);
    let data = scaler.transform(&raw);

    // The paper's case-study configuration: L = 96 at hourly sampling,
    // patch sizes {24, 12, 6, 2, 1} = 1 day / half day / 6 h / 2 h / 1 h.
    let patch_sizes = vec![24, 12, 6, 2, 1];
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(4);
    let cfg = MsdMixerConfig {
        in_channels: spec.channels,
        input_len: 96,
        patch_sizes: patch_sizes.clone(),
        d_model: 16,
        hidden_ratio: 2,
        drop_path: 0.0,
        alpha: 2.0,
        lambda: 1.0,
        magnitude_only: false,
        task: Task::Forecast { horizon: 96 },
    };
    let mixer = MsdMixer::new(&mut store, &mut rng, &cfg);
    let model = AnyModel::Mixer(mixer);

    let train = ForecastSource::new(SlidingWindows::new(&data, 96, 96, Split::Train), 256);
    println!("training MSD-Mixer (λ = 1.0, 5 epochs)...\n");
    fit(
        &model,
        &mut store,
        &train,
        None,
        &TrainConfig {
            epochs: 5,
            lr: 5e-3,
            ..TrainConfig::default()
        },
    );

    let AnyModel::Mixer(mixer) = &model else {
        unreachable!()
    };
    let test_w = SlidingWindows::new(&data, 96, 96, Split::Test);
    let (x, _) = test_w.get(0);
    let d = decompose(mixer, &store, &x);

    // Channel 0, rendered per component.
    let series = |t: &msd_tensor::Tensor| -> Vec<f32> { (0..96).map(|i| t.at(&[0, i])).collect() };
    println!(
        "input (channel 0)        : {}",
        sparkline(&series(&d.input))
    );
    for (i, (s, p)) in d.components.iter().zip(&patch_sizes).enumerate() {
        let sd = s.var_all().sqrt();
        println!(
            "component S{} (p={p:>2}, σ={sd:.2}): {}",
            i + 1,
            sparkline(&series(s))
        );
    }
    println!(
        "residual Z_k             : {}",
        sparkline(&series(&d.residual))
    );

    println!();
    println!(
        "decomposition consistent (ΣSᵢ + Z = X): {}",
        d.is_consistent(1e-3)
    );
    println!("explained energy: {:.1}%", d.explained_energy() * 100.0);
    println!("residual energy : {:.4}", d.residual_energy());
    println!(
        "residual ACF outside ±2/√L (= ±{:.3}): {:.1}% of lags",
        white_noise_bound(96),
        d.residual_acf_violation() * 100.0
    );
    println!("\nThe components separate timescales (coarse patches capture slow");
    println!("structure, fine patches the fast wiggles) while the Residual Loss");
    println!("keeps the leftover close to white noise — the paper's Figure 4.");
}

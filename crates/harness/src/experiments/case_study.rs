//! The Figure 4 case study (Sec. IV-H): decompose an ETTh1-like window with
//! MSD-Mixer trained with and without the Residual Loss, and contrast the
//! residual's magnitude and autocorrelation.

use crate::{fit, AnyModel, ForecastSource, Scale, TrainConfig};
use msd_data::{long_term_datasets, SlidingWindows, Split, StandardScaler};
use msd_mixer::variants::{build_variant, Variant};
use msd_mixer::{decompose, Decomposition, MsdMixerConfig};
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Figure 4's setup: ETTh1-like data, look-back 96, patch sizes
/// {24, 12, 6, 2, 1} (1 day / half day / 6 h / 2 h / 1 h at hourly
/// sampling).
pub const PATCH_SIZES: [usize; 5] = [24, 12, 6, 2, 1];

/// Summary statistics of one trained model's decomposition of one window.
#[derive(Clone, Debug)]
pub struct CaseStudyResult {
    /// "MSD-Mixer" or "MSD-Mixer-L".
    pub model: String,
    /// Std-dev of each component `S_i`.
    pub component_stds: Vec<f32>,
    /// Mean-square magnitude of the residual `Z_k`.
    pub residual_energy: f32,
    /// Fraction of residual ACF coefficients outside `±2/√L`.
    pub residual_acf_violation: f32,
    /// Fraction of input energy captured by the components.
    pub explained_energy: f32,
}

/// Trains a variant on ETTh1-like forecasting and decomposes a test window.
/// Returns the summary plus the full decomposition (for CSV export).
pub fn run_variant(
    variant: Variant,
    scale: Scale,
    base: &TrainConfig,
) -> (CaseStudyResult, Decomposition) {
    let spec = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTh1")
        .expect("ETTh1 spec");
    let raw = spec.generate();
    let train_steps = (spec.total_steps as f32 * 0.7) as usize;
    let scaler = StandardScaler::fit(&raw, train_steps);
    let data = scaler.transform(&raw);

    let train_w = SlidingWindows::new(&data, 96, 96, Split::Train);
    let train_src = ForecastSource::new(train_w, scale.max_train_windows());

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(41);
    let cfg = MsdMixerConfig {
        in_channels: spec.channels,
        input_len: 96,
        patch_sizes: PATCH_SIZES.to_vec(),
        d_model: scale.d_model(),
        hidden_ratio: 2,
        drop_path: 0.05,
        alpha: 2.0,
        lambda: if variant == Variant::NoResidualLoss {
            0.0
        } else {
            1.0
        },
        magnitude_only: false,
        task: Task::Forecast { horizon: 96 },
    };
    let mixer = build_variant(&mut store, &mut rng, &cfg, Variant::Full);
    // `lambda` already encodes the -L ablation; keep the architecture equal.
    let model = AnyModel::Mixer(mixer);
    fit(
        &model,
        &mut store,
        &train_src,
        None,
        &TrainConfig {
            epochs: scale.epochs() + 1,
            batch_size: scale.batch_size(),
            lr: 2e-3,
            ..base.clone()
        },
    );

    // Decompose the first test window.
    let test_w = SlidingWindows::new(&data, 96, 96, Split::Test);
    let (x, _) = test_w.get(0);
    let AnyModel::Mixer(ref mixer) = model else {
        unreachable!()
    };
    let d = decompose(mixer, &store, &x);
    let summary = CaseStudyResult {
        model: variant.name().to_string(),
        component_stds: d.components.iter().map(component_std).collect(),
        residual_energy: d.residual_energy(),
        residual_acf_violation: d.residual_acf_violation(),
        explained_energy: d.explained_energy(),
    };
    (summary, d)
}

fn component_std(s: &Tensor) -> f32 {
    s.var_all().sqrt()
}

/// Runs the full Figure 4 comparison: with vs without the Residual Loss.
pub fn results(scale: Scale, base: &TrainConfig) -> Vec<CaseStudyResult> {
    super::cache::load_or_compute(
        &super::cache_dir(),
        "case_study",
        scale,
        |r: &CaseStudyResult| {
            let mut f = vec![r.model.clone()];
            f.push(
                r.component_stds
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(";"),
            );
            f.push(r.residual_energy.to_string());
            f.push(r.residual_acf_violation.to_string());
            f.push(r.explained_energy.to_string());
            f
        },
        |f| {
            Some(CaseStudyResult {
                model: f.first()?.clone(),
                component_stds: f
                    .get(1)?
                    .split(';')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().ok())
                    .collect::<Option<Vec<_>>>()?,
                residual_energy: f.get(2)?.parse().ok()?,
                residual_acf_violation: f.get(3)?.parse().ok()?,
                explained_energy: f.get(4)?.parse().ok()?,
            })
        },
        || {
            [Variant::Full, Variant::NoResidualLoss]
                .into_iter()
                .map(|v| {
                    let (summary, _) = run_variant(v, scale, base);
                    eprintln!(
                        "[case-study] {}: residual energy={:.4} acf violation={:.3} explained={:.3}",
                        summary.model,
                        summary.residual_energy,
                        summary.residual_acf_violation,
                        summary.explained_energy
                    );
                    summary
                })
                .collect()
        },
    )
}

//! Imputation (Sec. IV-D, Table VII): six datasets × four missing ratios,
//! MSE/MAE on the missing positions. MSD-Mixer runs with the
//! magnitude-only Residual Loss (the ACF term is ill-defined under
//! missingness).

use crate::{evaluate_forecast, fit, ImputationSource, ModelSpec, Scale, TrainConfig};
use msd_data::{long_term_datasets, LongRangeSpec, SlidingWindows, Split, StandardScaler};
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;

/// Window length of the imputation protocol.
pub const INPUT_LEN: usize = 96;

/// The four missing-data ratios of Table VII.
pub const RATIOS: [f32; 4] = [0.125, 0.25, 0.375, 0.5];

/// The six imputation datasets of Table VII (ETT ×4, Electricity, Weather).
pub fn imputation_datasets() -> Vec<LongRangeSpec> {
    long_term_datasets()
        .into_iter()
        .filter(|s| s.name != "Traffic" && s.name != "Exchange")
        .collect()
}

/// One Table VII row: dataset × ratio × model.
#[derive(Clone, Debug)]
pub struct ImputationRow {
    /// Dataset name.
    pub dataset: String,
    /// Missing ratio.
    pub ratio: f32,
    /// Model name.
    pub model: String,
    /// MSE on missing positions.
    pub mse: f32,
    /// MAE on missing positions.
    pub mae: f32,
}

/// Trains and evaluates one model at one dataset × ratio.
pub fn run_single(
    spec: &LongRangeSpec,
    ratio: f32,
    model_spec: ModelSpec,
    scale: Scale,
    base: &TrainConfig,
) -> (f32, f32) {
    let raw = spec.generate();
    let train_steps = (spec.total_steps as f32 * 0.7) as usize;
    let scaler = StandardScaler::fit(&raw, train_steps);
    let data = scaler.transform(&raw);

    let train_w = SlidingWindows::new(&data, INPUT_LEN, 0, Split::Train);
    let test_w = SlidingWindows::new(&data, INPUT_LEN, 0, Split::Test);
    let train_src = ImputationSource::new(train_w, scale.max_train_windows(), ratio, 31);
    let test_src = ImputationSource::new(test_w, scale.max_eval_windows(), ratio, 32);

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(19);
    let model = model_spec.build_with(
        &mut store,
        &mut rng,
        spec.channels,
        INPUT_LEN,
        Task::Reconstruct,
        scale.d_model(),
        true, // magnitude-only residual loss (Sec. IV-D)
    );
    fit(
        &model,
        &mut store,
        &train_src,
        None,
        &TrainConfig {
            epochs: scale.epochs(),
            batch_size: scale.batch_size(),
            lr: model_spec.default_lr(),
            ..base.clone()
        },
    );
    evaluate_forecast(&model, &store, &test_src, scale.batch_size())
}

/// Computes (or loads) every Table VII row.
pub fn results(scale: Scale, base: &TrainConfig) -> Vec<ImputationRow> {
    super::cache::load_or_compute(
        &super::cache_dir(),
        "imputation",
        scale,
        |r: &ImputationRow| {
            vec![
                r.dataset.clone(),
                r.ratio.to_string(),
                r.model.clone(),
                r.mse.to_string(),
                r.mae.to_string(),
            ]
        },
        |f| {
            Some(ImputationRow {
                dataset: f.first()?.clone(),
                ratio: f.get(1)?.parse().ok()?,
                model: f.get(2)?.clone(),
                mse: f.get(3)?.parse().ok()?,
                mae: f.get(4)?.parse().ok()?,
            })
        },
        || {
            let mut rows = Vec::new();
            for spec in imputation_datasets() {
                for &ratio in &RATIOS {
                    for m in ModelSpec::TASK_GENERAL {
                        let (mse, mae) = run_single(&spec, ratio, m, scale, base);
                        eprintln!(
                            "[imputation] {} {:.3} {}: mse={mse:.3} mae={mae:.3}",
                            spec.name,
                            ratio,
                            m.name()
                        );
                        rows.push(ImputationRow {
                            dataset: spec.name.to_string(),
                            ratio,
                            model: m.name().to_string(),
                            mse,
                            mae,
                        });
                    }
                }
            }
            rows
        },
    )
}

/// 48-benchmark score matrix (6 datasets × 4 ratios × {MSE, MAE}) for the
/// Table II win counts.
pub fn score_matrix(rows: &[ImputationRow]) -> (Vec<String>, Vec<String>, Vec<Vec<f32>>) {
    let models: Vec<String> = ModelSpec::TASK_GENERAL
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut labels = Vec::new();
    let mut scores = Vec::new();
    for spec in imputation_datasets() {
        for &ratio in &RATIOS {
            for metric in ["mse", "mae"] {
                let mut row = Vec::with_capacity(models.len());
                for m in &models {
                    let r = rows
                        .iter()
                        .find(|r| {
                            r.dataset == spec.name
                                && (r.ratio - ratio).abs() < 1e-6
                                && &r.model == m
                        })
                        .unwrap_or_else(|| panic!("missing {} {ratio} {m}", spec.name));
                    row.push(if metric == "mse" { r.mse } else { r.mae });
                }
                labels.push(format!("{}-{ratio}-{metric}", spec.name));
                scores.push(row);
            }
        }
    }
    (labels, models, scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imputation_dataset_list_matches_table_vii() {
        let names: Vec<&str> = imputation_datasets().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["ETTm1", "ETTm2", "ETTh1", "ETTh2", "Electricity", "Weather"]
        );
    }

    #[test]
    fn single_run_recovers_better_than_zero_fill() {
        // On standardised data, predicting zeros at missing spots gives
        // MSE ≈ 1. A trained model must do better on seasonal data.
        let spec = LongRangeSpec {
            total_steps: 800,
            channels: 4,
            ..imputation_datasets()[2].clone() // ETTh1-like
        };
        let (mse, mae) = run_single(
            &spec,
            0.25,
            ModelSpec::DLinear,
            Scale::Fast,
            &TrainConfig::default(),
        );
        assert!(mse.is_finite() && mae.is_finite());
        assert!(mse < 1.2, "imputation mse {mse} not better than zero-fill");
    }
}

//! Long-term forecasting (Sec. IV-B, Table IV): eight datasets × four
//! horizons, look-back 96, MSE/MAE in standardised space — the protocol of
//! the benchmark suite the paper follows.

use crate::{evaluate_forecast, fit, ForecastSource, ModelSpec, Scale, TrainConfig};
use msd_data::{long_term_datasets, LongRangeSpec, SlidingWindows, Split, StandardScaler};
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;

/// Look-back window of the long-term protocol.
pub const INPUT_LEN: usize = 96;

/// The four forecasting horizons of Table IV.
pub const HORIZONS: [usize; 4] = [96, 192, 336, 720];

/// One Table IV cell group: a dataset × horizon × model score.
#[derive(Clone, Debug)]
pub struct LongTermRow {
    /// Dataset name.
    pub dataset: String,
    /// Forecast horizon.
    pub horizon: usize,
    /// Model name.
    pub model: String,
    /// Test MSE (standardised space).
    pub mse: f32,
    /// Test MAE (standardised space).
    pub mae: f32,
}

/// Trains and evaluates one model on one dataset × horizon.
pub fn run_single(
    spec: &LongRangeSpec,
    horizon: usize,
    model_spec: ModelSpec,
    scale: Scale,
    base: &TrainConfig,
) -> (f32, f32) {
    let raw = spec.generate();
    let train_steps = (spec.total_steps as f32 * 0.7) as usize;
    let scaler = StandardScaler::fit(&raw, train_steps);
    let data = scaler.transform(&raw);

    let train_w = SlidingWindows::new(&data, INPUT_LEN, horizon, Split::Train);
    let val_w = SlidingWindows::new(&data, INPUT_LEN, horizon, Split::Val);
    let test_w = SlidingWindows::new(&data, INPUT_LEN, horizon, Split::Test);
    let train_src = ForecastSource::new(train_w, scale.max_train_windows());
    let val_src = ForecastSource::new(val_w, scale.max_eval_windows() / 2);
    let test_src = ForecastSource::new(test_w, scale.max_eval_windows());

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(17);
    let model = model_spec.build(
        &mut store,
        &mut rng,
        spec.channels,
        INPUT_LEN,
        Task::Forecast { horizon },
        scale.d_model(),
    );
    fit(
        &model,
        &mut store,
        &train_src,
        Some(&val_src),
        &TrainConfig {
            epochs: scale.epochs(),
            batch_size: scale.batch_size(),
            lr: model_spec.default_lr(),
            ..base.clone()
        },
    );
    evaluate_forecast(&model, &store, &test_src, scale.batch_size())
}

/// Computes (or loads) every Table IV row: all datasets, horizons, and
/// task-general models.
pub fn results(scale: Scale, base: &TrainConfig) -> Vec<LongTermRow> {
    super::cache::load_or_compute(
        &super::cache_dir(),
        "long_term",
        scale,
        |r: &LongTermRow| {
            vec![
                r.dataset.clone(),
                r.horizon.to_string(),
                r.model.clone(),
                r.mse.to_string(),
                r.mae.to_string(),
            ]
        },
        |f| {
            Some(LongTermRow {
                dataset: f.first()?.clone(),
                horizon: f.get(1)?.parse().ok()?,
                model: f.get(2)?.clone(),
                mse: f.get(3)?.parse().ok()?,
                mae: f.get(4)?.parse().ok()?,
            })
        },
        || {
            let mut rows = Vec::new();
            for spec in long_term_datasets() {
                for &h in &HORIZONS {
                    for m in ModelSpec::TASK_GENERAL {
                        let (mse, mae) = run_single(&spec, h, m, scale, base);
                        eprintln!(
                            "[long-term] {} h={h} {}: mse={mse:.3} mae={mae:.3}",
                            spec.name,
                            m.name()
                        );
                        rows.push(LongTermRow {
                            dataset: spec.name.to_string(),
                            horizon: h,
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

/// Per-(dataset, horizon) score matrix for win counting: returns
/// `(benchmark labels, model names, scores[benchmark][model])` where each
/// (dataset, horizon) contributes two benchmarks (MSE and MAE), exactly the
/// 64-benchmark structure of Table IV.
pub fn score_matrix(rows: &[LongTermRow]) -> (Vec<String>, Vec<String>, Vec<Vec<f32>>) {
    let models: Vec<String> = ModelSpec::TASK_GENERAL
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut labels = Vec::new();
    let mut scores = Vec::new();
    for spec in long_term_datasets() {
        for &h in &HORIZONS {
            for metric in ["mse", "mae"] {
                let mut row = Vec::with_capacity(models.len());
                for m in &models {
                    let r = rows
                        .iter()
                        .find(|r| r.dataset == spec.name && r.horizon == h && &r.model == m)
                        .unwrap_or_else(|| panic!("missing row {} h={h} {m}", spec.name));
                    row.push(if metric == "mse" { r.mse } else { r.mae });
                }
                labels.push(format!("{}-{h}-{metric}", spec.name));
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
    fn single_run_produces_finite_scores() {
        let spec = LongRangeSpec {
            total_steps: 700,
            ..long_term_datasets()[2].clone() // ETTh1, 7 channels
        };
        let (mse, mae) = run_single(
            &spec,
            96,
            ModelSpec::DLinear,
            Scale::Smoke,
            &TrainConfig::default(),
        );
        assert!(mse.is_finite() && mse > 0.0, "mse {mse}");
        assert!(mae.is_finite() && mae > 0.0, "mae {mae}");
        // Standardised data ⇒ a sane model beats variance-scale errors.
        assert!(mse < 5.0, "mse {mse} looks broken");
    }

    #[test]
    fn trained_model_beats_untrained_level() {
        // DLinear after training should beat predicting zeros (MSE ≈ 1 on
        // standardised, strongly seasonal data).
        let spec = LongRangeSpec {
            total_steps: 900,
            ..long_term_datasets()[5].clone() // Traffic-like, strong season
        };
        let spec = LongRangeSpec {
            channels: 4,
            ..spec
        };
        let (mse, _) = run_single(
            &spec,
            96,
            ModelSpec::DLinear,
            Scale::Fast,
            &TrainConfig::default(),
        );
        assert!(mse < 1.0, "trained DLinear mse {mse} not better than zeros");
    }
}

//! Classification (Sec. IV-F, Table XI): ten UEA-like labeled datasets,
//! accuracy plus mean rank across models.

use crate::train::evaluate_accuracy;
use crate::{fit, ClassifySource, ModelSpec, Scale, TrainConfig};
use msd_data::{classification_datasets, ClassSpec};
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;

/// One Table XI cell: dataset × model accuracy.
#[derive(Clone, Debug)]
pub struct ClassificationRow {
    /// Dataset abbreviation.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Test accuracy in [0, 1].
    pub accuracy: f32,
}

/// Trains one model on one dataset and returns test accuracy.
pub fn run_single(
    spec: &ClassSpec,
    model_spec: ModelSpec,
    scale: Scale,
    base: &TrainConfig,
) -> f32 {
    let data = spec.generate();
    let train_src = ClassifySource::new(data.train_x, data.train_y);
    let test_src = ClassifySource::new(data.test_x, data.test_y);

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(37);
    let model = model_spec.build(
        &mut store,
        &mut rng,
        spec.channels,
        spec.series_len,
        Task::Classify {
            classes: spec.classes,
        },
        scale.d_model(),
    );
    fit(
        &model,
        &mut store,
        &train_src,
        None,
        &TrainConfig {
            epochs: scale.epochs() + 2, // classification sets are small
            batch_size: scale.batch_size().min(16),
            lr: model_spec.default_lr(),
            ..base.clone()
        },
    );
    evaluate_accuracy(&model, &store, &test_src, 16)
}

/// Computes (or loads) every Table XI cell.
pub fn results(scale: Scale, base: &TrainConfig) -> Vec<ClassificationRow> {
    super::cache::load_or_compute(
        &super::cache_dir(),
        "classification",
        scale,
        |r: &ClassificationRow| vec![r.dataset.clone(), r.model.clone(), r.accuracy.to_string()],
        |f| {
            Some(ClassificationRow {
                dataset: f.first()?.clone(),
                model: f.get(1)?.clone(),
                accuracy: f.get(2)?.parse().ok()?,
            })
        },
        || {
            let mut rows = Vec::new();
            for spec in classification_datasets() {
                for m in ModelSpec::TASK_GENERAL {
                    let acc = run_single(&spec, m, scale, base);
                    eprintln!("[classification] {} {}: acc={acc:.3}", spec.name, m.name());
                    rows.push(ClassificationRow {
                        dataset: spec.name.to_string(),
                        model: m.name().to_string(),
                        accuracy: acc,
                    });
                }
            }
            rows
        },
    )
}

/// 10-benchmark score matrix (accuracy, higher is better → negated) plus
/// the mean rank per model (Table XI bottom rows).
pub fn score_matrix(rows: &[ClassificationRow]) -> (Vec<String>, Vec<String>, Vec<Vec<f32>>) {
    let models: Vec<String> = ModelSpec::TASK_GENERAL
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut labels = Vec::new();
    let mut scores = Vec::new();
    for spec in classification_datasets() {
        let mut row = Vec::with_capacity(models.len());
        for m in &models {
            let r = rows
                .iter()
                .find(|r| r.dataset == spec.name && &r.model == m)
                .unwrap_or_else(|| panic!("missing {} {m}", spec.name));
            row.push(-r.accuracy);
        }
        labels.push(spec.name.to_string());
        scores.push(row);
    }
    (labels, models, scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_beats_chance_on_easy_set() {
        let spec = ClassSpec {
            train_size: 60,
            test_size: 60,
            noise: 0.3,
            ..classification_datasets()[3].clone() // CR-like, 6 classes
        };
        let acc = run_single(
            &spec,
            ModelSpec::DLinear,
            Scale::Smoke,
            &TrainConfig::default(),
        );
        let chance = 1.0 / spec.classes as f32;
        assert!(acc > chance * 1.5, "accuracy {acc} vs chance {chance}");
    }
}

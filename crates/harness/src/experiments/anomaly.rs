//! Anomaly detection (Sec. IV-E, Table IX): reconstruction-based
//! unsupervised detection on five streams. Train on the normal split,
//! score every test point by its reconstruction error, threshold at the
//! dataset's anomaly ratio, and report point-adjusted precision / recall /
//! F1.

use crate::{fit, DenoisingSource, ModelSpec, Scale, TrainConfig};
use msd_data::{anomaly_datasets, AnomalySpec, SlidingWindows, Split, StandardScaler};
use msd_metrics::anomaly::{point_adjusted_scores, threshold_by_ratio, DetectionScores};
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Window length of the protocol (Table VIII "series length").
pub const WINDOW: usize = 100;

/// One Table IX row: dataset × model scores.
#[derive(Clone, Debug)]
pub struct AnomalyRow {
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Point-adjusted precision (%).
    pub precision: f32,
    /// Point-adjusted recall (%).
    pub recall: f32,
    /// Point-adjusted F1 (%).
    pub f1: f32,
}

/// Trains one model on one stream and scores the test split.
pub fn run_single(
    spec: &AnomalySpec,
    model_spec: ModelSpec,
    scale: Scale,
    base: &TrainConfig,
) -> DetectionScores {
    let stream = spec.generate();
    let scaler = StandardScaler::fit(&stream.train, spec.train_steps);
    let train = scaler.transform(&stream.train);
    let test = scaler.transform(&stream.test);

    // Train on normal windows with denoising corruption: without it a
    // high-capacity model learns the identity map and reconstructs
    // anomalies too, destroying detection contrast (applies uniformly to
    // every model in the comparison).
    let train_w = SlidingWindows::new(&train, WINDOW, 0, Split::Train);
    let train_src = DenoisingSource::new(train_w, scale.max_train_windows(), 0.15, 71);

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(29);
    let model = model_spec.build(
        &mut store,
        &mut rng,
        spec.channels,
        WINDOW,
        Task::Reconstruct,
        scale.d_model(),
    );
    fit(
        &model,
        &mut store,
        &train_src,
        None,
        // Reconstruction heads need a few more passes than forecasting
        // (uniform across models for fairness).
        &TrainConfig {
            epochs: scale.epochs() + 3,
            batch_size: scale.batch_size(),
            lr: model_spec.default_lr(),
            ..base.clone()
        },
    );

    // Score the test stream with non-overlapping windows using *masked*
    // reconstruction: each position's error is measured with that position
    // zeroed out of the input (in `GROUPS` interleaved passes), so no model
    // can score well by copying an anomalous input through — the error
    // measures how well the point is explained by its *context*.
    const GROUPS: usize = 4;
    let t_total = spec.test_steps;
    let mut errors = vec![0.0f32; t_total];
    let c = spec.channels;
    let mut start = 0;
    while start < t_total {
        let len = WINDOW.min(t_total - start);
        // Use a full window ending at the stream end for the tail.
        let w_start = if len < WINDOW {
            t_total - WINDOW
        } else {
            start
        };
        let x = test.narrow(1, w_start, WINDOW).reshape(&[1, c, WINDOW]);
        for g in 0..GROUPS {
            // Zero every position t with t % GROUPS == g, all channels.
            let mut masked = x.clone();
            for ch in 0..c {
                for t in (g..WINDOW).step_by(GROUPS) {
                    masked.data_mut()[ch * WINDOW + t] = 0.0;
                }
            }
            let recon = model.predict(&store, &masked);
            let diff: Tensor = recon.sub(&x);
            for t in (g..WINDOW).step_by(GROUPS) {
                let mut e = 0.0f32;
                for ch in 0..c {
                    let d = diff.data()[ch * WINDOW + t];
                    e += d * d;
                }
                let global_t = w_start + t;
                errors[global_t] = errors[global_t].max(e / c as f32);
            }
        }
        start += WINDOW;
    }

    let threshold = threshold_by_ratio(&errors, spec.anomaly_ratio);
    let pred: Vec<bool> = errors.iter().map(|&e| e > threshold).collect();
    point_adjusted_scores(&pred, &stream.labels)
}

/// Computes (or loads) every Table IX row.
pub fn results(scale: Scale, base: &TrainConfig) -> Vec<AnomalyRow> {
    super::cache::load_or_compute(
        &super::cache_dir(),
        "anomaly",
        scale,
        |r: &AnomalyRow| {
            vec![
                r.dataset.clone(),
                r.model.clone(),
                r.precision.to_string(),
                r.recall.to_string(),
                r.f1.to_string(),
            ]
        },
        |f| {
            Some(AnomalyRow {
                dataset: f.first()?.clone(),
                model: f.get(1)?.clone(),
                precision: f.get(2)?.parse().ok()?,
                recall: f.get(3)?.parse().ok()?,
                f1: f.get(4)?.parse().ok()?,
            })
        },
        || {
            let mut rows = Vec::new();
            for spec in anomaly_datasets() {
                for m in ModelSpec::TASK_GENERAL {
                    let s = run_single(&spec, m, scale, base);
                    eprintln!(
                        "[anomaly] {} {}: P={:.1} R={:.1} F1={:.1}",
                        spec.name,
                        m.name(),
                        s.precision * 100.0,
                        s.recall * 100.0,
                        s.f1 * 100.0
                    );
                    rows.push(AnomalyRow {
                        dataset: spec.name.to_string(),
                        model: m.name().to_string(),
                        precision: s.precision * 100.0,
                        recall: s.recall * 100.0,
                        f1: s.f1 * 100.0,
                    });
                }
            }
            rows
        },
    )
}

/// 5-benchmark score matrix (F1, higher is better → negated) for Table II.
pub fn score_matrix(rows: &[AnomalyRow]) -> (Vec<String>, Vec<String>, Vec<Vec<f32>>) {
    let models: Vec<String> = ModelSpec::TASK_GENERAL
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut labels = Vec::new();
    let mut scores = Vec::new();
    for spec in anomaly_datasets() {
        let mut row = Vec::with_capacity(models.len());
        for m in &models {
            let r = rows
                .iter()
                .find(|r| r.dataset == spec.name && &r.model == m)
                .unwrap_or_else(|| panic!("missing {} {m}", spec.name));
            row.push(-r.f1); // negate: lower-is-better convention
        }
        labels.push(format!("{}-f1", spec.name));
        scores.push(row);
    }
    (labels, models, scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_beats_random_flagging() {
        let spec = AnomalySpec {
            train_steps: 1200,
            test_steps: 1200,
            channels: 8,
            ..anomaly_datasets()[0].clone()
        };
        let s = run_single(
            &spec,
            ModelSpec::DLinear,
            Scale::Smoke,
            &TrainConfig::default(),
        );
        // Random flagging at ratio r yields F1 ≈ r (≈ 0.04 here); with
        // point-adjust even weak models land far above that.
        assert!(s.f1 > 0.2, "f1 {} too low", s.f1);
        assert!(s.f1 <= 1.0);
    }
}

//! Short-term forecasting (Sec. IV-C, Table VI): six M4-like univariate
//! subsets scored with SMAPE / MASE / OWA against our Naive2
//! implementation (Eq. 8), with the competition's weighted average.

use crate::{fit, BatchSource, ModelSpec, Scale, TrainConfig};
use msd_baselines::naive::naive2;
use msd_data::{m4_subsets, M4Collection};
use msd_metrics::{mase, owa, smape, M4Score};
use msd_mixer::variants::Variant;
use msd_mixer::Target;
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// The model set for Table VI: the task-general models plus the
/// decomposition-based task-specific methods N-BEATS and N-HiTS.
pub fn short_term_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec::MsdMixer(Variant::Full),
        ModelSpec::NHits,
        ModelSpec::NBeats,
        ModelSpec::PatchTst,
        ModelSpec::DLinear,
        ModelSpec::NLinear,
        ModelSpec::LightTs,
    ]
}

/// One Table VI row: a subset × model score triple.
#[derive(Clone, Debug)]
pub struct ShortTermRow {
    /// Subset name (Yearly, …, Hourly).
    pub subset: String,
    /// Model name.
    pub model: String,
    /// SMAPE (0–200).
    pub smape: f32,
    /// MASE.
    pub mase: f32,
    /// OWA vs Naive2.
    pub owa: f32,
    /// Test-set weight (series count) for the weighted average.
    pub weight: f32,
}

/// A pooled training source over all series of one subset: per-window
/// normalised `(x, y)` pairs.
struct PooledSource {
    x: Vec<Tensor>,
    y: Vec<Tensor>,
}

impl PooledSource {
    fn new(col: &M4Collection) -> Self {
        let (l, h) = (col.spec.input_len, col.spec.horizon);
        let mut xs = Vec::with_capacity(col.insample.len());
        let mut ys = Vec::with_capacity(col.insample.len());
        for hist in &col.insample {
            // Train pair: input = first L points, target = next H points
            // (both inside the history; the real future stays held out).
            let x = &hist[..l];
            let y = &hist[l..l + h];
            let (mean, std) = window_stats(x);
            xs.push(Tensor::from_vec(
                &[1, l],
                x.iter().map(|&v| (v - mean) / std).collect(),
            ));
            ys.push(Tensor::from_vec(
                &[1, h],
                y.iter().map(|&v| (v - mean) / std).collect(),
            ));
        }
        Self { x: xs, y: ys }
    }
}

impl BatchSource for PooledSource {
    fn len(&self) -> usize {
        self.x.len()
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let l = self.x[0].shape()[1];
        let h = self.y[0].shape()[1];
        let mut xs = Vec::with_capacity(indices.len() * l);
        let mut ys = Vec::with_capacity(indices.len() * h);
        for &i in indices {
            xs.extend_from_slice(self.x[i].data());
            ys.extend_from_slice(self.y[i].data());
        }
        (
            Tensor::from_vec(&[indices.len(), 1, l], xs),
            Target::Series(Tensor::from_vec(&[indices.len(), 1, h], ys)),
        )
    }
}

fn window_stats(x: &[f32]) -> (f32, f32) {
    let mean = x.iter().sum::<f32>() / x.len() as f32;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / x.len() as f32;
    (mean, var.sqrt().max(1e-3))
}

/// Trains one model on one subset and scores it on the held-out futures.
pub fn run_single(
    col: &M4Collection,
    model_spec: ModelSpec,
    scale: Scale,
    base: &TrainConfig,
) -> M4Score {
    let spec = &col.spec;
    let src = PooledSource::new(col);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(23);
    let model = model_spec.build(
        &mut store,
        &mut rng,
        1,
        spec.input_len,
        Task::Forecast {
            horizon: spec.horizon,
        },
        scale.d_model(),
    );
    fit(
        &model,
        &mut store,
        &src,
        None,
        &TrainConfig {
            epochs: scale.epochs() + 2, // short univariate series train fast
            batch_size: scale.batch_size(),
            lr: model_spec.default_lr(),
            ..base.clone()
        },
    );
    score_forecasts(col, |hist_window| {
        let (mean, std) = window_stats(hist_window);
        let x = Tensor::from_vec(
            &[1, 1, hist_window.len()],
            hist_window.iter().map(|&v| (v - mean) / std).collect(),
        );
        let pred = model.predict(&store, &x);
        pred.data().iter().map(|&p| p * std + mean).collect()
    })
}

/// Scores an arbitrary forecaster closure over a subset's held-out futures.
pub fn score_forecasts(
    col: &M4Collection,
    mut forecast: impl FnMut(&[f32]) -> Vec<f32>,
) -> M4Score {
    let spec = &col.spec;
    let mut smape_sum = 0.0f64;
    let mut mase_sum = 0.0f64;
    let mut smape_n2_sum = 0.0f64;
    let mut mase_n2_sum = 0.0f64;
    let mut count = 0usize;
    for (hist, future) in col.insample.iter().zip(&col.future) {
        let window = &hist[hist.len() - spec.input_len..];
        let pred = forecast(window);
        assert_eq!(pred.len(), spec.horizon, "forecast length mismatch");
        let n2 = naive2(hist, spec.horizon, spec.periodicity);
        let s = smape(&pred, future);
        let m = mase(&pred, future, hist, spec.periodicity);
        let s2 = smape(&n2, future);
        let m2 = mase(&n2, future, hist, spec.periodicity);
        if s.is_finite() && m.is_finite() && s2.is_finite() && m2.is_finite() {
            smape_sum += s as f64;
            mase_sum += m as f64;
            smape_n2_sum += s2 as f64;
            mase_n2_sum += m2 as f64;
            count += 1;
        }
    }
    let n = count.max(1) as f64;
    let (s, m) = ((smape_sum / n) as f32, (mase_sum / n) as f32);
    let (s2, m2) = (
        ((smape_n2_sum / n) as f32).max(1e-6),
        ((mase_n2_sum / n) as f32).max(1e-6),
    );
    M4Score {
        smape: s,
        mase: m,
        owa: owa(s, m, s2, m2),
    }
}

/// Computes (or loads) every Table VI row.
pub fn results(scale: Scale, base: &TrainConfig) -> Vec<ShortTermRow> {
    super::cache::load_or_compute(
        &super::cache_dir(),
        "short_term",
        scale,
        |r: &ShortTermRow| {
            vec![
                r.subset.clone(),
                r.model.clone(),
                r.smape.to_string(),
                r.mase.to_string(),
                r.owa.to_string(),
                r.weight.to_string(),
            ]
        },
        |f| {
            Some(ShortTermRow {
                subset: f.first()?.clone(),
                model: f.get(1)?.clone(),
                smape: f.get(2)?.parse().ok()?,
                mase: f.get(3)?.parse().ok()?,
                owa: f.get(4)?.parse().ok()?,
                weight: f.get(5)?.parse().ok()?,
            })
        },
        || {
            let mut rows = Vec::new();
            for spec in m4_subsets() {
                let col = spec.generate();
                for m in short_term_models() {
                    let score = run_single(&col, m, scale, base);
                    eprintln!(
                        "[short-term] {} {}: smape={:.3} mase={:.3} owa={:.3}",
                        spec.name,
                        m.name(),
                        score.smape,
                        score.mase,
                        score.owa
                    );
                    rows.push(ShortTermRow {
                        subset: spec.name.to_string(),
                        model: m.name().to_string(),
                        smape: score.smape,
                        mase: score.mase,
                        owa: score.owa,
                        weight: spec.num_series as f32,
                    });
                }
            }
            rows
        },
    )
}

/// The competition-style weighted average per model over all subsets.
pub fn weighted_averages(rows: &[ShortTermRow]) -> Vec<(String, M4Score)> {
    let mut models: Vec<String> = Vec::new();
    for r in rows {
        if !models.contains(&r.model) {
            models.push(r.model.clone());
        }
    }
    models
        .into_iter()
        .map(|m| {
            let scores: Vec<(M4Score, f32)> = rows
                .iter()
                .filter(|r| r.model == m)
                .map(|r| {
                    (
                        M4Score {
                            smape: r.smape,
                            mase: r.mase,
                            owa: r.owa,
                        },
                        r.weight,
                    )
                })
                .collect();
            (m, M4Score::weighted_average(&scores))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_data::M4Spec;

    fn tiny_subset() -> M4Collection {
        M4Spec {
            name: "TinyHourly",
            horizon: 12,
            input_len: 24,
            periodicity: 12,
            num_series: 24,
            seed: 999,
        }
        .generate()
    }

    #[test]
    fn naive2_scores_near_owa_one_by_construction() {
        let col = tiny_subset();
        let score = score_forecasts(&col, |w| {
            // Forecast with naive-last from the window.
            msd_baselines::naive::naive_last(w, col.spec.horizon)
        });
        assert!(score.smape > 0.0 && score.smape < 200.0);
        assert!(score.owa > 0.0);
    }

    #[test]
    fn dlinear_beats_or_matches_naive_on_seasonal_data() {
        let col = tiny_subset();
        let trained = run_single(
            &col,
            ModelSpec::DLinear,
            Scale::Smoke,
            &TrainConfig::default(),
        );
        let naive = score_forecasts(&col, |w| {
            msd_baselines::naive::naive_last(w, col.spec.horizon)
        });
        // Seasonal data: a trained linear model should clearly beat flat
        // naive on SMAPE.
        assert!(
            trained.smape < naive.smape * 1.2,
            "trained {} vs naive {}",
            trained.smape,
            naive.smape
        );
    }

    #[test]
    fn weighted_average_groups_by_model() {
        let rows = vec![
            ShortTermRow {
                subset: "A".into(),
                model: "m".into(),
                smape: 10.0,
                mase: 1.0,
                owa: 1.0,
                weight: 1.0,
            },
            ShortTermRow {
                subset: "B".into(),
                model: "m".into(),
                smape: 20.0,
                mase: 2.0,
                owa: 2.0,
                weight: 3.0,
            },
        ];
        let avg = weighted_averages(&rows);
        assert_eq!(avg.len(), 1);
        assert!((avg[0].1.smape - 17.5).abs() < 1e-5);
    }
}

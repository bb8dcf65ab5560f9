//! Ablation study (Sec. IV-G, Table XII): the four MSD-Mixer variants
//! versus the full model, averaged per task.
//!
//! The paper averages each variant over *all* benchmarks of each task; this
//! reproduction averages over one representative benchmark per task
//! (ETTm1-192 / M4-Hourly / ETTh1-25% / SMD / CR), which preserves the
//! ordering the ablation demonstrates at a fraction of the compute
//! (recorded in EXPERIMENTS.md). ETTm1-192 is used for long-term because
//! its multi-period structure is where the multi-scale patching gap
//! (-U, -N) is visible; on ETTh1-96 every capable variant converges to
//! the same plateau at this budget.

use super::{anomaly, classification, imputation, long_term, short_term};
use crate::{ModelSpec, Scale, TrainConfig};
use msd_data::{anomaly_datasets, classification_datasets, long_term_datasets, m4_subsets};
use msd_mixer::variants::Variant;

/// One Table XII column: a variant's per-task scores.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant display name.
    pub variant: String,
    /// Long-term forecasting MSE / MAE.
    pub long_mse: f32,
    /// Long-term forecasting MAE.
    pub long_mae: f32,
    /// Short-term SMAPE.
    pub smape: f32,
    /// Short-term MASE.
    pub mase: f32,
    /// Short-term OWA.
    pub owa: f32,
    /// Imputation MSE.
    pub imp_mse: f32,
    /// Imputation MAE.
    pub imp_mae: f32,
    /// Anomaly-detection F1 (0–1).
    pub f1: f32,
    /// Classification accuracy (0–1).
    pub acc: f32,
}

/// Runs one variant across the representative benchmark of each task.
pub fn run_variant(variant: Variant, scale: Scale, base: &TrainConfig) -> AblationRow {
    let spec = ModelSpec::MsdMixer(variant);

    let ettm1 = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTm1")
        .expect("ETTm1 spec");
    let (long_mse, long_mae) = long_term::run_single(&ettm1, 192, spec, scale, base);

    let hourly = m4_subsets()
        .into_iter()
        .find(|s| s.name == "Hourly")
        .expect("Hourly spec")
        .generate();
    let st = short_term::run_single(&hourly, spec, scale, base);

    let etth1 = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTh1")
        .expect("ETTh1 spec");
    let (imp_mse, imp_mae) = imputation::run_single(&etth1, 0.25, spec, scale, base);

    let smd = anomaly_datasets()
        .into_iter()
        .find(|s| s.name == "SMD")
        .expect("SMD spec");
    let det = anomaly::run_single(&smd, spec, scale, base);

    let cr = classification_datasets()
        .into_iter()
        .find(|s| s.name == "CR")
        .expect("CR spec");
    let acc = classification::run_single(&cr, spec, scale, base);

    AblationRow {
        variant: variant.name().to_string(),
        long_mse,
        long_mae,
        smape: st.smape,
        mase: st.mase,
        owa: st.owa,
        imp_mse,
        imp_mae,
        f1: det.f1,
        acc,
    }
}

/// Computes (or loads) all five Table XII columns.
pub fn results(scale: Scale, base: &TrainConfig) -> Vec<AblationRow> {
    super::cache::load_or_compute(
        &super::cache_dir(),
        "ablation",
        scale,
        |r: &AblationRow| {
            vec![
                r.variant.clone(),
                r.long_mse.to_string(),
                r.long_mae.to_string(),
                r.smape.to_string(),
                r.mase.to_string(),
                r.owa.to_string(),
                r.imp_mse.to_string(),
                r.imp_mae.to_string(),
                r.f1.to_string(),
                r.acc.to_string(),
            ]
        },
        |f| {
            Some(AblationRow {
                variant: f.first()?.clone(),
                long_mse: f.get(1)?.parse().ok()?,
                long_mae: f.get(2)?.parse().ok()?,
                smape: f.get(3)?.parse().ok()?,
                mase: f.get(4)?.parse().ok()?,
                owa: f.get(5)?.parse().ok()?,
                imp_mse: f.get(6)?.parse().ok()?,
                imp_mae: f.get(7)?.parse().ok()?,
                f1: f.get(8)?.parse().ok()?,
                acc: f.get(9)?.parse().ok()?,
            })
        },
        || {
            Variant::ALL
                .into_iter()
                .map(|v| {
                    let row = run_variant(v, scale, base);
                    eprintln!(
                        "[ablation] {}: long mse={:.3} owa={:.3} imp mse={:.3} f1={:.3} acc={:.3}",
                        row.variant, row.long_mse, row.owa, row.imp_mse, row.f1, row.acc
                    );
                    row
                })
                .collect()
        },
    )
}

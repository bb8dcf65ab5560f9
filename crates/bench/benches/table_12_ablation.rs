//! Regenerates Table XII: the ablation study over the five MSD-Mixer
//! variants, with the paper's averages as the reference column.

use msd_harness::experiments::ablation;
use msd_harness::{fmt3, Table};

fn main() {
    let (scale, base) = msd_bench::banner("Table XII — Ablation study");
    let rows = ablation::results(scale, &base);

    let mut t = Table::new(
        "Table XII: Average results of MSD-Mixer variants on five tasks",
        &[
            "Task/Metric",
            "MSD-Mixer",
            "MSD-Mixer-I",
            "MSD-Mixer-N",
            "MSD-Mixer-U",
            "MSD-Mixer-L",
        ],
    );
    let get = |name: &str| rows.iter().find(|r| r.variant == name).expect("variant");
    let order = [
        "MSD-Mixer",
        "MSD-Mixer-I",
        "MSD-Mixer-N",
        "MSD-Mixer-U",
        "MSD-Mixer-L",
    ];
    type MetricFn = fn(&ablation::AblationRow) -> f32;
    let metrics: [(&str, MetricFn); 9] = [
        ("Long-Term MSE", |r| r.long_mse),
        ("Long-Term MAE", |r| r.long_mae),
        ("Short-Term SMAPE", |r| r.smape),
        ("Short-Term MASE", |r| r.mase),
        ("Short-Term OWA", |r| r.owa),
        ("Imputation MSE", |r| r.imp_mse),
        ("Imputation MAE", |r| r.imp_mae),
        ("Anomaly F1", |r| r.f1),
        ("Classification ACC", |r| r.acc),
    ];
    for (label, f) in metrics {
        let mut cells = vec![label.to_string()];
        for v in order {
            cells.push(fmt3(f(get(v))));
        }
        t.row(&cells);
    }
    t.footnote("Representative benchmark per task (ETTm1-192 / Hourly / ETTh1-25% / SMD / CR).");
    print!("{}", t.render());

    println!("Paper Table XII reference (long MSE / OWA / imp MSE / F1 / ACC):");
    for (v, a, b, c, d, e) in msd_bench::paper::TABLE_XII {
        println!("  {v}: {a:.3} / {b:.3} / {c:.3} / {d:.3} / {e:.3}");
    }
}

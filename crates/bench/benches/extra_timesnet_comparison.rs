//! Extension: compares the TimesNet-lite baseline (added after the main
//! table runs) against MSD-Mixer and the strongest baselines on
//! representative benchmarks from three tasks. TimesNet is the paper's
//! best task-general competitor (Table II: 13 wins), so this closes the
//! main substitution gap documented in DESIGN.md §2.

use msd_data::{anomaly_datasets, classification_datasets, long_term_datasets};
use msd_harness::experiments::{anomaly, classification, long_term};
use msd_harness::{ModelSpec, Table};
use msd_mixer::variants::Variant;

fn main() {
    let (scale, base) = msd_bench::banner("Extra — TimesNet-lite comparison");
    let models = [
        ModelSpec::MsdMixer(Variant::Full),
        ModelSpec::TimesNet,
        ModelSpec::NHits,
        ModelSpec::DLinear,
    ];

    // Long-term forecasting on ETTh1, horizon 96.
    let etth1 = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTh1")
        .expect("ETTh1");
    let mut t = Table::new(
        "Long-term forecasting, ETTh1-like, horizon 96",
        &["Model", "MSE", "MAE"],
    );
    for m in models {
        let (mse, mae) = long_term::run_single(&etth1, 96, m, scale, &base);
        t.row(&[
            m.name().to_string(),
            format!("{mse:.3}"),
            format!("{mae:.3}"),
        ]);
    }
    print!("{}", t.render());

    // Anomaly detection on SMD.
    let smd = anomaly_datasets()
        .into_iter()
        .find(|s| s.name == "SMD")
        .expect("SMD");
    let mut t = Table::new("Anomaly detection, SMD-like", &["Model", "F1 (%)"]);
    for m in models {
        let s = anomaly::run_single(&smd, m, scale, &base);
        t.row(&[m.name().to_string(), format!("{:.1}", s.f1 * 100.0)]);
    }
    print!("{}", t.render());

    // Classification on CR.
    let cr = classification_datasets()
        .into_iter()
        .find(|s| s.name == "CR")
        .expect("CR");
    let mut t = Table::new("Classification, CR-like", &["Model", "Accuracy"]);
    for m in models {
        let acc = classification::run_single(&cr, m, scale, &base);
        t.row(&[m.name().to_string(), format!("{acc:.3}")]);
    }
    t.footnote("Paper Table II: TimesNet is the strongest task-general baseline overall.");
    print!("{}", t.render());
}

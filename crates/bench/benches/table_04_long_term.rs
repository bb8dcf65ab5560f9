//! Regenerates Table IV: long-term forecasting MSE/MAE over eight datasets
//! × four horizons for every task-general model, plus first-place counts.

use msd_harness::experiments::long_term;
use msd_harness::{fmt3, ModelSpec, Table};
use msd_metrics::win_counts;

fn main() {
    let (scale, base) = msd_bench::banner("Table IV — Long-term forecasting");
    let rows = long_term::results(scale, &base);

    let models: Vec<&str> = ModelSpec::TASK_GENERAL.iter().map(|m| m.name()).collect();
    let mut header = vec!["Dataset", "Horizon", "Metric"];
    header.extend(models.iter().copied());
    let mut t = Table::new("Table IV: Long-term forecasting results", &header);
    for spec in msd_data::long_term_datasets() {
        for &h in &long_term::HORIZONS {
            for metric in ["MSE", "MAE"] {
                let mut cells = vec![spec.name.to_string(), h.to_string(), metric.to_string()];
                for m in &models {
                    let r = rows
                        .iter()
                        .find(|r| r.dataset == spec.name && r.horizon == h && r.model == *m)
                        .expect("row");
                    cells.push(fmt3(if metric == "MSE" { r.mse } else { r.mae }));
                }
                t.row(&cells);
            }
        }
    }
    t.footnote("Lower is better. Scores in standardised space on synthetic stand-ins.");
    print!("{}", t.render());

    // First-place counts (the paper's bottom row: MSD-Mixer 49/64).
    let (_, model_names, scores) = long_term::score_matrix(&rows);
    let wins = win_counts(&scores);
    let mut wt = Table::new(
        "Table IV (bottom): 1st-place counts over 64 benchmarks",
        &["Model", "1st count", "Paper"],
    );
    for (m, w) in model_names.iter().zip(&wins) {
        let paper = match m.as_str() {
            "MSD-Mixer" => "49",
            "PatchTST" => "7",
            "DLinear" => "3",
            "LightTS" => "1",
            _ => "-",
        };
        wt.row(&[m.clone(), w.to_string(), paper.to_string()]);
    }
    wt.footnote("Paper column: Table IV 1st counts (models we did not reproduce omitted).");
    print!("{}", wt.render());

    println!("Paper ETTh1 MSE reference (MSD-Mixer / PatchTST / DLinear):");
    for (h, a, b, c) in msd_bench::paper::TABLE_IV_ETTH1_MSE {
        println!("  h={h}: {a:.3} / {b:.3} / {c:.3}");
    }
}

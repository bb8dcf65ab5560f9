//! Regenerates Table VII: imputation MSE/MAE over six datasets × four
//! missing ratios, plus first-place counts.

use msd_harness::experiments::imputation;
use msd_harness::{fmt3, ModelSpec, Table};
use msd_metrics::win_counts;

fn main() {
    let (scale, base) = msd_bench::banner("Table VII — Imputation");
    let rows = imputation::results(scale, &base);

    let models: Vec<&str> = ModelSpec::TASK_GENERAL.iter().map(|m| m.name()).collect();
    let mut header = vec!["Dataset", "Missing", "Metric"];
    header.extend(models.iter().copied());
    let mut t = Table::new("Table VII: Imputation results", &header);
    for spec in imputation::imputation_datasets() {
        for &ratio in &imputation::RATIOS {
            for metric in ["MSE", "MAE"] {
                let mut cells = vec![
                    spec.name.to_string(),
                    format!("{:.1}%", ratio * 100.0),
                    metric.to_string(),
                ];
                for m in &models {
                    let r = rows
                        .iter()
                        .find(|r| {
                            r.dataset == spec.name
                                && (r.ratio - ratio).abs() < 1e-6
                                && r.model == *m
                        })
                        .expect("row");
                    cells.push(fmt3(if metric == "MSE" { r.mse } else { r.mae }));
                }
                t.row(&cells);
            }
        }
    }
    t.footnote("Error on missing positions only, standardised space.");
    print!("{}", t.render());

    let (_, model_names, scores) = imputation::score_matrix(&rows);
    let wins = win_counts(&scores);
    let mut wt = Table::new(
        "Table VII (bottom): 1st-place counts over 48 benchmarks",
        &["Model", "1st count", "Paper"],
    );
    for (m, w) in model_names.iter().zip(&wins) {
        let paper = match m.as_str() {
            "MSD-Mixer" => "45",
            _ => "0",
        };
        wt.row(&[m.clone(), w.to_string(), paper.to_string()]);
    }
    wt.footnote("Paper: MSD-Mixer 45, TimesNet 9 (TimesNet not reproduced; see DESIGN.md §2).");
    print!("{}", wt.render());
}

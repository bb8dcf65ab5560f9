//! Regenerates Table VI: short-term forecasting SMAPE/MASE/OWA per M4-like
//! subset plus the competition-weighted average.

use msd_harness::experiments::short_term;
use msd_harness::{fmt3, Table};

fn main() {
    let (scale, base) = msd_bench::banner("Table VI — Short-term forecasting");
    let rows = short_term::results(scale, &base);

    let models: Vec<String> = short_term::short_term_models()
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut header = vec!["Subset", "Metric"];
    header.extend(models.iter().map(String::as_str));
    let mut t = Table::new("Table VI: Short-term forecasting results", &header);
    for spec in msd_data::m4_subsets() {
        for metric in ["SMAPE", "MASE", "OWA"] {
            let mut cells = vec![spec.name.to_string(), metric.to_string()];
            for m in &models {
                let r = rows
                    .iter()
                    .find(|r| r.subset == spec.name && &r.model == m)
                    .expect("row");
                cells.push(fmt3(match metric {
                    "SMAPE" => r.smape,
                    "MASE" => r.mase,
                    _ => r.owa,
                }));
            }
            t.row(&cells);
        }
    }
    print!("{}", t.render());

    let mut avg = Table::new(
        "Table VI (Avg.): weighted average over subsets",
        &["Model", "SMAPE", "MASE", "OWA"],
    );
    for (m, s) in short_term::weighted_averages(&rows) {
        avg.row(&[m, fmt3(s.smape), fmt3(s.mase), fmt3(s.owa)]);
    }
    avg.footnote("OWA < 1 beats Naive2. Paper Avg. reference below.");
    print!("{}", avg.render());

    println!("Paper weighted averages (SMAPE / MASE / OWA):");
    for (m, s, ma, o) in msd_bench::paper::TABLE_VI_AVG {
        println!("  {m}: {s:.3} / {ma:.3} / {o:.3}");
    }
}

//! Regenerates Table IX: anomaly-detection precision/recall/F1 per stream
//! plus average F1.

use msd_harness::experiments::anomaly;
use msd_harness::{ModelSpec, Table};

fn main() {
    let (scale, base) = msd_bench::banner("Table IX — Anomaly detection");
    let rows = anomaly::results(scale, &base);

    let models: Vec<&str> = ModelSpec::TASK_GENERAL.iter().map(|m| m.name()).collect();
    let mut header = vec!["Dataset", "Metric"];
    header.extend(models.iter().copied());
    let mut t = Table::new("Table IX: Anomaly detection results (%)", &header);
    for spec in msd_data::anomaly_datasets() {
        for metric in ["Precision", "Recall", "F1-score"] {
            let mut cells = vec![spec.name.to_string(), metric.to_string()];
            for m in &models {
                let r = rows
                    .iter()
                    .find(|r| r.dataset == spec.name && r.model == *m)
                    .expect("row");
                cells.push(format!(
                    "{:.1}",
                    match metric {
                        "Precision" => r.precision,
                        "Recall" => r.recall,
                        _ => r.f1,
                    }
                ));
            }
            t.row(&cells);
        }
    }
    print!("{}", t.render());

    let mut avg = Table::new(
        "Table IX (bottom): average F1-score",
        &["Model", "Avg F1 (%)"],
    );
    for m in &models {
        let f1s: Vec<f32> = rows
            .iter()
            .filter(|r| r.model == *m)
            .map(|r| r.f1)
            .collect();
        let mean = f1s.iter().sum::<f32>() / f1s.len().max(1) as f32;
        avg.row(&[m.to_string(), format!("{mean:.1}")]);
    }
    print!("{}", avg.render());

    println!("Paper average F1 reference:");
    for (m, f1) in msd_bench::paper::TABLE_IX_AVG_F1 {
        println!("  {m}: {f1:.1}");
    }
}

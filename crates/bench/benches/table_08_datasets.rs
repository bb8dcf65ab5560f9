//! Regenerates Table VIII: statistics of the anomaly-detection datasets.

use msd_data::anomaly_datasets;
use msd_harness::Table;

fn main() {
    let _ = msd_bench::banner("Table VIII — Anomaly detection dataset statistics");
    let mut t = Table::new(
        "Table VIII: Statistics of datasets for anomaly detection",
        &[
            "Dataset",
            "Dim",
            "Window",
            "Train Steps",
            "Test Steps",
            "Anomaly %",
            "Paper Dim",
        ],
    );
    let paper: &[(&str, usize)] = &[
        ("SMD", 38),
        ("MSL", 55),
        ("SMAP", 25),
        ("SWaT", 51),
        ("PSM", 25),
    ];
    for spec in anomaly_datasets() {
        let p = paper.iter().find(|(n, _)| *n == spec.name).unwrap();
        t.row(&[
            spec.name.to_string(),
            spec.channels.to_string(),
            "100".to_string(),
            spec.train_steps.to_string(),
            spec.test_steps.to_string(),
            format!("{:.1}", spec.anomaly_ratio * 100.0),
            p.1.to_string(),
        ]);
    }
    t.footnote(
        "Synthetic streams: normal dynamics + injected spikes/shifts/bursts/correlation breaks.",
    );
    print!("{}", t.render());
}

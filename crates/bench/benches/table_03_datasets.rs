//! Regenerates Table III: statistics of the long-term forecasting datasets.

use msd_data::long_term_datasets;
use msd_harness::Table;

fn main() {
    let _ = msd_bench::banner("Table III — Long-term forecasting dataset statistics");
    let mut t = Table::new(
        "Table III: Statistics of datasets for long-term forecasting",
        &[
            "Dataset",
            "Dim",
            "Total Timesteps",
            "Frequency",
            "Paper Dim",
            "Paper Timesteps",
        ],
    );
    let paper: &[(&str, usize, usize)] = &[
        ("ETTm1", 7, 69680),
        ("ETTm2", 7, 69680),
        ("ETTh1", 7, 17420),
        ("ETTh2", 7, 17420),
        ("Electricity", 321, 26304),
        ("Traffic", 862, 17544),
        ("Weather", 21, 52696),
        ("Exchange", 8, 7588),
    ];
    for spec in long_term_datasets() {
        let p = paper.iter().find(|(n, _, _)| *n == spec.name).unwrap();
        t.row(&[
            spec.name.to_string(),
            spec.channels.to_string(),
            spec.total_steps.to_string(),
            spec.frequency.to_string(),
            p.1.to_string(),
            p.2.to_string(),
        ]);
    }
    t.footnote(
        "Dim/timesteps scaled for CPU training; Electricity/Traffic capped (EXPERIMENTS.md).",
    );
    print!("{}", t.render());
}

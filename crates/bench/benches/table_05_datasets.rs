//! Regenerates Table V: statistics of the short-term (M4-like) subsets.

use msd_data::m4_subsets;
use msd_harness::Table;

fn main() {
    let _ = msd_bench::banner("Table V — Short-term forecasting dataset statistics");
    let mut t = Table::new(
        "Table V: Statistics of datasets for short-term forecasting",
        &[
            "Dataset",
            "Dim",
            "Horizon",
            "Input Len",
            "Periodicity",
            "Series (paper train size)",
        ],
    );
    let paper: &[(&str, usize)] = &[
        ("Yearly", 23000),
        ("Quarterly", 24000),
        ("Monthly", 48000),
        ("Weekly", 359),
        ("Daily", 4227),
        ("Hourly", 414),
    ];
    for spec in m4_subsets() {
        let p = paper.iter().find(|(n, _)| *n == spec.name).unwrap();
        t.row(&[
            spec.name.to_string(),
            "1".to_string(),
            spec.horizon.to_string(),
            spec.input_len.to_string(),
            spec.periodicity.to_string(),
            format!("{} ({})", spec.num_series, p.1),
        ]);
    }
    t.footnote("Horizons and periodicities match the M4 competition; series counts scaled down.");
    print!("{}", t.render());
}

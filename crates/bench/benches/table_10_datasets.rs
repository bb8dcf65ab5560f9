//! Regenerates Table X: statistics of the classification datasets.

use msd_data::classification_datasets;
use msd_harness::Table;

fn main() {
    let _ = msd_bench::banner("Table X — Classification dataset statistics");
    let mut t = Table::new(
        "Table X: Statistics of datasets for classification",
        &[
            "Dataset",
            "Dim",
            "Series Length",
            "Classes",
            "Train Size",
            "Test Size",
        ],
    );
    for spec in classification_datasets() {
        t.row(&[
            spec.name.to_string(),
            spec.channels.to_string(),
            spec.series_len.to_string(),
            spec.classes.to_string(),
            spec.train_size.to_string(),
            spec.test_size.to_string(),
        ]);
    }
    t.footnote("UEA-like synthetic stand-ins; very wide/long originals capped (DESIGN.md §2).");
    print!("{}", t.render());
}

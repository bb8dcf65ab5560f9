//! Regenerates Table I: the task / benchmark / metric summary.

use msd_harness::{table_i_rows, Table};

fn main() {
    let _ = msd_bench::banner("Table I — Summary of tasks and benchmarks");
    let mut t = Table::new(
        "Table I: Summary of tasks and benchmarks",
        &[
            "Task",
            "Datasets (synthetic stand-ins)",
            "Metrics",
            "Benchmarks",
        ],
    );
    for row in table_i_rows() {
        t.row(&[
            row.task.to_string(),
            row.datasets.to_string(),
            row.metrics.to_string(),
            row.num_benchmarks.to_string(),
        ]);
    }
    t.footnote("Datasets are synthetic stand-ins mirroring the paper's benchmarks (DESIGN.md §2).");
    print!("{}", t.render());
}

//! Regenerates Table II: overall per-task win counts across all 142
//! benchmarks, aggregated from the Table IV/VI/VII/IX/XI results (computed
//! or loaded from the results cache).

use msd_harness::experiments::{anomaly, classification, imputation, long_term, short_term};
use msd_harness::{ModelSpec, Table};
use msd_metrics::win_counts;

fn main() {
    let (scale, base) = msd_bench::banner("Table II — Overall performance comparison");

    // Long-term: 64 benchmarks.
    let lt = long_term::results(scale, &base);
    let (_, models, lt_scores) = long_term::score_matrix(&lt);
    let lt_wins = win_counts(&lt_scores);

    // Short-term: 15 benchmarks (5 subsets incl. weighted avg × 3 metrics in
    // the paper; here 6 subsets × 3 metrics among the shared model set).
    let st = short_term::results(scale, &base);
    let shared: Vec<String> = ModelSpec::TASK_GENERAL
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut st_scores: Vec<Vec<f32>> = Vec::new();
    for spec in msd_data::m4_subsets() {
        for metric in 0..3usize {
            let mut row = Vec::new();
            for m in &shared {
                let r = st
                    .iter()
                    .find(|r| r.subset == spec.name && &r.model == m)
                    .expect("row");
                row.push(match metric {
                    0 => r.smape,
                    1 => r.mase,
                    _ => r.owa,
                });
            }
            st_scores.push(row);
        }
    }
    let st_wins = win_counts(&st_scores);

    // Imputation: 48 benchmarks.
    let imp = imputation::results(scale, &base);
    let (_, _, imp_scores) = imputation::score_matrix(&imp);
    let imp_wins = win_counts(&imp_scores);

    // Anomaly detection: 5 benchmarks.
    let an = anomaly::results(scale, &base);
    let (_, _, an_scores) = anomaly::score_matrix(&an);
    let an_wins = win_counts(&an_scores);

    // Classification: 10 benchmarks.
    let cl = classification::results(scale, &base);
    let (_, _, cl_scores) = classification::score_matrix(&cl);
    let cl_wins = win_counts(&cl_scores);

    let mut header = vec!["Task", "Benchmarks"];
    header.extend(models.iter().map(String::as_str));
    header.push("Paper MSD wins");
    let mut t = Table::new(
        "Table II: Overall performance comparison (win counts)",
        &header,
    );
    let tasks: [(&str, usize, &Vec<usize>, usize); 5] = [
        ("Long-Term Forecasting", lt_scores.len(), &lt_wins, 49),
        ("Short-Term Forecasting", st_scores.len(), &st_wins, 15),
        ("Imputation", imp_scores.len(), &imp_wins, 45),
        ("Anomaly Detection", an_scores.len(), &an_wins, 4),
        ("Classification", cl_scores.len(), &cl_wins, 5),
    ];
    let mut totals = vec![0usize; models.len()];
    let mut total_benchmarks = 0usize;
    for (task, n, wins, paper) in tasks {
        let mut cells = vec![task.to_string(), n.to_string()];
        for (i, w) in wins.iter().enumerate() {
            totals[i] += w;
            cells.push(w.to_string());
        }
        cells.push(paper.to_string());
        t.row(&cells);
        total_benchmarks += n;
    }
    let mut cells = vec!["Total".to_string(), total_benchmarks.to_string()];
    for w in &totals {
        cells.push(w.to_string());
    }
    cells.push("118".to_string());
    t.row(&cells);
    t.footnote("Ties credit every tied leader, so rows can sum above the benchmark count.");
    print!("{}", t.render());
}

//! Renders a markdown summary of all cached experiment results — the
//! machine-generated half of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p msd-harness --bin msd-report            # fast cache
//! MSD_SCALE=smoke cargo run --release -p msd-harness --bin msd-report
//! ```
//!
//! Reads the results cache (run the table benches or `msd-experiment all`
//! first); a family missing from it is computed here, with the compiled
//! training defaults, which takes as long as that family's bench.

use msd_harness::experiments::{
    anomaly, case_study, classification, imputation, long_term, short_term,
};
use msd_harness::{ModelSpec, Scale, TrainConfig};
use msd_metrics::{mean_ranks, win_counts};

fn main() {
    let scale = Scale::from_env();
    let base = TrainConfig::default();
    println!(
        "<!-- generated by msd-report at scale '{}' -->",
        scale.name()
    );
    println!();

    // Table II overview from all families.
    let lt = long_term::results(scale, &base);
    let (_, models, lt_scores) = long_term::score_matrix(&lt);
    let lt_wins = win_counts(&lt_scores);

    let st = short_term::results(scale, &base);
    let shared: Vec<String> = ModelSpec::TASK_GENERAL
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut st_scores = Vec::new();
    for spec in msd_data::m4_subsets() {
        for metric in 0..3usize {
            let row: Vec<f32> = shared
                .iter()
                .map(|m| {
                    let r = st
                        .iter()
                        .find(|r| r.subset == spec.name && &r.model == m)
                        .expect("short-term row");
                    match metric {
                        0 => r.smape,
                        1 => r.mase,
                        _ => r.owa,
                    }
                })
                .collect();
            st_scores.push(row);
        }
    }
    let st_wins = win_counts(&st_scores);

    let imp = imputation::results(scale, &base);
    let (_, _, imp_scores) = imputation::score_matrix(&imp);
    let imp_wins = win_counts(&imp_scores);

    let an = anomaly::results(scale, &base);
    let (_, _, an_scores) = anomaly::score_matrix(&an);
    let an_wins = win_counts(&an_scores);

    let cl = classification::results(scale, &base);
    let (_, _, cl_scores) = classification::score_matrix(&cl);
    let cl_wins = win_counts(&cl_scores);
    let cl_ranks = mean_ranks(&cl_scores);

    println!(
        "## Table II — overall win counts (measured, scale {})",
        scale.name()
    );
    println!();
    print!("| Task | Benchmarks |");
    for m in &models {
        print!(" {m} |");
    }
    println!(" Paper MSD wins |");
    print!("|---|---|");
    for _ in &models {
        print!("---|");
    }
    println!("---|");
    let rows: [(&str, usize, &Vec<usize>, usize); 5] = [
        ("Long-Term Forecasting", lt_scores.len(), &lt_wins, 49),
        ("Short-Term Forecasting", st_scores.len(), &st_wins, 15),
        ("Imputation", imp_scores.len(), &imp_wins, 45),
        ("Anomaly Detection", an_scores.len(), &an_wins, 4),
        ("Classification", cl_scores.len(), &cl_wins, 5),
    ];
    let mut totals = vec![0usize; models.len()];
    for (task, n, wins, paper) in rows {
        print!("| {task} | {n} |");
        for (i, w) in wins.iter().enumerate() {
            totals[i] += w;
            print!(" {w} |");
        }
        println!(" {paper} |");
    }
    print!(
        "| **Total** | {} |",
        lt_scores.len() + st_scores.len() + imp_scores.len() + an_scores.len() + cl_scores.len()
    );
    for w in &totals {
        print!(" **{w}** |");
    }
    println!(" 118 |");
    println!();

    // Per-task averages for the EXPERIMENTS narrative.
    println!("## Per-task averages (measured)");
    println!();
    println!("| Model | LTF MSE | STF OWA | Imp MSE | AD F1 (%) | CLS Acc | CLS Mean Rank |");
    println!("|---|---|---|---|---|---|---|");
    for (i, m) in models.iter().enumerate() {
        let lt_avg: f32 = lt
            .iter()
            .filter(|r| &r.model == m)
            .map(|r| r.mse)
            .sum::<f32>()
            / lt.iter().filter(|r| &r.model == m).count().max(1) as f32;
        let owa_avg: f32 = st
            .iter()
            .filter(|r| &r.model == m)
            .map(|r| r.owa)
            .sum::<f32>()
            / st.iter().filter(|r| &r.model == m).count().max(1) as f32;
        let imp_avg: f32 = imp
            .iter()
            .filter(|r| &r.model == m)
            .map(|r| r.mse)
            .sum::<f32>()
            / imp.iter().filter(|r| &r.model == m).count().max(1) as f32;
        let f1_avg: f32 = an
            .iter()
            .filter(|r| &r.model == m)
            .map(|r| r.f1)
            .sum::<f32>()
            / an.iter().filter(|r| &r.model == m).count().max(1) as f32;
        let acc_avg: f32 = cl
            .iter()
            .filter(|r| &r.model == m)
            .map(|r| r.accuracy)
            .sum::<f32>()
            / cl.iter().filter(|r| &r.model == m).count().max(1) as f32;
        println!(
            "| {m} | {lt_avg:.3} | {owa_avg:.3} | {imp_avg:.3} | {f1_avg:.1} | {acc_avg:.3} | {:.1} |",
            cl_ranks[i]
        );
    }
    println!();

    // Figure 4 summary.
    println!("## Figure 4 — residual diagnostics (measured)");
    println!();
    println!("| Model | Residual energy | ACF violation | Explained energy |");
    println!("|---|---|---|---|");
    for r in case_study::results(scale, &base) {
        println!(
            "| {} | {:.4} | {:.3} | {:.3} |",
            r.model, r.residual_energy, r.residual_acf_violation, r.explained_energy
        );
    }
}

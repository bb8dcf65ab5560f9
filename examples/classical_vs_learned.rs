//! Domain scenario: how far do classical statistical forecasters get
//! against the learned models on M4-style short-term forecasting? Runs
//! Naive / Naive2 / Holt–Winters / AR(p) / N-BEATS / MSD-Mixer on the
//! Hourly subset and reports SMAPE / MASE / OWA — the lineage from the
//! paper's related-work discussion (Sec. II) in one table.
//!
//! ```sh
//! cargo run --release -p msd-harness --example classical_vs_learned
//! ```

use msd_baselines::ar::ArModel;
use msd_baselines::ets::holt_winters_forecast;
use msd_baselines::naive::{naive2, naive_last};
use msd_harness::experiments::short_term::{run_single, score_forecasts};
use msd_harness::{ModelSpec, Scale, TrainConfig};
use msd_mixer::variants::Variant;

fn main() {
    println!("== Classical vs learned forecasting (M4-like Hourly, horizon 48) ==\n");
    let spec = msd_data::m4_subsets()
        .into_iter()
        .find(|s| s.name == "Hourly")
        .expect("registry contains Hourly");
    let col = spec.generate();
    let m = spec.periodicity;

    println!("{:<22} {:>8} {:>8} {:>8}", "method", "SMAPE", "MASE", "OWA");
    println!("{}", "-".repeat(50));

    let report = |name: &str, score: msd_metrics::M4Score| {
        println!(
            "{name:<22} {:>8.3} {:>8.3} {:>8.3}",
            score.smape, score.mase, score.owa
        );
    };

    // Classical methods forecast from the full history.
    report(
        "Naive (last value)",
        score_forecasts(&col, |w| naive_last(w, spec.horizon)),
    );
    report(
        "Naive2 (deseasonal)",
        score_forecasts(&col, |w| naive2(w, spec.horizon, m)),
    );
    report(
        "Holt-Winters",
        score_forecasts(&col, |w| {
            holt_winters_forecast(w, spec.horizon, m, 0.3, 0.05, 0.3)
        }),
    );
    report(
        "AR(24) least squares",
        score_forecasts(&col, |w| match ArModel::fit(w, 24.min(w.len() / 3)) {
            Some(model) => model.forecast(w, spec.horizon),
            None => naive_last(w, spec.horizon),
        }),
    );

    // Learned models (trained on the subset's pooled windows).
    for model in [
        ModelSpec::NBeats,
        ModelSpec::NHits,
        ModelSpec::MsdMixer(Variant::Full),
    ] {
        let score = run_single(&col, model, Scale::Fast, &TrainConfig::default());
        report(model.name(), score);
    }

    println!();
    println!("OWA < 1 beats the M4 Naive2 reference (Eq. 8 of the paper).");
    println!("The classical methods are strong on cleanly seasonal series; the");
    println!("learned models pull ahead by sharing structure across all series.");
}

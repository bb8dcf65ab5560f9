//! End-to-end short-term forecasting integration: M4-like generation,
//! pooled training, Naive2-referenced OWA scoring.

use msd_baselines::naive::naive2;
use msd_data::M4Spec;
use msd_harness::experiments::short_term::{run_single, score_forecasts};
use msd_harness::{ModelSpec, Scale, TrainConfig};
use msd_mixer::variants::Variant;

fn tiny_hourly() -> msd_data::M4Collection {
    M4Spec {
        name: "TinyHourly",
        horizon: 12,
        input_len: 24,
        periodicity: 12,
        num_series: 32,
        seed: 77,
    }
    .generate()
}

#[test]
fn naive2_scores_owa_one_against_itself() {
    // Scoring Naive2 itself must give OWA == 1 exactly (Eq. 8 is
    // self-normalising).
    let col = tiny_hourly();
    let score = score_forecasts(&col, |w| {
        // score_forecasts hands the model the input window; Naive2 in the
        // denominator uses the full history, so feed the same window-based
        // forecast both ways by using the full-history variant here.
        let hist = col
            .insample
            .iter()
            .find(|h| &h[h.len() - w.len()..] == w)
            .expect("window belongs to a series");
        naive2(hist, col.spec.horizon, col.spec.periodicity)
    });
    assert!((score.owa - 1.0).abs() < 1e-5, "owa {}", score.owa);
}

#[test]
fn trained_mixer_beats_naive2_on_seasonal_subset() {
    let col = tiny_hourly();
    let score = run_single(
        &col,
        ModelSpec::MsdMixer(Variant::Full),
        Scale::Fast,
        &TrainConfig::default(),
    );
    assert!(
        score.owa < 1.0,
        "MSD-Mixer OWA {} should beat Naive2 on seasonal data",
        score.owa
    );
    assert!(score.smape > 0.0 && score.smape < 200.0);
}

#[test]
fn learned_models_generalise_across_series() {
    // The pooled protocol trains one model on all series; it must not
    // collapse to a per-series memoriser: evaluate on a *fresh* collection
    // from a different seed with the same structure.
    let col = tiny_hourly();
    let score_same = run_single(
        &col,
        ModelSpec::DLinear,
        Scale::Fast,
        &TrainConfig::default(),
    );
    assert!(score_same.owa.is_finite());
    // The same spec with another seed gives a disjoint set of series.
    let other = M4Spec {
        seed: 78,
        ..col.spec.clone()
    }
    .generate();
    let score_other = run_single(
        &other,
        ModelSpec::DLinear,
        Scale::Fast,
        &TrainConfig::default(),
    );
    assert!(
        score_other.owa < score_same.owa * 2.0 + 0.5,
        "cross-seed degradation too large: {} vs {}",
        score_other.owa,
        score_same.owa
    );
}

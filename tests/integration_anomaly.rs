//! End-to-end anomaly-detection integration: reconstruction training on
//! normal data, thresholded scoring, and point-adjusted evaluation.

use msd_data::{anomaly_datasets, AnomalySpec};
use msd_harness::experiments::anomaly::run_single;
use msd_harness::{ModelSpec, Scale, TrainConfig};
use msd_mixer::variants::Variant;

fn small_spec() -> AnomalySpec {
    AnomalySpec {
        train_steps: 1500,
        test_steps: 1500,
        channels: 8,
        ..anomaly_datasets()
            .into_iter()
            .find(|s| s.name == "SMD")
            .unwrap()
    }
}

#[test]
fn mixer_detects_injected_anomalies() {
    let scores = run_single(
        &small_spec(),
        ModelSpec::MsdMixer(Variant::Full),
        Scale::Smoke,
        &TrainConfig::default(),
    );
    assert!(scores.f1 > 0.3, "F1 {} too low", scores.f1);
    assert!(scores.precision > 0.0 && scores.recall > 0.0);
}

#[test]
fn scores_are_valid_probabilities() {
    let scores = run_single(
        &small_spec(),
        ModelSpec::LightTs,
        Scale::Smoke,
        &TrainConfig::default(),
    );
    for v in [scores.precision, scores.recall, scores.f1] {
        assert!((0.0..=1.0).contains(&v), "score {v} out of range");
    }
    // F1 is the harmonic mean of P and R.
    let expect = if scores.precision + scores.recall > 0.0 {
        2.0 * scores.precision * scores.recall / (scores.precision + scores.recall)
    } else {
        0.0
    };
    assert!((scores.f1 - expect).abs() < 1e-5);
}

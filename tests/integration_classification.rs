//! End-to-end classification integration: labeled data generation,
//! cross-entropy training, accuracy evaluation.

use msd_data::{classification_datasets, ClassSpec};
use msd_harness::experiments::classification::run_single;
use msd_harness::{ModelSpec, Scale, TrainConfig};
use msd_mixer::variants::Variant;

fn easy_spec() -> ClassSpec {
    ClassSpec {
        train_size: 72,
        test_size: 72,
        noise: 0.3,
        ..classification_datasets()
            .into_iter()
            .find(|s| s.name == "CR")
            .unwrap()
    }
}

#[test]
fn mixer_classifies_above_chance() {
    let spec = easy_spec();
    let acc = run_single(
        &spec,
        ModelSpec::MsdMixer(Variant::Full),
        Scale::Smoke,
        &TrainConfig::default(),
    );
    let chance = 1.0 / spec.classes as f32;
    assert!(acc > chance * 1.5, "accuracy {acc} vs chance {chance}");
}

#[test]
fn harder_noise_reduces_accuracy_or_ties() {
    let clean = run_single(
        &easy_spec(),
        ModelSpec::DLinear,
        Scale::Smoke,
        &TrainConfig::default(),
    );
    let noisy_spec = ClassSpec {
        noise: 2.5,
        ..easy_spec()
    };
    let noisy = run_single(
        &noisy_spec,
        ModelSpec::DLinear,
        Scale::Smoke,
        &TrainConfig::default(),
    );
    assert!(
        noisy <= clean + 0.15,
        "noise {noisy} should not beat clean {clean}"
    );
}

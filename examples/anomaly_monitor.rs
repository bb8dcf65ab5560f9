//! Domain scenario: unsupervised anomaly monitoring on an SMD-like server
//! telemetry stream — train MSD-Mixer to reconstruct normal behaviour, then
//! flag test windows whose reconstruction error spikes (Sec. IV-E).
//!
//! ```sh
//! cargo run --release -p msd-harness --example anomaly_monitor
//! ```

use msd_data::anomaly_datasets;
use msd_data::AnomalySpec;
use msd_harness::experiments::anomaly::run_single;
use msd_harness::{ModelSpec, Scale, TrainConfig};
use msd_mixer::variants::Variant;

fn main() {
    println!("== Unsupervised anomaly monitoring (reconstruction-based) ==\n");
    let spec = AnomalySpec {
        train_steps: 2000,
        test_steps: 2000,
        channels: 12,
        ..anomaly_datasets()
            .into_iter()
            .find(|s| s.name == "SMD")
            .expect("registry contains SMD")
    };
    println!(
        "stream: {}-like, {} channels, {} normal steps for training,",
        spec.name, spec.channels, spec.train_steps
    );
    println!(
        "{} test steps contaminated with ~{:.1}% anomalous points\n",
        spec.test_steps,
        spec.anomaly_ratio * 100.0
    );

    for model in [
        ModelSpec::MsdMixer(Variant::Full),
        ModelSpec::DLinear,
        ModelSpec::LightTs,
    ] {
        let scores = run_single(&spec, model, Scale::Fast, &TrainConfig::default());
        println!(
            "  {:<10} precision {:>5.1}%  recall {:>5.1}%  F1 {:>5.1}%",
            model.name(),
            scores.precision * 100.0,
            scores.recall * 100.0,
            scores.f1 * 100.0
        );
    }
    println!("\nScores use the point-adjust convention: an anomalous event counts as");
    println!("detected when any point inside it is flagged (Sec. IV-E protocol).");
}

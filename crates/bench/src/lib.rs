#![warn(missing_docs)]

//! # msd-bench
//!
//! The benchmark suite regenerating every table and figure of the
//! MSD-Mixer paper's evaluation section. Each `benches/table_*.rs` target
//! (all `harness = false`, driven by their own `main`) prints the
//! corresponding table with this reproduction's measured numbers next to
//! the paper's reference values where applicable. The `micro_*` targets
//! time hot kernels with the in-tree [`timing`] harness.
//!
//! Run a single table with `cargo bench -p msd-bench --bench
//! table_04_long_term`, or everything with `cargo bench --workspace`.
//! Scale via `MSD_SCALE=smoke|fast|full` (default `fast`). Results are
//! cached under `target/msd-results/` per scale; delete that directory to
//! recompute.

/// A minimal wall-clock timing harness for the `micro_*` benchmarks.
///
/// Replaces the former criterion dev-dependency so the workspace resolves
/// with zero registry access. Each benchmark is warmed up, then run in
/// batches until a time budget is spent; the per-iteration median, minimum,
/// and mean of the batch means are reported.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Measurement for one benchmark case, in seconds per iteration.
    #[derive(Clone, Copy, Debug)]
    pub struct Sample {
        /// Median of the batch means.
        pub median: f64,
        /// Fastest batch mean (lower bound on achievable time).
        pub min: f64,
        /// Mean over all batches.
        pub mean: f64,
        /// Total iterations executed during measurement.
        pub iters: u64,
    }

    /// Times `f`, printing a one-line summary; returns the measurement.
    ///
    /// Adaptive: a short calibration run sizes batches to ~10 ms each, then
    /// up to 30 batches run within a ~600 ms budget, so both sub-microsecond
    /// kernels and multi-second training steps produce stable numbers.
    pub fn bench(name: &str, mut f: impl FnMut()) -> Sample {
        let sample = measure(&mut f);
        println!(
            "{name:<44} median {:>12}  min {:>12}  ({} iters)",
            fmt_duration(sample.median),
            fmt_duration(sample.min),
            sample.iters,
        );
        sample
    }

    /// Times `f` without printing.
    pub fn measure(f: &mut impl FnMut()) -> Sample {
        // Calibrate: how many iterations fit in ~10 ms?
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let per_batch =
            (Duration::from_millis(10).as_secs_f64() / once.as_secs_f64()).clamp(1.0, 1e7) as u64;

        let budget = Duration::from_millis(600);
        let start = Instant::now();
        let mut batch_means = Vec::new();
        let mut iters = 1u64; // the calibration call
        while batch_means.len() < 30 && (batch_means.len() < 3 || start.elapsed() < budget) {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            batch_means.push(t.elapsed().as_secs_f64() / per_batch as f64);
            iters += per_batch;
        }
        batch_means.sort_by(f64::total_cmp);
        Sample {
            median: batch_means[batch_means.len() / 2],
            min: batch_means[0],
            mean: batch_means.iter().sum::<f64>() / batch_means.len() as f64,
            iters,
        }
    }

    /// Formats seconds as a human-readable duration (ns/µs/ms/s).
    pub fn fmt_duration(secs: f64) -> String {
        if secs < 1e-6 {
            format!("{:.1} ns", secs * 1e9)
        } else if secs < 1e-3 {
            format!("{:.2} µs", secs * 1e6)
        } else if secs < 1.0 {
            format!("{:.2} ms", secs * 1e3)
        } else {
            format!("{:.3} s", secs)
        }
    }
}

/// Paper reference values used as the "paper" column in printed tables.
pub mod paper {
    /// Table II: per-task win counts of MSD-Mixer in the paper
    /// (task, paper benchmarks, paper MSD-Mixer wins).
    pub const TABLE_II_MSD_WINS: [(&str, usize, usize); 5] = [
        ("Long-Term Forecasting", 64, 49),
        ("Short-Term Forecasting", 15, 15),
        ("Imputation", 48, 45),
        ("Anomaly Detection", 5, 4),
        ("Classification", 10, 5),
    ];

    /// Table IV (paper): MSE of MSD-Mixer / PatchTST / DLinear on ETTh1 at
    /// the four horizons — used to sanity-print the expected ordering.
    pub const TABLE_IV_ETTH1_MSE: [(usize, f32, f32, f32); 4] = [
        (96, 0.377, 0.444, 0.386),
        (192, 0.427, 0.488, 0.437),
        (336, 0.469, 0.525, 0.481),
        (720, 0.485, 0.532, 0.519),
    ];

    /// Table VI (paper): weighted-average SMAPE / MASE / OWA of MSD-Mixer
    /// and the two strongest short-term baselines.
    pub const TABLE_VI_AVG: [(&str, f32, f32, f32); 3] = [
        ("MSD-Mixer", 11.700, 1.557, 0.838),
        ("N-HiTS", 11.927, 1.613, 0.861),
        ("N-BEATS", 11.851, 1.599, 0.855),
    ];

    /// Table IX (paper): average F1 (%) over the five anomaly datasets.
    pub const TABLE_IX_AVG_F1: [(&str, f32); 3] =
        [("MSD-Mixer", 93.0), ("PatchTST", 82.8), ("DLinear", 83.8)];

    /// Table XI (paper): average accuracy over the ten UEA subsets for the
    /// task-general models we reproduce.
    pub const TABLE_XI_AVG_ACC: [(&str, f32); 3] = [
        ("MSD-Mixer", 0.807),
        ("PatchTST", 0.450),
        ("DLinear", 0.708),
    ];

    /// Table XII (paper): full-model vs variant averages (long-term MSE,
    /// OWA, imputation MSE, anomaly F1, classification accuracy).
    pub const TABLE_XII: [(&str, f32, f32, f32, f32, f32); 5] = [
        ("MSD-Mixer", 0.345, 0.838, 0.038, 0.930, 0.807),
        ("MSD-Mixer-I", 0.345, 0.837, 0.039, 0.925, 0.803),
        ("MSD-Mixer-N", 0.358, 0.853, 0.041, 0.918, 0.732),
        ("MSD-Mixer-U", 0.422, 0.853, 0.058, 0.847, 0.729),
        ("MSD-Mixer-L", 0.348, 0.844, 0.040, 0.897, 0.768),
    ];
}

/// Prints the shared bench banner (scale, cache dir, telemetry sink) and
/// returns the bench's [`msd_harness::Scale`] and the base
/// [`msd_harness::TrainConfig`] its experiment runners start every fit
/// from.
///
/// This is the bench binaries' one configuration read. The base is the
/// compiled default except for `telemetry`, taken from `MSD_TELEMETRY`:
/// when that is set, every fit of the bench appends its JSONL event log
/// there, and the banner says so, so an instrumented bench run is visibly
/// instrumented.
// Reads MSD_TELEMETRY.
#[allow(clippy::disallowed_methods)]
pub fn banner(table: &str) -> (msd_harness::Scale, msd_harness::TrainConfig) {
    let scale = msd_harness::Scale::from_env();
    let telemetry = std::env::var("MSD_TELEMETRY")
        .ok()
        .filter(|path| !path.is_empty());
    println!();
    println!(
        "### {table} — MSD-Mixer reproduction (scale: {}, cache: {}) ###",
        scale.name(),
        msd_harness::experiments::cache_dir().display()
    );
    if let Some(path) = &telemetry {
        println!("### training telemetry (JSONL): {path} ###");
    }
    println!();
    let base = msd_harness::TrainConfig {
        telemetry: telemetry.map(Into::into),
        ..msd_harness::TrainConfig::default()
    };
    (scale, base)
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_constants_are_consistent() {
        let total: usize = super::paper::TABLE_II_MSD_WINS.iter().map(|r| r.1).sum();
        assert_eq!(total, 142);
        let wins: usize = super::paper::TABLE_II_MSD_WINS.iter().map(|r| r.2).sum();
        assert_eq!(wins, 118);
    }
}

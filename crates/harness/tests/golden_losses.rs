//! Golden-value regression tests: short seeded training runs whose
//! per-epoch loss curves are digested bit-for-bit and compared against
//! committed constants.
//!
//! These are the canary for the kernel layer's determinism contract: any
//! change to accumulation order, dispatch, fusion, optimizer numerics, or
//! data generation shifts at least one loss bit and flips the digest. The
//! same run is repeated under a second (threads, kernel-tier) environment
//! and must produce the *same* digest, so a tier- or thread-dependent
//! regression cannot hide behind a re-bless.
//!
//! When an *intentional* numeric change lands (new fusion, different
//! reduction spec), re-bless by running with `--nocapture` and copying the
//! printed digests into the constants below — the failure message includes
//! the full per-epoch loss bits to make the diff reviewable.
//!
//! Each sweep mutates the process-wide `MSD_NUM_THREADS` and
//! `MSD_KERNEL_FORCE`, and the test harness runs the two `#[test]`s on
//! parallel threads, so every [`check_golden`] call holds a file-local lock:
//! one test's `(1, scalar)` leg can never run under the other's
//! `(4, auto)` settings, nor restore the other's values.

use msd_data::{classification_datasets, ClassSpec, Split, SlidingWindows};
use msd_harness::{fit, ClassifySource, ForecastSource, ModelSpec, TrainConfig};
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Serializes the env mutations of [`check_golden`] across the test
/// threads. Poison-tolerant: a failed digest in one test must not turn the
/// other into a lock panic.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Blessed digest of the forecasting run's loss curves.
const GOLDEN_FORECAST: u64 = 0x8982_c0bb_8faf_e690;
/// Blessed digest of the classification run's loss curves.
const GOLDEN_CLASSIFY: u64 = 0x7315_615f_3b2a_f656;

/// FNV-1a over the little-endian bytes of each loss's bit pattern.
fn digest(curves: &[&[f32]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for curve in curves {
        for loss in *curve {
            for byte in loss.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

fn bits_of(curve: &[f32]) -> Vec<String> {
    curve.iter().map(|l| format!("{l}={:#010x}", l.to_bits())).collect()
}

/// Runs `run` under two (threads, kernel-force) environments, asserts both
/// digests match each other and the blessed constant.
fn check_golden(name: &str, golden: u64, run: impl Fn() -> (Vec<f32>, Vec<f32>)) {
    let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let saved_threads = std::env::var("MSD_NUM_THREADS").ok();
    let saved_force = std::env::var("MSD_KERNEL_FORCE").ok();

    let mut digests = Vec::new();
    for (threads, force) in [("1", "scalar"), ("4", "auto")] {
        std::env::set_var("MSD_NUM_THREADS", threads);
        std::env::set_var("MSD_KERNEL_FORCE", force);
        let (train, val) = run();
        let d = digest(&[&train, &val]);
        digests.push((threads, force, d, train, val));
    }

    match saved_threads {
        Some(v) => std::env::set_var("MSD_NUM_THREADS", v),
        None => std::env::remove_var("MSD_NUM_THREADS"),
    }
    match saved_force {
        Some(v) => std::env::set_var("MSD_KERNEL_FORCE", v),
        None => std::env::remove_var("MSD_KERNEL_FORCE"),
    }

    let (_, _, d0, train0, val0) = &digests[0];
    for (threads, force, d, train, val) in &digests[1..] {
        assert_eq!(
            d, d0,
            "{name}: loss digest differs between environments \
             (threads={threads}, force={force}): determinism contract broken.\n\
             reference train bits: {:?}\nthis env train bits: {:?}",
            bits_of(train0),
            bits_of(train)
        );
        let _ = val;
    }
    assert_eq!(
        *d0, golden,
        "{name}: loss digest {d0:#018x} != blessed {golden:#018x}.\n\
         If this change is intentional, re-bless GOLDEN_* in golden_losses.rs.\n\
         train losses: {:?}\nval losses: {:?}",
        bits_of(train0),
        bits_of(val0)
    );
}

#[test]
fn golden_forecast_losses() {
    check_golden("forecast", GOLDEN_FORECAST, || {
        let data = Tensor::from_vec(
            &[1, 400],
            (0..400).map(|i| (i as f32 / 4.0).sin() + 0.1 * (i as f32 / 17.0).cos()).collect(),
        );
        let train_src = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Train), 48);
        let val_src = ForecastSource::new(SlidingWindows::new(&data, 24, 8, Split::Val), 16);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(9);
        let model = ModelSpec::MsdMixer(Variant::Full).build(
            &mut store,
            &mut rng,
            1,
            24,
            Task::Forecast { horizon: 8 },
            4,
        );
        let report = fit(
            &model,
            &mut store,
            &train_src,
            Some(&val_src),
            &TrainConfig {
                epochs: 3,
                batch_size: 16,
                lr: 5e-3,
                seed: 11,
                ..TrainConfig::default()
            },
        );
        assert!(report.aborted.is_none(), "golden run aborted: {:?}", report.aborted);
        (report.train_losses, report.val_losses)
    });
}

#[test]
fn golden_classification_losses() {
    check_golden("classification", GOLDEN_CLASSIFY, || {
        let spec = ClassSpec {
            train_size: 48,
            test_size: 16,
            noise: 0.3,
            ..classification_datasets()[3].clone()
        };
        let data = spec.generate();
        let train_src = ClassifySource::new(data.train_x, data.train_y);
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(37);
        let model = ModelSpec::MsdMixer(Variant::Full).build(
            &mut store,
            &mut rng,
            spec.channels,
            spec.series_len,
            Task::Classify { classes: spec.classes },
            4,
        );
        let report = fit(
            &model,
            &mut store,
            &train_src,
            None,
            &TrainConfig {
                epochs: 3,
                batch_size: 16,
                lr: 1e-3,
                seed: 13,
                ..TrainConfig::default()
            },
        );
        assert!(report.aborted.is_none(), "golden run aborted: {:?}", report.aborted);
        (report.train_losses, report.val_losses)
    });
}

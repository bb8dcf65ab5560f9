//! Warm retraining: turning a buffer of recent windows into a fine-tune
//! that *resumes* from a synthesized `TrainCheckpoint`, so the adaptation
//! path exercises exactly the PR 3 resume machinery — and can be replayed
//! standalone, bit for bit, from the same checkpoint bytes.
//!
//! The seed checkpoint encodes the state a fresh `fit` run would have at
//! epoch 0, batch 0: current parameters, a fresh optimiser, and the RNG
//! *after* drawing the epoch-0 shuffle (the trainer's resume path reuses
//! the checkpointed order rather than redrawing it). Resuming from it is
//! therefore bit-identical to running the same config from scratch on the
//! same parameters, while proving the trigger path flows through
//! checkpoint validation, staged optimiser import, and cursor restore.

use msd_data::{random_observed_mask, Batcher};
use msd_harness::{BatchSource, Fingerprint, TrainCheckpoint, TrainConfig, TrainerState};
use msd_nn::checkpoint::CheckpointDir;
use msd_nn::{Adam, AdamConfig, LrSchedule, Optimizer, ParamStore, Target};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;
use std::cell::RefCell;
use std::path::Path;

/// Hyperparameters of one warm fine-tune, independent of where its
/// checkpoint directory lives (each retrain gets a fresh directory).
#[derive(Clone, Copy, Debug)]
pub struct RetrainParams {
    /// Fine-tune epochs over the buffer.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Shuffle/dropout seed of the fine-tune.
    pub seed: u64,
    /// Fraction of positions zeroed per denoising batch.
    pub corrupt_ratio: f32,
    /// Seed of the corruption mask stream.
    pub corrupt_seed: u64,
}

impl RetrainParams {
    /// The smoke-scale fine-tune used by the harness bin and tests.
    pub fn smoke() -> Self {
        Self {
            epochs: 4,
            batch_size: 16,
            lr: 1e-2,
            seed: 97,
            corrupt_ratio: 0.15,
            corrupt_seed: 71,
        }
    }

    /// The `TrainConfig` of a fine-tune checkpointing into `dir`. Both the
    /// engine and the standalone replay build their config here, so the
    /// fingerprints (and numerics) cannot diverge. Every other knob is the
    /// compiled default, so a replay does not depend on the flags or the
    /// environment of the process it runs in.
    pub fn train_config(&self, dir: &Path) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            schedule: LrSchedule::Constant,
            seed: self.seed,
            checkpoint_dir: Some(dir.to_path_buf()),
            resume: true,
            ..TrainConfig::default()
        }
    }
}

/// Denoising reconstruction over an owned `[N, C, L]` stack of recent
/// windows — the streaming counterpart of the harness `DenoisingSource`,
/// which borrows a `SlidingWindows` view instead.
pub struct BufferSource {
    x: Tensor,
    corrupt_ratio: f32,
    rng: RefCell<Rng>,
}

impl BufferSource {
    /// Wraps stacked windows; `corrupt_ratio` of positions are zeroed per
    /// batch, with masks drawn from `seed`.
    pub fn new(x: Tensor, corrupt_ratio: f32, seed: u64) -> Self {
        assert_eq!(x.shape().len(), 3, "expected [N, C, L] windows");
        Self {
            x,
            corrupt_ratio,
            rng: RefCell::new(Rng::seed_from(seed)),
        }
    }

    /// Stacks `[C, L]` windows into the `[N, C, L]` tensor this source
    /// consumes.
    pub fn stack(windows: &[Tensor]) -> Tensor {
        assert!(!windows.is_empty(), "cannot stack zero windows");
        let shape = windows[0].shape().to_vec();
        let mut data = Vec::with_capacity(windows.len() * shape[0] * shape[1]);
        for w in windows {
            assert_eq!(w.shape(), &shape[..], "ragged window stack");
            data.extend_from_slice(w.data());
        }
        Tensor::from_vec(&[windows.len(), shape[0], shape[1]], data)
    }
}

impl BatchSource for BufferSource {
    fn len(&self) -> usize {
        self.x.shape()[0]
    }

    fn batch(&self, indices: &[usize]) -> (Tensor, Target) {
        let (c, l) = (self.x.shape()[1], self.x.shape()[2]);
        let mut data = Vec::with_capacity(indices.len() * c * l);
        for &i in indices {
            data.extend_from_slice(&self.x.data()[i * c * l..(i + 1) * c * l]);
        }
        let clean = Tensor::from_vec(&[indices.len(), c, l], data);
        let mask = random_observed_mask(
            clean.shape(),
            self.corrupt_ratio,
            &mut self.rng.borrow_mut(),
        );
        (clean.mul(&mask), Target::Series(clean))
    }
}

/// Synthesizes the epoch-0/batch-0 checkpoint a warm fine-tune resumes
/// from: `store`'s current parameters, a fresh Adam, and the RNG state
/// *after* the epoch-0 shuffle of `n_windows` samples.
pub fn seed_checkpoint(store: &ParamStore, n_windows: usize, cfg: &TrainConfig) -> TrainCheckpoint {
    let mut rng = Rng::seed_from(cfg.seed);
    let batcher = Batcher::new(n_windows, cfg.batch_size, Some(&mut rng));
    let order: Vec<u64> = batcher.order().iter().map(|&i| i as u64).collect();
    let opt = Adam::new(AdamConfig {
        lr: cfg.lr,
        ..AdamConfig::default()
    });
    TrainCheckpoint {
        fingerprint: Fingerprint {
            seed: cfg.seed,
            batch_size: cfg.batch_size as u64,
            epochs: cfg.epochs as u64,
            lr: cfg.lr,
            schedule: format!("{:?}", cfg.schedule),
            train_len: n_windows as u64,
        },
        params: store
            .iter()
            .map(|(_, name, v)| (name.to_string(), v.clone()))
            .collect(),
        optim: opt.export_state(),
        rng: rng.state(),
        trainer: TrainerState {
            epoch: 0,
            next_batch: 0,
            order,
            epoch_loss: 0.0,
            epoch_batches: 0,
            epoch_skipped: 0,
            lr_scale: 1.0,
            consecutive_failures: 0,
            applied_total: 0,
            train_losses: Vec::new(),
            val_losses: Vec::new(),
            skipped_batches: 0,
            rollbacks: 0,
            best_val: f32::INFINITY,
            bad_epochs: 0,
            telemetry: Default::default(),
        },
        best: None,
    }
}

/// Installs `checkpoint` bytes as the newest file under `dir` so a
/// `resume: true` fit picks them up.
pub fn install_checkpoint(dir: &Path, bytes: &[u8]) -> std::io::Result<()> {
    CheckpointDir::new(dir, 2).save(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_config_pins_every_field() {
        let p = RetrainParams::smoke();
        let dir = Path::new("retrain-dir");
        // Exhaustive destructuring: a new `TrainConfig` field fails to
        // compile here until this test pins it.
        let TrainConfig {
            epochs,
            batch_size,
            lr,
            patience,
            schedule,
            seed,
            max_retries,
            lr_backoff,
            snapshot_every,
            checkpoint_dir,
            checkpoint_every,
            checkpoint_keep,
            resume,
            kill_after_batches,
            telemetry,
        } = p.train_config(dir);
        assert_eq!(epochs, 4);
        assert_eq!(batch_size, 16);
        assert_eq!(lr.to_bits(), 1e-2f32.to_bits());
        assert_eq!(patience, 3);
        assert!(matches!(schedule, LrSchedule::Constant), "{schedule:?}");
        assert_eq!(seed, 97);
        assert_eq!(max_retries, 4);
        assert_eq!(lr_backoff.to_bits(), 0.5f32.to_bits());
        assert_eq!(snapshot_every, 1);
        assert_eq!(checkpoint_dir.as_deref(), Some(dir));
        assert_eq!(checkpoint_every, 8);
        assert_eq!(checkpoint_keep, 2);
        assert!(resume);
        assert_eq!(kill_after_batches, None);
        assert_eq!(telemetry, None);
    }
}

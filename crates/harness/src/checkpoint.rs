//! Durable training state: everything the `fit` loop needs to continue a
//! killed run bit-identically, packed into one `MSDCKPT2` container (see
//! [`msd_nn::checkpoint`] for the on-disk format and crash-safety rules).
//!
//! A [`TrainCheckpoint`] captures parameters, the optimiser's moment
//! tensors and step counts, the RNG state, the epoch/batch cursor with the
//! current epoch's shuffle order, the sticky lr-backoff multiplier, the
//! early-stopping best snapshot, and the telemetry counters. Loading
//! verifies every CRC and stages the whole state before committing, so a
//! torn or corrupted file is rejected as an [`io::Error`] and the caller
//! falls back to the newest valid rotation.

use crate::telemetry::TelemetrySummary;
use msd_nn::checkpoint::{
    corrupt, decode_container, encode_container, read_tensor, write_tensor, ByteReader, ByteWriter,
    CheckpointDir,
};
use msd_nn::{OptimState, ParamStore};
use msd_tensor::rng::RngState;
use msd_tensor::Tensor;
use std::io;
use std::path::PathBuf;

/// Identifies the run a checkpoint belongs to. Resuming under a different
/// seed, batch size, epoch budget, learning rate, or schedule could not be
/// bit-identical, so a fingerprint mismatch refuses the resume instead of
/// silently diverging.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// Training RNG seed.
    pub seed: u64,
    /// Mini-batch size.
    pub batch_size: u64,
    /// Total epoch budget of the run.
    pub epochs: u64,
    /// Base learning rate (bit pattern compared).
    pub lr: f32,
    /// Debug rendering of the lr schedule.
    pub schedule: String,
    /// Number of samples in the training source.
    pub train_len: u64,
}

/// Mid-run cursor and accumulator state of the training loop.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainerState {
    /// Epoch being trained when the checkpoint was written.
    pub epoch: u64,
    /// Index of the next batch to run within that epoch.
    pub next_batch: u64,
    /// The epoch's shuffled sample order (the shuffle consumed the RNG
    /// before the checkpoint, so resume must reuse it, not redraw it).
    pub order: Vec<u64>,
    /// Partial-epoch loss accumulator (f64, matching the live accumulator).
    pub epoch_loss: f64,
    /// Applied batches so far in the partial epoch.
    pub epoch_batches: u64,
    /// Skipped (non-finite) batches so far in the partial epoch.
    pub epoch_skipped: u64,
    /// Sticky lr-backoff multiplier from divergence recoveries.
    pub lr_scale: f32,
    /// Consecutive non-finite batches at checkpoint time.
    pub consecutive_failures: u64,
    /// Applied batches across the whole run (drives checkpoint cadence).
    pub applied_total: u64,
    /// Per-epoch mean training losses of completed epochs.
    pub train_losses: Vec<f32>,
    /// Per-epoch validation losses of completed epochs.
    pub val_losses: Vec<f32>,
    /// Skipped batches across completed epochs.
    pub skipped_batches: u64,
    /// Divergence rollbacks performed so far.
    pub rollbacks: u64,
    /// Best validation loss seen (infinity when none).
    pub best_val: f32,
    /// Epochs since the validation loss last improved.
    pub bad_epochs: u64,
    /// Telemetry counters at checkpoint time.
    pub telemetry: TelemetrySummary,
}

/// The complete durable state of one training run.
#[derive(Clone, Debug)]
pub struct TrainCheckpoint {
    /// Run identity; validated before any state is applied.
    pub fingerprint: Fingerprint,
    /// Parameter names and values in registration order.
    pub params: Vec<(String, Tensor)>,
    /// Optimiser moments and step counts.
    pub optim: OptimState,
    /// Training RNG state (shuffle + dropout stream).
    pub rng: RngState,
    /// Loop cursors and accumulators.
    pub trainer: TrainerState,
    /// Early-stopping best parameter snapshot, when one exists.
    pub best: Option<Vec<Tensor>>,
}

impl TrainCheckpoint {
    /// Serialises the checkpoint into an `MSDCKPT2` container.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_u64(self.fingerprint.seed);
        meta.put_u64(self.fingerprint.batch_size);
        meta.put_u64(self.fingerprint.epochs);
        meta.put_f32(self.fingerprint.lr);
        meta.put_str(&self.fingerprint.schedule);
        meta.put_u64(self.fingerprint.train_len);

        let mut params = ByteWriter::new();
        params.put_u32(self.params.len() as u32);
        for (name, value) in &self.params {
            params.put_str(name);
            write_tensor(&mut params, value);
        }

        let mut optim = ByteWriter::new();
        optim.put_str(&self.optim.kind);
        optim.put_u32(self.optim.steps.len() as u32);
        for &s in &self.optim.steps {
            optim.put_u64(s);
        }
        optim.put_u32(self.optim.slots.len() as u32);
        for (bank, slots) in &self.optim.slots {
            optim.put_str(bank);
            optim.put_u32(slots.len() as u32);
            for slot in slots {
                match slot {
                    Some(t) => {
                        optim.put_u8(1);
                        write_tensor(&mut optim, t);
                    }
                    None => optim.put_u8(0),
                }
            }
        }

        let mut rng = ByteWriter::new();
        for &w in &self.rng.s {
            rng.put_u64(w);
        }
        match self.rng.spare {
            Some(v) => {
                rng.put_u8(1);
                rng.put_f32(v);
            }
            None => rng.put_u8(0),
        }

        let t = &self.trainer;
        let mut trainer = ByteWriter::new();
        trainer.put_u64(t.epoch);
        trainer.put_u64(t.next_batch);
        trainer.put_u32(t.order.len() as u32);
        for &i in &t.order {
            trainer.put_u64(i);
        }
        trainer.put_f64(t.epoch_loss);
        trainer.put_u64(t.epoch_batches);
        trainer.put_u64(t.epoch_skipped);
        trainer.put_f32(t.lr_scale);
        trainer.put_u64(t.consecutive_failures);
        trainer.put_u64(t.applied_total);
        trainer.put_u32(t.train_losses.len() as u32);
        for &l in &t.train_losses {
            trainer.put_f32(l);
        }
        trainer.put_u32(t.val_losses.len() as u32);
        for &l in &t.val_losses {
            trainer.put_f32(l);
        }
        trainer.put_u64(t.skipped_batches);
        trainer.put_u64(t.rollbacks);
        trainer.put_f32(t.best_val);
        trainer.put_u64(t.bad_epochs);
        trainer.put_u64(t.telemetry.batches as u64);
        trainer.put_u64(t.telemetry.skipped_batches as u64);
        trainer.put_u64(t.telemetry.clip_activations as u64);
        trainer.put_u64(t.telemetry.rollbacks as u64);
        trainer.put_u64(t.telemetry.restores as u64);
        trainer.put_f32(t.telemetry.max_grad_norm);
        trainer.put_f64(t.telemetry.batch_wall_ms);

        let mut sections = vec![
            ("meta", meta.into_bytes()),
            ("params", params.into_bytes()),
            ("optim", optim.into_bytes()),
            ("rng", rng.into_bytes()),
            ("trainer", trainer.into_bytes()),
        ];
        if let Some(best) = &self.best {
            let mut w = ByteWriter::new();
            w.put_u32(best.len() as u32);
            for t in best {
                write_tensor(&mut w, t);
            }
            sections.push(("best", w.into_bytes()));
        }
        encode_container(&sections)
    }

    /// Parses and fully validates a container produced by
    /// [`TrainCheckpoint::encode`]. Structural damage of any kind —
    /// truncation, flipped bytes, missing sections, trailing garbage —
    /// yields an `InvalidData` error; nothing panics and nothing is
    /// partially applied (decoding builds a fresh value).
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let sections = decode_container(bytes)?;
        let get = |name: &str| -> io::Result<&[u8]> {
            sections
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| p.as_slice())
                .ok_or_else(|| corrupt(format!("checkpoint missing '{name}' section")))
        };

        let mut r = ByteReader::new(get("meta")?);
        let fingerprint = Fingerprint {
            seed: r.get_u64("seed")?,
            batch_size: r.get_u64("batch_size")?,
            epochs: r.get_u64("epochs")?,
            lr: r.get_f32("lr")?,
            schedule: r.get_str("schedule")?,
            train_len: r.get_u64("train_len")?,
        };
        finish(r, "meta")?;

        let mut r = ByteReader::new(get("params")?);
        let count = r.get_u32("param count")? as usize;
        let mut params = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let name = r.get_str("param name")?;
            let value = read_tensor(&mut r)?;
            params.push((name, value));
        }
        finish(r, "params")?;

        let mut r = ByteReader::new(get("optim")?);
        let kind = r.get_str("optimizer kind")?;
        let n_steps = r.get_u32("step count")? as usize;
        if n_steps.checked_mul(8).is_none_or(|b| b > r.remaining()) {
            return Err(corrupt(format!(
                "implausible optimizer step count {n_steps}"
            )));
        }
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            steps.push(r.get_u64("step")?);
        }
        let n_banks = r.get_u32("slot bank count")? as usize;
        let mut slots = Vec::with_capacity(n_banks.min(r.remaining()));
        for _ in 0..n_banks {
            let bank = r.get_str("slot bank name")?;
            let n = r.get_u32("slot count")? as usize;
            if n > r.remaining() {
                return Err(corrupt(format!("implausible slot count {n}")));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(match r.get_u8("slot flag")? {
                    0 => None,
                    1 => Some(read_tensor(&mut r)?),
                    f => return Err(corrupt(format!("bad slot flag {f}"))),
                });
            }
            slots.push((bank, entries));
        }
        finish(r, "optim")?;
        let optim = OptimState { kind, steps, slots };

        let mut r = ByteReader::new(get("rng")?);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = r.get_u64("rng word")?;
        }
        let spare = match r.get_u8("rng spare flag")? {
            0 => None,
            1 => Some(r.get_f32("rng spare")?),
            f => return Err(corrupt(format!("bad rng spare flag {f}"))),
        };
        finish(r, "rng")?;
        let rng = RngState { s, spare };

        let mut r = ByteReader::new(get("trainer")?);
        let epoch = r.get_u64("epoch")?;
        let next_batch = r.get_u64("next_batch")?;
        let n_order = r.get_u32("order length")? as usize;
        if n_order.checked_mul(8).is_none_or(|b| b > r.remaining()) {
            return Err(corrupt(format!("implausible order length {n_order}")));
        }
        let mut order = Vec::with_capacity(n_order);
        for _ in 0..n_order {
            order.push(r.get_u64("order index")?);
        }
        let epoch_loss = r.get_f64("epoch_loss")?;
        let epoch_batches = r.get_u64("epoch_batches")?;
        let epoch_skipped = r.get_u64("epoch_skipped")?;
        let lr_scale = r.get_f32("lr_scale")?;
        let consecutive_failures = r.get_u64("consecutive_failures")?;
        let applied_total = r.get_u64("applied_total")?;
        let n_train = r.get_u32("train loss count")? as usize;
        if n_train.checked_mul(4).is_none_or(|b| b > r.remaining()) {
            return Err(corrupt(format!("implausible train loss count {n_train}")));
        }
        let mut train_losses = Vec::with_capacity(n_train);
        for _ in 0..n_train {
            train_losses.push(r.get_f32("train loss")?);
        }
        let n_val = r.get_u32("val loss count")? as usize;
        if n_val.checked_mul(4).is_none_or(|b| b > r.remaining()) {
            return Err(corrupt(format!("implausible val loss count {n_val}")));
        }
        let mut val_losses = Vec::with_capacity(n_val);
        for _ in 0..n_val {
            val_losses.push(r.get_f32("val loss")?);
        }
        let skipped_batches = r.get_u64("skipped_batches")?;
        let rollbacks = r.get_u64("rollbacks")?;
        let best_val = r.get_f32("best_val")?;
        let bad_epochs = r.get_u64("bad_epochs")?;
        let telemetry = TelemetrySummary {
            batches: r.get_u64("tel batches")? as usize,
            skipped_batches: r.get_u64("tel skipped")? as usize,
            clip_activations: r.get_u64("tel clip")? as usize,
            rollbacks: r.get_u64("tel rollbacks")? as usize,
            restores: r.get_u64("tel restores")? as usize,
            max_grad_norm: r.get_f32("tel max_grad_norm")?,
            batch_wall_ms: r.get_f64("tel wall_ms")?,
        };
        finish(r, "trainer")?;
        let trainer = TrainerState {
            epoch,
            next_batch,
            order,
            epoch_loss,
            epoch_batches,
            epoch_skipped,
            lr_scale,
            consecutive_failures,
            applied_total,
            train_losses,
            val_losses,
            skipped_batches,
            rollbacks,
            best_val,
            bad_epochs,
            telemetry,
        };

        let best = match sections.iter().find(|(n, _)| n == "best") {
            Some((_, payload)) => {
                let mut r = ByteReader::new(payload);
                let n = r.get_u32("best count")? as usize;
                if n > r.remaining() {
                    return Err(corrupt(format!("implausible best count {n}")));
                }
                let mut tensors = Vec::with_capacity(n);
                for _ in 0..n {
                    tensors.push(read_tensor(&mut r)?);
                }
                finish(r, "best")?;
                Some(tensors)
            }
            None => None,
        };

        Ok(Self {
            fingerprint,
            params,
            optim,
            rng,
            trainer,
            best,
        })
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `fingerprint` and matches `store`'s registered parameters. A
    /// mismatch means "wrong run", not "corrupt file" — the caller should
    /// start fresh rather than fall back to an older rotation.
    pub fn validate(&self, fingerprint: &Fingerprint, store: &ParamStore) -> io::Result<()> {
        if self.fingerprint.seed != fingerprint.seed
            || self.fingerprint.batch_size != fingerprint.batch_size
            || self.fingerprint.epochs != fingerprint.epochs
            || self.fingerprint.lr.to_bits() != fingerprint.lr.to_bits()
            || self.fingerprint.schedule != fingerprint.schedule
            || self.fingerprint.train_len != fingerprint.train_len
        {
            return Err(corrupt(format!(
                "checkpoint fingerprint {:?} does not match run {fingerprint:?}",
                self.fingerprint
            )));
        }
        if self.params.len() != store.len() {
            return Err(corrupt(format!(
                "checkpoint has {} params, store has {}",
                self.params.len(),
                store.len()
            )));
        }
        for (idx, (name, value)) in self.params.iter().enumerate() {
            if name != store.name(idx) {
                return Err(corrupt(format!(
                    "param {idx} name mismatch: checkpoint '{name}' vs store '{}'",
                    store.name(idx)
                )));
            }
            if value.shape() != store.get(idx).shape() {
                return Err(corrupt(format!(
                    "param '{name}' shape {:?} vs store {:?}",
                    value.shape(),
                    store.get(idx).shape()
                )));
            }
        }
        if let Some(best) = &self.best {
            if best.len() != store.len() {
                return Err(corrupt("best snapshot param count mismatch"));
            }
            for (idx, t) in best.iter().enumerate() {
                if t.shape() != store.get(idx).shape() {
                    return Err(corrupt(format!("best snapshot param {idx} shape mismatch")));
                }
            }
        }
        if self.trainer.order.len() != fingerprint.train_len as usize {
            return Err(corrupt(format!(
                "epoch order covers {} samples, source has {}",
                self.trainer.order.len(),
                fingerprint.train_len
            )));
        }
        if let Some(&bad) = self
            .trainer
            .order
            .iter()
            .find(|&&i| i >= fingerprint.train_len)
        {
            return Err(corrupt(format!(
                "epoch order index {bad} out of range for {} samples",
                fingerprint.train_len
            )));
        }
        Ok(())
    }

    /// Encodes and atomically installs this checkpoint as the newest file
    /// in `dir`, rotating older generations.
    pub fn save(&self, dir: &CheckpointDir) -> io::Result<()> {
        dir.save(&self.encode())
    }

    /// Loads the newest structurally valid checkpoint from `dir`, falling
    /// back through the rotations past any torn or corrupt file. `None`
    /// when no candidate decodes.
    pub fn load_newest(dir: &CheckpointDir) -> Option<(PathBuf, Self)> {
        dir.load_newest_valid(Self::decode)
    }
}

/// Asserts a section was consumed exactly — trailing bytes mean the file
/// was written by a different (newer/corrupt) encoder.
fn finish(r: ByteReader<'_>, section: &str) -> io::Result<()> {
    if !r.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes in '{section}' section",
            r.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_tensor::rng::Rng;

    fn sample() -> TrainCheckpoint {
        let mut rng = Rng::seed_from(5);
        let w = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let b = Tensor::from_vec(&[2], vec![f32::NAN, f32::INFINITY]);
        TrainCheckpoint {
            fingerprint: Fingerprint {
                seed: 7,
                batch_size: 16,
                epochs: 5,
                lr: 1e-3,
                schedule: "HalvingAfter(1)".into(),
                train_len: 6,
            },
            params: vec![("layer.w".into(), w.clone()), ("layer.b".into(), b)],
            optim: OptimState {
                kind: "adam".into(),
                steps: vec![3, 0],
                slots: vec![
                    ("m".into(), vec![Some(w.clone()), None]),
                    ("v".into(), vec![Some(w.clone()), None]),
                ],
            },
            rng: rng.state(),
            trainer: TrainerState {
                epoch: 2,
                next_batch: 1,
                order: vec![4, 0, 3, 2, 1, 5],
                epoch_loss: 0.125,
                epoch_batches: 1,
                epoch_skipped: 0,
                lr_scale: 0.5,
                consecutive_failures: 0,
                applied_total: 9,
                train_losses: vec![1.0, 0.5],
                val_losses: vec![2.0, 1.5],
                skipped_batches: 1,
                rollbacks: 1,
                best_val: 1.5,
                bad_epochs: 0,
                telemetry: TelemetrySummary {
                    batches: 9,
                    skipped_batches: 1,
                    clip_activations: 2,
                    rollbacks: 1,
                    restores: 1,
                    max_grad_norm: 3.5,
                    batch_wall_ms: 12.0,
                },
            },
            best: Some(vec![w.clone(), Tensor::zeros(&[2])]),
        }
    }

    #[test]
    fn encode_decode_round_trip_is_bit_exact() {
        let ck = sample();
        let back = TrainCheckpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.trainer, ck.trainer);
        assert_eq!(back.rng, ck.rng);
        assert_eq!(back.optim.kind, "adam");
        assert_eq!(back.optim.steps, ck.optim.steps);
        for ((n0, t0), (n1, t1)) in ck.params.iter().zip(&back.params) {
            assert_eq!(n0, n1);
            assert_eq!(t0.shape(), t1.shape());
            for (a, b) in t0.data().iter().zip(t1.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "param payload bits differ");
            }
        }
        assert!(back.best.is_some());
    }

    #[test]
    fn every_truncation_and_flip_is_rejected() {
        let bytes = sample().encode();
        for len in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            assert!(
                TrainCheckpoint::decode(&bytes[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
        for i in (0..bytes.len()).step_by(11) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            assert!(
                TrainCheckpoint::decode(&bad).is_err(),
                "flip at {i} accepted"
            );
        }
    }

    #[test]
    fn validate_catches_wrong_run_and_wrong_model() {
        let ck = sample();
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        store.register("layer.w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        store.register("layer.b", Tensor::zeros(&[2]));
        let fp = ck.fingerprint.clone();
        ck.validate(&fp, &store).unwrap();

        let mut other = fp.clone();
        other.seed = 8;
        assert!(ck.validate(&other, &store).is_err());

        let mut other = fp.clone();
        other.train_len = 5;
        assert!(ck.validate(&other, &store).is_err());

        let mut wrong_store = ParamStore::new();
        wrong_store.register("layer.w", Tensor::zeros(&[4, 3]));
        wrong_store.register("layer.b", Tensor::zeros(&[2]));
        assert!(ck.validate(&fp, &wrong_store).is_err());
    }
}

//! Whole-model persistence: configuration + parameters in one stream, so a
//! trained MSD-Mixer can be reloaded without reconstructing its
//! hyperparameters out of band.
//!
//! Format: a line-oriented `key=value` config header terminated by a blank
//! line, followed by the `msd-nn` binary checkpoint.

use crate::{MsdMixer, MsdMixerConfig};
use msd_nn::{store as nn_store, ParamStore, Task};
use msd_tensor::rng::Rng;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Serialises the model's configuration followed by all parameters.
pub fn save_model(model: &MsdMixer, store: &ParamStore, w: &mut impl Write) -> io::Result<()> {
    let cfg = model.config();
    writeln!(w, "format=msd-mixer-v1")?;
    writeln!(w, "in_channels={}", cfg.in_channels)?;
    writeln!(w, "input_len={}", cfg.input_len)?;
    writeln!(
        w,
        "patch_sizes={}",
        cfg.patch_sizes
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(";")
    )?;
    writeln!(w, "d_model={}", cfg.d_model)?;
    writeln!(w, "hidden_ratio={}", cfg.hidden_ratio)?;
    writeln!(w, "drop_path={}", cfg.drop_path)?;
    writeln!(w, "alpha={}", cfg.alpha)?;
    writeln!(w, "lambda={}", cfg.lambda)?;
    writeln!(w, "magnitude_only={}", cfg.magnitude_only)?;
    let task = match &cfg.task {
        Task::Forecast { horizon } => format!("forecast:{horizon}"),
        Task::Reconstruct => "reconstruct".to_string(),
        Task::Classify { classes } => format!("classify:{classes}"),
    };
    writeln!(w, "task={task}")?;
    writeln!(w)?;
    nn_store::save(store, w)
}

/// Reads a model saved by [`save_model`], rebuilding the architecture from
/// the header and loading the parameters.
pub fn load_model(r: &mut impl Read) -> io::Result<(MsdMixer, ParamStore)> {
    let mut reader = BufReader::new(r);
    let mut fields = std::collections::HashMap::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("unexpected end of header"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (k, v) = line.split_once('=').ok_or_else(|| bad("malformed header line"))?;
        fields.insert(k.to_string(), v.to_string());
    }
    if fields.get("format").map(String::as_str) != Some("msd-mixer-v1") {
        return Err(bad("unknown format"));
    }
    let get = |k: &str| -> io::Result<&String> {
        fields.get(k).ok_or_else(|| bad(&format!("missing field {k}")))
    };
    let parse_usize = |k: &str| -> io::Result<usize> {
        get(k)?.parse().map_err(|_| bad(&format!("bad {k}")))
    };
    let parse_f32 = |k: &str| -> io::Result<f32> {
        get(k)?.parse().map_err(|_| bad(&format!("bad {k}")))
    };
    let task_str = get("task")?;
    let task = if let Some(h) = task_str.strip_prefix("forecast:") {
        Task::Forecast {
            horizon: h.parse().map_err(|_| bad("bad horizon"))?,
        }
    } else if task_str == "reconstruct" {
        Task::Reconstruct
    } else if let Some(c) = task_str.strip_prefix("classify:") {
        Task::Classify {
            classes: c.parse().map_err(|_| bad("bad classes"))?,
        }
    } else {
        return Err(bad("unknown task"));
    };
    let cfg = MsdMixerConfig {
        in_channels: parse_usize("in_channels")?,
        input_len: parse_usize("input_len")?,
        patch_sizes: get("patch_sizes")?
            .split(';')
            .map(|p| p.parse().map_err(|_| bad("bad patch size")))
            .collect::<io::Result<Vec<usize>>>()?,
        d_model: parse_usize("d_model")?,
        hidden_ratio: parse_usize("hidden_ratio")?,
        drop_path: parse_f32("drop_path")?,
        alpha: parse_f32("alpha")?,
        lambda: parse_f32("lambda")?,
        magnitude_only: get("magnitude_only")? == "true",
        task,
    };
    // Rebuild the architecture (registration order is deterministic), then
    // overwrite the fresh weights with the checkpoint.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(0);
    let model = MsdMixer::new(&mut store, &mut rng, &cfg);
    // `nn_store::load` sniffs the stream magic, so both new files (the
    // header followed by an MSDCKPT2 container) and files written before
    // the unified API (header + raw MSDCKPT1 stream) load here.
    nn_store::load(&mut store, &mut reader)?;
    Ok((model, store))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("load_model: {msg}"))
}

/// Saves the model to `path` crash-safely: the [`save_model`] stream is
/// wrapped in a CRC-protected `MSDCKPT2` container and installed
/// atomically (tmp sibling + fsync + rename), so a crash mid-save can
/// never leave a torn or half-written model file behind.
pub fn save_model_file(
    model: &MsdMixer,
    store: &ParamStore,
    path: impl AsRef<std::path::Path>,
) -> io::Result<()> {
    let mut payload = Vec::new();
    save_model(model, store, &mut payload)?;
    let bytes = msd_nn::checkpoint::encode_container(&[("model", payload)]);
    msd_nn::checkpoint::write_atomic(path.as_ref(), &bytes)
}

/// Loads a model written by [`save_model_file`], verifying the container
/// CRCs before any of the payload is parsed. Torn or bit-flipped files are
/// rejected as [`io::ErrorKind::InvalidData`]; nothing panics.
pub fn load_model_file(path: impl AsRef<std::path::Path>) -> io::Result<(MsdMixer, ParamStore)> {
    let bytes = std::fs::read(path.as_ref())?;
    let sections = msd_nn::checkpoint::decode_container(&bytes)?;
    let payload = sections
        .iter()
        .find(|(name, _)| name == "model")
        .map(|(_, payload)| payload)
        .ok_or_else(|| bad("container has no 'model' section"))?;
    load_model(&mut payload.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_tensor::Tensor;

    fn trained_fixture() -> (MsdMixer, ParamStore, Tensor) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(61);
        let cfg = MsdMixerConfig {
            in_channels: 2,
            input_len: 16,
            patch_sizes: vec![4, 1],
            d_model: 4,
            hidden_ratio: 1,
            drop_path: 0.0,
            task: Task::Forecast { horizon: 4 },
            ..MsdMixerConfig::default()
        };
        let model = MsdMixer::new(&mut store, &mut rng, &cfg);
        // Nudge weights so they differ from a fresh init.
        for i in 0..store.len() {
            store.get_mut(i).data_mut().iter_mut().for_each(|v| *v += 0.01);
        }
        let x = Tensor::randn(&[1, 2, 16], 1.0, &mut rng);
        (model, store, x)
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let (model, store, x) = trained_fixture();
        let before = model.predict(&store, &x);
        let mut buf = Vec::new();
        save_model(&model, &store, &mut buf).unwrap();
        let (restored_model, restored_store) = load_model(&mut buf.as_slice()).unwrap();
        let after = restored_model.predict(&restored_store, &x);
        assert!(msd_tensor::allclose(&before, &after, 1e-6));
        assert_eq!(restored_model.config().patch_sizes, vec![4, 1]);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(load_model(&mut &b"not a model"[..]).is_err());
        assert!(load_model(&mut &b"format=other\n\n"[..]).is_err());
    }

    #[test]
    fn file_round_trip_is_atomic_and_crc_verified() {
        let (model, store, x) = trained_fixture();
        let path =
            std::env::temp_dir().join(format!("msd_mixer_persist_file_{}.msd", std::process::id()));
        let _ = std::fs::remove_file(&path);
        save_model_file(&model, &store, &path).unwrap();
        // No tmp droppings from the atomic write.
        let parent = path.parent().unwrap();
        let leftovers = std::fs::read_dir(parent)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy()
                    .starts_with(".msd_mixer_persist_file.msd.tmp")
            })
            .count();
        assert_eq!(leftovers, 0, "atomic save left tmp files behind");

        let (restored_model, restored_store) = load_model_file(&path).unwrap();
        let before = model.predict(&store, &x);
        let after = restored_model.predict(&restored_store, &x);
        assert_eq!(before.data(), after.data(), "file round trip not bit-exact");

        // Any torn or flipped byte is caught by the container CRC.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(load_model_file(&path).is_err(), "truncation accepted");
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(load_model_file(&path).is_err(), "bit flip accepted");
        let _ = std::fs::remove_file(&path);
    }

    /// The parameter stream exactly as the pre-unification
    /// the original raw-`MSDCKPT1` serializer wrote it (no container).
    fn legacy_ckpt1_stream(store: &ParamStore) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(b"MSDCKPT1");
        w.extend_from_slice(&(store.len() as u32).to_le_bytes());
        for (_, name, value) in store.iter() {
            w.extend_from_slice(&(name.len() as u32).to_le_bytes());
            w.extend_from_slice(name.as_bytes());
            w.extend_from_slice(&(value.ndim() as u32).to_le_bytes());
            for &d in value.shape() {
                w.extend_from_slice(&(d as u32).to_le_bytes());
            }
            for &x in value.data() {
                w.extend_from_slice(&x.to_le_bytes());
            }
        }
        w
    }

    #[test]
    fn files_written_before_unified_api_still_load() {
        // Old save_model wrote header + raw MSDCKPT1; reconstruct exactly
        // that byte layout and prove the migrated loader still reads it.
        let (model, store, x) = trained_fixture();
        let mut new_buf = Vec::new();
        save_model(&model, &store, &mut new_buf).unwrap();
        let at = new_buf
            .windows(8)
            .position(|w| w == b"MSDCKPT2")
            .expect("new format embeds a container");
        let mut old_buf = new_buf[..at].to_vec();
        old_buf.extend_from_slice(&legacy_ckpt1_stream(&store));

        let (restored_model, restored_store) = load_model(&mut old_buf.as_slice()).unwrap();
        let before = model.predict(&store, &x);
        let after = restored_model.predict(&restored_store, &x);
        assert_eq!(before.data(), after.data(), "legacy load not bit-exact");
    }

    #[test]
    fn all_task_kinds_round_trip() {
        for task in [
            Task::Forecast { horizon: 3 },
            Task::Reconstruct,
            Task::Classify { classes: 4 },
        ] {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from(62);
            let cfg = MsdMixerConfig {
                in_channels: 2,
                input_len: 12,
                patch_sizes: vec![3, 1],
                d_model: 4,
                hidden_ratio: 1,
                drop_path: 0.0,
                task: task.clone(),
                ..MsdMixerConfig::default()
            };
            let model = MsdMixer::new(&mut store, &mut rng, &cfg);
            let mut buf = Vec::new();
            save_model(&model, &store, &mut buf).unwrap();
            let (restored, _) = load_model(&mut buf.as_slice()).unwrap();
            assert_eq!(restored.config().task, task);
        }
    }
}

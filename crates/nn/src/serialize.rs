//! Legacy checkpoint serialisation: the raw `MSDCKPT1` parameter stream.
//!
//! Superseded twice over: first by [`crate::store`] (the `MSDCKPT2`
//! container), now by the precision-aware [`crate::artifact`] API, whose f32
//! tier still embeds exactly this stream as its payload section — and whose
//! reader still loads every legacy raw file ever written. The deprecated
//! `save`/`load` shims that used to live here are gone; use
//! [`crate::artifact::ArtifactWriter`] / [`crate::artifact::ArtifactReader`]
//! (or the thin `msd_nn::store` wrappers).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  "MSDCKPT1" (8 bytes)
//! count  u32
//! repeat count times:
//!   name_len u32, name bytes (utf-8)
//!   rank u32, dims u32 × rank
//!   data f32 × numel
//! ```

use crate::ParamStore;
use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 8] = b"MSDCKPT1";

/// Writes the raw `MSDCKPT1` stream (no container). Internal: the f32-tier
/// payload section written by [`crate::artifact`] is exactly this stream.
pub(crate) fn save_raw(store: &ParamStore, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(store.len() as u32).to_le_bytes())?;
    for (_, name, value) in store.iter() {
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        w.write_all(&(value.ndim() as u32).to_le_bytes())?;
        for &d in value.shape() {
            w.write_all(&(d as u32).to_le_bytes())?;
        }
        for &x in value.data() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a checkpoint and loads it into `store`, matching parameters by
/// registration order and validating names and shapes.
///
/// The store itself is the allocation bound: every header field
/// (`count`, `name_len`, `rank`, `dims`) is validated against what the
/// store registered *before* any buffer is sized from it, so a corrupt
/// header errors cleanly instead of attempting a multi-gigabyte `Vec`.
/// All tensors are staged and validated first and committed to the store
/// all-or-nothing — a mid-stream error leaves the store untouched.
pub(crate) fn load_raw(store: &mut ParamStore, r: &mut impl Read) -> io::Result<()> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad checkpoint magic".into()));
    }
    let count = read_u32(r)? as usize;
    if count != store.len() {
        return Err(bad(format!(
            "checkpoint has {count} params, store has {}",
            store.len()
        )));
    }
    let mut values = Vec::with_capacity(count);
    for idx in 0..count {
        let expected_name = store.name(idx);
        let name_len = read_u32(r)? as usize;
        if name_len != expected_name.len() {
            return Err(bad(format!(
                "param {idx} name length {name_len} does not match store name '{expected_name}'"
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|e| bad(e.to_string()))?;
        if name != expected_name {
            return Err(bad(format!(
                "param {idx} name mismatch: checkpoint '{name}' vs store '{expected_name}'"
            )));
        }
        let expected_shape = store.get(idx).shape();
        let rank = read_u32(r)? as usize;
        if rank != expected_shape.len() {
            return Err(bad(format!(
                "param '{name}' rank {rank} does not match store shape {expected_shape:?}"
            )));
        }
        let mut shape = Vec::with_capacity(rank);
        for (axis, &expected_dim) in expected_shape.iter().enumerate() {
            let d = read_u32(r)? as usize;
            if d != expected_dim {
                return Err(bad(format!(
                    "param '{name}' dim {axis} is {d}, store expects {expected_dim}"
                )));
            }
            shape.push(d);
        }
        // Shape equals the store's, so this allocation is bounded by memory
        // the process already holds.
        let numel: usize = shape.iter().product();
        let mut data = vec![0.0f32; numel];
        let mut buf = [0u8; 4];
        for d in data.iter_mut() {
            r.read_exact(&mut buf)?;
            *d = f32::from_le_bytes(buf);
        }
        values.push(msd_tensor::Tensor::from_vec(&shape, data));
    }
    // Commit point: everything above validated, so this cannot panic and
    // the store transitions atomically from old weights to new.
    store.load_values(&values);
    Ok(())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_tensor::rng::Rng;
    use msd_tensor::Tensor;

    fn sample_store() -> ParamStore {
        let mut rng = Rng::seed_from(3);
        let mut store = ParamStore::new();
        store.register("layer.w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        store.register("layer.b", Tensor::randn(&[4], 1.0, &mut rng));
        store
    }

    #[test]
    fn save_load_round_trip() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_raw(&store, &mut buf).unwrap();
        let mut restored = sample_store();
        // Perturb, then restore.
        restored.get_mut(0).data_mut()[0] = 1234.0;
        load_raw(&mut restored, &mut buf.as_slice()).unwrap();
        assert_eq!(restored.get(0), store.get(0));
        assert_eq!(restored.get(1), store.get(1));
    }

    #[test]
    fn load_rejects_wrong_magic() {
        let mut store = sample_store();
        let err = load_raw(&mut store, &mut &b"NOTACKPT........"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_name_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_raw(&store, &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.register("different.w", Tensor::zeros(&[3, 4]));
        other.register("layer.b", Tensor::zeros(&[4]));
        assert!(load_raw(&mut other, &mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_header_errors_before_allocating() {
        // A header claiming a ~4-billion-element first dimension must be
        // rejected against the store's registered shape, not allocated.
        let store = sample_store();
        let mut buf = Vec::new();
        save_raw(&store, &mut buf).unwrap();
        // Locate the rank field of param 0: magic(8) + count(4) +
        // name_len(4) + name("layer.w" = 7) → rank at 23, dims follow.
        let dims_at = 8 + 4 + 4 + 7 + 4;
        buf[dims_at..dims_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut restored = sample_store();
        let err = load_raw(&mut restored, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("dim"), "{err}");
    }

    #[test]
    fn huge_name_len_errors_before_allocating() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_raw(&store, &mut buf).unwrap();
        // name_len field of param 0 is at offset 12.
        buf[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut restored = sample_store();
        let err = load_raw(&mut restored, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("name length"), "{err}");
    }

    #[test]
    fn failed_mid_stream_load_leaves_store_untouched() {
        // A checkpoint whose *second* tensor is corrupt must not commit the
        // valid first tensor: staging is all-or-nothing.
        let store = sample_store();
        let mut buf = Vec::new();
        save_raw(&store, &mut buf).unwrap();

        // Corrupt the second param's name ("layer.b" → "layer.X").
        let needle = b"layer.b";
        let at = buf.windows(needle.len()).position(|w| w == needle).unwrap();
        buf[at + 6] = b'X';

        let mut restored = ParamStore::new();
        let mut rng = Rng::seed_from(99);
        restored.register("layer.w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        restored.register("layer.b", Tensor::randn(&[4], 1.0, &mut rng));
        let before: Vec<Vec<u32>> = restored
            .iter()
            .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
            .collect();
        assert!(load_raw(&mut restored, &mut buf.as_slice()).is_err());
        let after: Vec<Vec<u32>> = restored
            .iter()
            .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(before, after, "failed load mutated the store");

        // Truncation mid-second-tensor must behave the same.
        let mut short = Vec::new();
        save_raw(&store, &mut short).unwrap();
        short.truncate(short.len() - 3);
        assert!(load_raw(&mut restored, &mut short.as_slice()).is_err());
        let after: Vec<Vec<u32>> = restored
            .iter()
            .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(before, after, "truncated load mutated the store");
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_raw(&store, &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.register("layer.w", Tensor::zeros(&[4, 3])); // transposed
        other.register("layer.b", Tensor::zeros(&[4]));
        let err = load_raw(&mut other, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_count_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_raw(&store, &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.register("layer.w", Tensor::zeros(&[3, 4]));
        assert!(load_raw(&mut other, &mut buf.as_slice()).is_err());
    }
}

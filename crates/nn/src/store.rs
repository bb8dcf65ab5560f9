//! Thin forwarding wrappers over [`crate::artifact`], the typed
//! precision-aware artifact API.
//!
//! Historically weights could be saved three ways: the raw `MSDCKPT1` stream
//! ([`crate::serialize`]), the CRC-protected `MSDCKPT2` container, and
//! `msd_mixer::persist`'s header-plus-stream format. Those were collapsed
//! into this module, which has itself now been superseded by
//! [`ArtifactWriter`](crate::artifact::ArtifactWriter) /
//! [`ArtifactReader`](crate::artifact::ArtifactReader): artifacts carry a
//! format version, a [`PrecisionTier`](crate::artifact::PrecisionTier), and
//! an architecture fingerprint, and may store weights at f32, f16, or int8.
//!
//! The functions here remain for one release as *thin wrappers*: [`save`] /
//! [`encode`] write an f32-tier artifact, and [`load`] / [`decode`] accept
//! any tier and every legacy format ever written (raw `MSDCKPT1` streams and
//! pre-v3 containers included) — loading a reduced-precision artifact
//! through [`decode`] installs its tier on the store exactly as the typed
//! reader does. New code should use `msd_nn::artifact` directly.

use crate::artifact::{ArtifactReader, ArtifactWriter, PrecisionTier};
use crate::ParamStore;
use std::io::{self, Read, Write};
use std::path::Path;

/// Section name holding the f32 parameter stream inside the container.
/// Re-exported from [`crate::artifact::PARAMS_SECTION`].
pub const PARAMS_SECTION: &str = crate::artifact::PARAMS_SECTION;

/// Writes every parameter of `store` to `w` as an f32-tier artifact
/// (`MSDCKPT2` container, CRC-protected per section and whole-body).
///
/// Thin wrapper over [`ArtifactWriter::save`] at [`PrecisionTier::F32`].
pub fn save(store: &ParamStore, w: &mut impl Write) -> io::Result<()> {
    ArtifactWriter::new(PrecisionTier::F32).save(store, w)
}

/// Encodes the store to f32-tier artifact bytes (the in-memory form of
/// [`save`]).
pub fn encode(store: &ParamStore) -> Vec<u8> {
    ArtifactWriter::new(PrecisionTier::F32)
        .encode(store)
        .expect("f32-tier encode cannot fail")
}

/// Reads parameters from `r` into `store`, accepting every format the repo
/// has ever written: v3 artifacts at any tier, pre-v3 containers, and
/// legacy raw `MSDCKPT1` streams.
///
/// Thin wrapper over [`ArtifactReader::read`] + `load_into`; validation
/// (CRCs, fingerprint, counts, names, shapes — all before allocation) and
/// the all-or-nothing commit are the reader's.
pub fn load(store: &mut ParamStore, r: &mut impl Read) -> io::Result<()> {
    ArtifactReader::read(r)?.load_into(store)
}

/// Decodes artifact-or-legacy bytes into `store` (the in-memory form of
/// [`load`]).
pub fn decode(store: &mut ParamStore, bytes: &[u8]) -> io::Result<()> {
    ArtifactReader::decode(bytes)?.load_into(store)
}

/// Saves the store to `path` crash-safely: artifact bytes installed via
/// atomic tmp sibling + fsync + rename, so a crash mid-save can never leave
/// a torn file behind.
pub fn save_file(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    ArtifactWriter::new(PrecisionTier::F32).save_file(store, path)
}

/// Loads parameters from `path` (any artifact tier or legacy format),
/// verifying container CRCs before any payload is parsed.
pub fn load_file(store: &mut ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    ArtifactReader::load_file(path)?.load_into(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use msd_tensor::rng::Rng;
    use msd_tensor::Tensor;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        store.register("layer.w", Tensor::randn(&[3, 4], 1.0, &mut rng));
        store.register("layer.b", Tensor::randn(&[4], 1.0, &mut rng));
        store
    }

    fn bits(store: &ParamStore) -> Vec<Vec<u32>> {
        store
            .iter()
            .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let store = sample_store(1);
        let mut buf = Vec::new();
        save(&store, &mut buf).unwrap();
        assert!(buf.starts_with(checkpoint::MAGIC), "save must write MSDCKPT2");
        let mut restored = sample_store(2);
        load(&mut restored, &mut buf.as_slice()).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        assert_eq!(restored.tier(), PrecisionTier::F32);
    }

    #[test]
    fn legacy_msdckpt1_files_still_load() {
        // A raw stream written by the *original* API loads through the
        // wrappers (and the typed reader) bit-exactly.
        let store = sample_store(3);
        let mut legacy = Vec::new();
        crate::serialize::save_raw(&store, &mut legacy).unwrap();
        assert!(legacy.starts_with(b"MSDCKPT1"));
        let mut restored = sample_store(4);
        load(&mut restored, &mut legacy.as_slice()).unwrap();
        assert_eq!(bits(&store), bits(&restored));
    }

    #[test]
    fn pre_redesign_container_files_still_load() {
        // What `store::encode` wrote before the artifact redesign: a
        // container holding a single bare "params" section, no "meta".
        // Migration guarantee: these files load bit-exactly as f32.
        let store = sample_store(5);
        let mut payload = Vec::new();
        crate::serialize::save_raw(&store, &mut payload).unwrap();
        let old_bytes = checkpoint::encode_container(&[(PARAMS_SECTION, payload)]);

        let mut restored = sample_store(6);
        decode(&mut restored, &old_bytes).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        assert_eq!(restored.tier(), PrecisionTier::F32);

        // The typed reader reports it as the pre-v3 format.
        let reader = ArtifactReader::decode(&old_bytes).unwrap();
        assert_eq!(reader.format_version(), 2);
        assert_eq!(reader.tier(), PrecisionTier::F32);
        assert_eq!(reader.arch_fingerprint(), None);
    }

    #[test]
    fn decode_accepts_reduced_precision_artifacts() {
        // The wrapper is tier-transparent on the read side: an int8-tier
        // artifact loads through plain `decode` and installs its tier.
        let store = sample_store(7);
        let bytes = ArtifactWriter::new(PrecisionTier::Int8).encode(&store).unwrap();
        let mut restored = sample_store(8);
        decode(&mut restored, &bytes).unwrap();
        assert_eq!(restored.tier(), PrecisionTier::Int8);
        assert!(restored.quant(0).is_some());

        // And loading an f32 artifact afterwards resets the tier.
        decode(&mut restored, &encode(&store)).unwrap();
        assert_eq!(restored.tier(), PrecisionTier::F32);
        assert!(restored.quant(0).is_none());
    }

    #[test]
    fn container_corruption_is_detected() {
        let store = sample_store(8);
        let mut buf = Vec::new();
        save(&store, &mut buf).unwrap();
        // Any flipped payload bit trips a CRC before parsing.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        let mut restored = sample_store(9);
        let before = bits(&restored);
        let err = load(&mut restored, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(before, bits(&restored), "failed load mutated the store");
    }

    #[test]
    fn file_round_trip_and_legacy_file_load() {
        let dir = std::env::temp_dir();
        let store = sample_store(10);

        let new_path = dir.join(format!("msd_store_new_{}.ckpt", std::process::id()));
        save_file(&store, &new_path).unwrap();
        let mut restored = sample_store(11);
        load_file(&mut restored, &new_path).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        let _ = std::fs::remove_file(&new_path);

        // A legacy raw-stream *file* loads through load_file too.
        let old_path = dir.join(format!("msd_store_legacy_{}.ckpt", std::process::id()));
        let mut legacy = Vec::new();
        crate::serialize::save_raw(&store, &mut legacy).unwrap();
        std::fs::write(&old_path, &legacy).unwrap();
        let mut restored = sample_store(12);
        load_file(&mut restored, &old_path).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        let _ = std::fs::remove_file(&old_path);
    }

    #[test]
    fn garbage_is_invalid_data_not_a_panic() {
        let mut store = sample_store(13);
        let err = load(&mut store, &mut &b"definitely not a checkpoint"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

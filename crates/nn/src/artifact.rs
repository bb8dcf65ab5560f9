//! Precision-aware model artifacts: the typed read/write API over the
//! `MSDCKPT2` container (format v3).
//!
//! An *artifact* is a saved set of model parameters plus the metadata needed
//! to serve it correctly: the artifact **format version**, the
//! [`PrecisionTier`] its weights are stored at, an **architecture
//! fingerprint** (CRC32 over parameter names and shapes), and the parameter
//! payload itself. [`ArtifactWriter`] encodes, [`ArtifactReader`] decodes and
//! loads — all-or-nothing, with every header field validated against the
//! destination [`ParamStore`] before any allocation is sized from it.
//!
//! ## Format v3 layout
//!
//! A v3 artifact is an `MSDCKPT2` container ([`crate::checkpoint`], CRC32 per
//! section and whole-body) with a [`META_SECTION`] plus exactly one payload
//! section chosen by tier:
//!
//! ```text
//! "meta"        format_version u32 (= 3)
//!               tier            str ("f32" | "f16" | "int8")
//!               fingerprint     u32 (crc32 over names + shapes)
//!               param_count     u32
//! "params"      f32 tier:  the raw MSDCKPT1 stream (crate::serialize)
//! "params_f16"  f16 tier:  per param: name str, rank u32, dims u32 × rank,
//!                          bytes (u16 f16 bits × numel, little-endian)
//! "params_i8"   int8 tier: per param: name str, rank u32, dims u32 × rank,
//!                          bytes (f32 scales × channels),
//!                          bytes (i8 codes × numel)
//! ```
//!
//! ("str" and "bytes" are the `u32`-length-prefixed encodings of
//! [`checkpoint::ByteWriter`].)
//!
//! ## Migration
//!
//! Every pre-v3 file keeps loading through [`ArtifactReader`]:
//!
//! * a raw `MSDCKPT1` stream (the original format) → f32 tier, version 1;
//! * an `MSDCKPT2` container with a bare `"params"` section and no `"meta"`
//!   (what `store::save` wrote before v3) → f32 tier, version 2.
//!
//! Reduced-precision artifacts always dequantize into f32 values on load; an
//! int8 artifact additionally installs its [`QuantTensor`]s on the store so
//! compiled plans can lower matmuls onto the int8 kernels. Non-finite
//! weights are a *typed save-time error* for reduced tiers: NaN is rejected
//! by both, infinity by int8 (f16 represents it exactly).

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use msd_tensor::ops::kernels::quant::{decode_f16, encode_f16};
use msd_tensor::{QuantTensor, Tensor};

use crate::checkpoint::{self, corrupt, ByteReader, ByteWriter};
use crate::{serialize, ParamStore};

/// Section holding artifact metadata (format version, tier, fingerprint).
pub const META_SECTION: &str = "meta";
/// Section holding the raw f32 `MSDCKPT1` parameter stream.
pub const PARAMS_SECTION: &str = "params";
/// Section holding the f16-encoded parameter stream.
pub const PARAMS_F16_SECTION: &str = "params_f16";
/// Section holding the int8-plus-scales parameter stream.
pub const PARAMS_I8_SECTION: &str = "params_i8";

/// The artifact format version this crate writes.
pub const FORMAT_VERSION: u32 = 3;

/// The numeric precision an artifact stores its parameters at.
///
/// Values in a loaded [`ParamStore`] are always f32 — reduced tiers
/// dequantize on load — so the tier describes *storage* (and, for
/// [`Int8`](PrecisionTier::Int8), which compute kernels compiled plans may
/// lower onto), not the dtype callers see.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PrecisionTier {
    /// Full-precision storage: the raw f32 stream, bit-exact round trip.
    #[default]
    F32,
    /// IEEE binary16 storage (~2× smaller); dequantized to f32 on load and
    /// served through the f32 kernel path.
    F16,
    /// Symmetric int8 storage with per-channel scales (~4× smaller);
    /// dequantized to f32 on load, and additionally kept in quantized form
    /// so plans can run matmuls on the int8 kernels.
    Int8,
}

impl PrecisionTier {
    /// Every tier, in ascending precision-loss order.
    pub const ALL: [PrecisionTier; 3] =
        [PrecisionTier::F32, PrecisionTier::F16, PrecisionTier::Int8];

    /// The canonical lowercase name (`"f32"`, `"f16"`, `"int8"`), as used in
    /// artifact metadata and the gateway API.
    pub fn as_str(self) -> &'static str {
        match self {
            PrecisionTier::F32 => "f32",
            PrecisionTier::F16 => "f16",
            PrecisionTier::Int8 => "int8",
        }
    }

    /// Parses a canonical tier name; `None` for anything else.
    pub fn parse(s: &str) -> Option<PrecisionTier> {
        match s {
            "f32" => Some(PrecisionTier::F32),
            "f16" => Some(PrecisionTier::F16),
            "int8" => Some(PrecisionTier::Int8),
            _ => None,
        }
    }
}

impl fmt::Display for PrecisionTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// CRC32 over the store's architecture: parameter count, then every
/// parameter's name, rank, and dims in registration order. Identical
/// architectures fingerprint identically regardless of weight values, so a
/// reader can reject an artifact built for a different model before touching
/// the payload.
pub fn arch_fingerprint(store: &ParamStore) -> u32 {
    let mut w = ByteWriter::new();
    w.put_u32(store.len() as u32);
    for (_, name, value) in store.iter() {
        w.put_str(name);
        w.put_u32(value.ndim() as u32);
        for &d in value.shape() {
            w.put_u32(d as u32);
        }
    }
    checkpoint::crc32(&w.into_bytes())
}

/// Encodes a [`ParamStore`] as a format-v3 artifact at a chosen
/// [`PrecisionTier`].
#[derive(Clone, Copy, Debug)]
pub struct ArtifactWriter {
    tier: PrecisionTier,
}

impl ArtifactWriter {
    /// A writer for the given tier.
    pub fn new(tier: PrecisionTier) -> Self {
        Self { tier }
    }

    /// The tier this writer encodes at.
    pub fn tier(&self) -> PrecisionTier {
        self.tier
    }

    /// Encodes `store` to artifact bytes.
    ///
    /// For reduced-precision tiers, non-finite weights are a typed
    /// save-time error ([`io::ErrorKind::InvalidData`] naming the offending
    /// parameter and element): NaN for f16 and int8, infinity for int8.
    pub fn encode(&self, store: &ParamStore) -> io::Result<Vec<u8>> {
        let mut meta = ByteWriter::new();
        meta.put_u32(FORMAT_VERSION);
        meta.put_str(self.tier.as_str());
        meta.put_u32(arch_fingerprint(store));
        meta.put_u32(store.len() as u32);

        let (section, payload) = match self.tier {
            PrecisionTier::F32 => {
                let mut buf = Vec::new();
                serialize::save_raw(store, &mut buf)?;
                (PARAMS_SECTION, buf)
            }
            PrecisionTier::F16 => (PARAMS_F16_SECTION, encode_params_f16(store)?),
            PrecisionTier::Int8 => (PARAMS_I8_SECTION, encode_params_i8(store)?),
        };
        Ok(checkpoint::encode_container(&[
            (META_SECTION, meta.into_bytes()),
            (section, payload),
        ]))
    }

    /// Writes the encoded artifact to `w`.
    pub fn save(&self, store: &ParamStore, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode(store)?)
    }

    /// Saves to `path` crash-safely (atomic tmp sibling + fsync + rename).
    pub fn save_file(&self, store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
        checkpoint::write_atomic(path.as_ref(), &self.encode(store)?)
    }
}

fn quant_err(name: &str, e: msd_tensor::QuantError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("param '{name}': {e}"))
}

fn put_param_header(w: &mut ByteWriter, name: &str, shape: &[usize]) {
    w.put_str(name);
    w.put_u32(shape.len() as u32);
    for &d in shape {
        w.put_u32(d as u32);
    }
}

fn encode_params_f16(store: &ParamStore) -> io::Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    for (_, name, value) in store.iter() {
        put_param_header(&mut w, name, value.shape());
        let bits = encode_f16(value.data()).map_err(|e| quant_err(name, e))?;
        let mut blob = Vec::with_capacity(bits.len() * 2);
        for h in bits {
            blob.extend_from_slice(&h.to_le_bytes());
        }
        w.put_bytes(&blob);
    }
    Ok(w.into_bytes())
}

fn encode_params_i8(store: &ParamStore) -> io::Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    for (_, name, value) in store.iter() {
        put_param_header(&mut w, name, value.shape());
        let q =
            QuantTensor::quantize(value.data(), value.shape()).map_err(|e| quant_err(name, e))?;
        let mut scales = Vec::with_capacity(q.scales.len() * 4);
        for &s in &q.scales {
            scales.extend_from_slice(&s.to_le_bytes());
        }
        w.put_bytes(&scales);
        let codes: Vec<u8> = q.data.iter().map(|&b| b as u8).collect();
        w.put_bytes(&codes);
    }
    Ok(w.into_bytes())
}

/// A decoded artifact: metadata parsed and payload located, ready to load
/// into a matching [`ParamStore`].
///
/// Decoding validates container CRCs and the `"meta"` section only; the
/// parameter payload is validated against the destination store inside
/// [`load_into`](ArtifactReader::load_into), which is where names, shapes,
/// and the fingerprint are checked — all before any payload-sized
/// allocation, and committed all-or-nothing.
#[derive(Debug)]
pub struct ArtifactReader {
    tier: PrecisionTier,
    format_version: u32,
    fingerprint: Option<u32>,
    param_count: Option<usize>,
    payload: Vec<u8>,
}

impl ArtifactReader {
    /// Decodes artifact bytes in any format the repo has ever written (see
    /// the module docs for the migration matrix).
    pub fn decode(bytes: &[u8]) -> io::Result<ArtifactReader> {
        if bytes.starts_with(serialize::MAGIC) {
            // Original raw MSDCKPT1 stream: f32, no metadata to check.
            return Ok(ArtifactReader {
                tier: PrecisionTier::F32,
                format_version: 1,
                fingerprint: None,
                param_count: None,
                payload: bytes.to_vec(),
            });
        }
        let sections = checkpoint::decode_container(bytes)?;
        let find = |name: &str| sections.iter().find(|(n, _)| n == name).map(|(_, b)| b);
        let Some(meta) = find(META_SECTION) else {
            // Pre-v3 container: a bare params section (or, for files from
            // even older tools, a single section under another name).
            let payload = find(PARAMS_SECTION)
                .or_else(|| (sections.len() == 1).then(|| &sections[0].1))
                .ok_or_else(|| corrupt(format!("container has no '{PARAMS_SECTION}' section")))?;
            return Ok(ArtifactReader {
                tier: PrecisionTier::F32,
                format_version: 2,
                fingerprint: None,
                param_count: None,
                payload: payload.clone(),
            });
        };

        let mut r = ByteReader::new(meta);
        let format_version = r.get_u32("format version")?;
        if format_version > FORMAT_VERSION {
            return Err(corrupt(format!(
                "artifact format v{format_version} is newer than supported v{FORMAT_VERSION}"
            )));
        }
        let tier_str = r.get_str("precision tier")?;
        let tier = PrecisionTier::parse(&tier_str).ok_or_else(|| {
            corrupt(format!(
                "unknown precision tier '{tier_str}' (expected f32, f16, or int8)"
            ))
        })?;
        let fingerprint = r.get_u32("arch fingerprint")?;
        let param_count = r.get_u32("param count")? as usize;

        let section = match tier {
            PrecisionTier::F32 => PARAMS_SECTION,
            PrecisionTier::F16 => PARAMS_F16_SECTION,
            PrecisionTier::Int8 => PARAMS_I8_SECTION,
        };
        let payload = find(section)
            .ok_or_else(|| {
                corrupt(format!(
                    "{tier} artifact is missing its '{section}' section"
                ))
            })?
            .clone();
        Ok(ArtifactReader {
            tier,
            format_version,
            fingerprint: Some(fingerprint),
            param_count: Some(param_count),
            payload,
        })
    }

    /// Reads `r` to the end and decodes.
    pub fn read(r: &mut impl Read) -> io::Result<ArtifactReader> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// Reads and decodes a file.
    pub fn load_file(path: impl AsRef<Path>) -> io::Result<ArtifactReader> {
        Self::decode(&std::fs::read(path.as_ref())?)
    }

    /// The precision tier the artifact's parameters are stored at.
    pub fn tier(&self) -> PrecisionTier {
        self.tier
    }

    /// The artifact's format version (1 and 2 are legacy f32 formats).
    pub fn format_version(&self) -> u32 {
        self.format_version
    }

    /// The architecture fingerprint carried in the metadata, when present
    /// (v3 artifacts only).
    pub fn arch_fingerprint(&self) -> Option<u32> {
        self.fingerprint
    }

    /// Loads the artifact into `store`, matching parameters by registration
    /// order and validating the fingerprint, count, names, and shapes
    /// against the store before any payload-sized allocation. The store is
    /// committed all-or-nothing: a failed load leaves it untouched.
    ///
    /// On success the store's [`tier`](ParamStore::tier) reflects the
    /// artifact; an int8 artifact additionally installs its quantized
    /// weights for plan lowering.
    pub fn load_into(&self, store: &mut ParamStore) -> io::Result<()> {
        if let Some(fp) = self.fingerprint {
            let have = arch_fingerprint(store);
            if fp != have {
                return Err(corrupt(format!(
                    "architecture fingerprint mismatch: artifact {fp:#010x}, store {have:#010x}"
                )));
            }
        }
        if let Some(n) = self.param_count {
            if n != store.len() {
                return Err(corrupt(format!(
                    "artifact has {n} params, store has {}",
                    store.len()
                )));
            }
        }
        match self.tier {
            PrecisionTier::F32 => {
                serialize::load_raw(store, &mut self.payload.as_slice())?;
                store.reset_tier();
            }
            PrecisionTier::F16 => {
                let values = decode_params_f16(&self.payload, store)?;
                store.load_values(&values);
                store.install_tier(
                    PrecisionTier::F16,
                    (0..values.len()).map(|_| None).collect(),
                );
            }
            PrecisionTier::Int8 => {
                let (values, quants) = decode_params_i8(&self.payload, store)?;
                store.load_values(&values);
                store.install_tier(PrecisionTier::Int8, quants);
            }
        }
        Ok(())
    }
}

/// Reads one per-param header and validates every field against what the
/// store registered for `idx` — the store is the allocation bound, exactly
/// as in [`crate::serialize`]'s raw codec.
fn read_param_header(
    r: &mut ByteReader,
    store: &ParamStore,
    idx: usize,
) -> io::Result<(String, Vec<usize>)> {
    let name = r.get_str("param name")?;
    let expected_name = store.name(idx);
    if name != expected_name {
        return Err(corrupt(format!(
            "param {idx} name mismatch: artifact '{name}' vs store '{expected_name}'"
        )));
    }
    let expected_shape = store.get(idx).shape();
    let rank = r.get_u32("param rank")? as usize;
    if rank != expected_shape.len() {
        return Err(corrupt(format!(
            "param '{name}' rank {rank} does not match store shape {expected_shape:?}"
        )));
    }
    let mut shape = Vec::with_capacity(rank);
    for (axis, &expected_dim) in expected_shape.iter().enumerate() {
        let d = r.get_u32("param dim")? as usize;
        if d != expected_dim {
            return Err(corrupt(format!(
                "param '{name}' dim {axis} is {d}, store expects {expected_dim}"
            )));
        }
        shape.push(d);
    }
    Ok((name, shape))
}

fn decode_params_f16(payload: &[u8], store: &ParamStore) -> io::Result<Vec<Tensor>> {
    let mut r = ByteReader::new(payload);
    let mut values = Vec::with_capacity(store.len());
    for idx in 0..store.len() {
        let (name, shape) = read_param_header(&mut r, store, idx)?;
        let numel: usize = shape.iter().product();
        let blob = r.get_bytes("f16 data")?;
        if blob.len() != numel * 2 {
            return Err(corrupt(format!(
                "param '{name}' f16 payload is {} bytes, expected {}",
                blob.len(),
                numel * 2
            )));
        }
        let bits: Vec<u16> = blob
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        values.push(Tensor::from_vec(&shape, decode_f16(&bits)));
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after the last f16 param"));
    }
    Ok(values)
}

#[allow(clippy::type_complexity)]
fn decode_params_i8(
    payload: &[u8],
    store: &ParamStore,
) -> io::Result<(Vec<Tensor>, Vec<Option<QuantTensor>>)> {
    let mut r = ByteReader::new(payload);
    let mut values = Vec::with_capacity(store.len());
    let mut quants = Vec::with_capacity(store.len());
    for idx in 0..store.len() {
        let (name, shape) = read_param_header(&mut r, store, idx)?;
        let numel: usize = shape.iter().product();
        let channels = if shape.len() >= 2 {
            *shape.last().unwrap()
        } else {
            1
        };

        let scale_blob = r.get_bytes("int8 scales")?;
        if scale_blob.len() != channels * 4 {
            return Err(corrupt(format!(
                "param '{name}' has {} scale bytes, expected {} ({channels} channels)",
                scale_blob.len(),
                channels * 4
            )));
        }
        let scales: Vec<f32> = scale_blob
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        if scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err(corrupt(format!(
                "param '{name}' has a non-positive or non-finite quant scale"
            )));
        }

        let code_blob = r.get_bytes("int8 codes")?;
        if code_blob.len() != numel {
            return Err(corrupt(format!(
                "param '{name}' int8 payload is {} bytes, expected {numel}",
                code_blob.len()
            )));
        }
        let q = QuantTensor {
            data: code_blob.iter().map(|&b| b as i8).collect(),
            scales,
            shape,
        };
        values.push(Tensor::from_vec(&q.shape, q.dequantize()));
        quants.push(Some(q));
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after the last int8 param"));
    }
    Ok((values, quants))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_tensor::rng::Rng;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        store.register("layer.w", Tensor::randn(&[6, 4], 1.0, &mut rng));
        store.register("layer.b", Tensor::randn(&[4], 1.0, &mut rng));
        store.register("head.w", Tensor::randn(&[4, 2], 0.5, &mut rng));
        store
    }

    fn bits(store: &ParamStore) -> Vec<Vec<u32>> {
        store
            .iter()
            .map(|(_, _, v)| v.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn f32_round_trip_is_bit_exact_and_tagged() {
        let store = sample_store(1);
        let bytes = ArtifactWriter::new(PrecisionTier::F32)
            .encode(&store)
            .unwrap();
        let reader = ArtifactReader::decode(&bytes).unwrap();
        assert_eq!(reader.tier(), PrecisionTier::F32);
        assert_eq!(reader.format_version(), FORMAT_VERSION);
        assert_eq!(reader.arch_fingerprint(), Some(arch_fingerprint(&store)));
        let mut restored = sample_store(2);
        reader.load_into(&mut restored).unwrap();
        assert_eq!(bits(&store), bits(&restored));
        assert_eq!(restored.tier(), PrecisionTier::F32);
        assert!(restored.quant(0).is_none());
    }

    #[test]
    fn f16_round_trip_matches_scalar_conversion() {
        let store = sample_store(3);
        let bytes = ArtifactWriter::new(PrecisionTier::F16)
            .encode(&store)
            .unwrap();
        let reader = ArtifactReader::decode(&bytes).unwrap();
        assert_eq!(reader.tier(), PrecisionTier::F16);
        let mut restored = sample_store(4);
        reader.load_into(&mut restored).unwrap();
        assert_eq!(restored.tier(), PrecisionTier::F16);
        // Every loaded value is exactly round-trip(f32→f16→f32) of the
        // original — the only loss is the f16 rounding itself.
        for ((_, _, orig), (_, _, got)) in store.iter().zip(restored.iter()) {
            for (&o, &g) in orig.data().iter().zip(got.data()) {
                let expect = msd_tensor::ops::kernels::quant::f16_bits_to_f32(
                    msd_tensor::ops::kernels::quant::f32_to_f16_bits(o),
                );
                assert_eq!(g.to_bits(), expect.to_bits());
            }
        }
        // f16 never needs a quant table.
        assert!(restored.quant(0).is_none());
    }

    #[test]
    fn int8_round_trip_installs_quant_table() {
        let store = sample_store(5);
        let bytes = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&store)
            .unwrap();
        let reader = ArtifactReader::decode(&bytes).unwrap();
        assert_eq!(reader.tier(), PrecisionTier::Int8);
        let mut restored = sample_store(6);
        reader.load_into(&mut restored).unwrap();
        assert_eq!(restored.tier(), PrecisionTier::Int8);
        for (id, _, orig) in store.iter() {
            let q = restored.quant(id).expect("int8 load installs quant data");
            assert_eq!(q.shape, orig.shape());
            // The store's f32 values are exactly the dequantized codes.
            assert_eq!(
                restored.get(id).data(),
                q.dequantize().as_slice(),
                "param {id} f32 values must match dequantized codes"
            );
            // And dequantized values stay within half a quant step.
            let expected = QuantTensor::quantize(orig.data(), orig.shape()).unwrap();
            assert_eq!(q.data, expected.data);
            assert_eq!(
                q.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                expected
                    .scales
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn nan_weights_are_a_typed_save_time_error() {
        for tier in [PrecisionTier::F16, PrecisionTier::Int8] {
            let mut store = sample_store(7);
            store.get_mut(0).data_mut()[3] = f32::NAN;
            let err = ArtifactWriter::new(tier).encode(&store).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tier}");
            assert!(err.to_string().contains("layer.w"), "{tier}: {err}");
            assert!(
                err.to_string().to_lowercase().contains("nan"),
                "{tier}: {err}"
            );
        }
        // f32 tier is a bit-exact container: NaN round-trips instead.
        let mut store = sample_store(7);
        store.get_mut(0).data_mut()[3] = f32::NAN;
        let bytes = ArtifactWriter::new(PrecisionTier::F32)
            .encode(&store)
            .unwrap();
        let mut restored = sample_store(8);
        ArtifactReader::decode(&bytes)
            .unwrap()
            .load_into(&mut restored)
            .unwrap();
        assert!(restored.get(0).data()[3].is_nan());
    }

    #[test]
    fn infinity_is_an_int8_save_time_error_but_f16_representable() {
        let mut store = sample_store(9);
        store.get_mut(1).data_mut()[0] = f32::INFINITY;
        let err = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&store)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("layer.b"), "{err}");

        let bytes = ArtifactWriter::new(PrecisionTier::F16)
            .encode(&store)
            .unwrap();
        let mut restored = sample_store(10);
        ArtifactReader::decode(&bytes)
            .unwrap()
            .load_into(&mut restored)
            .unwrap();
        assert_eq!(restored.get(1).data()[0], f32::INFINITY);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_before_payload_parse() {
        let store = sample_store(11);
        let bytes = ArtifactWriter::new(PrecisionTier::F16)
            .encode(&store)
            .unwrap();
        let mut other = ParamStore::new();
        let mut rng = Rng::seed_from(12);
        other.register("layer.w", Tensor::randn(&[4, 6], 1.0, &mut rng)); // transposed
        other.register("layer.b", Tensor::randn(&[4], 1.0, &mut rng));
        other.register("head.w", Tensor::randn(&[4, 2], 0.5, &mut rng));
        let before = bits(&other);
        let err = ArtifactReader::decode(&bytes)
            .unwrap()
            .load_into(&mut other)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "{err}");
        assert_eq!(before, bits(&other), "failed load mutated the store");
    }

    #[test]
    fn unknown_tier_in_meta_is_a_typed_error() {
        // Hand-build a v3 container whose meta declares a bogus tier.
        let store = sample_store(13);
        let mut meta = ByteWriter::new();
        meta.put_u32(FORMAT_VERSION);
        meta.put_str("f8");
        meta.put_u32(arch_fingerprint(&store));
        meta.put_u32(store.len() as u32);
        let bytes = checkpoint::encode_container(&[
            (META_SECTION, meta.into_bytes()),
            (PARAMS_SECTION, Vec::new()),
        ]);
        let err = ArtifactReader::decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown precision tier"), "{err}");
    }

    #[test]
    fn future_format_version_is_rejected() {
        let store = sample_store(14);
        let mut meta = ByteWriter::new();
        meta.put_u32(FORMAT_VERSION + 1);
        meta.put_str("f32");
        meta.put_u32(arch_fingerprint(&store));
        meta.put_u32(store.len() as u32);
        let bytes = checkpoint::encode_container(&[
            (META_SECTION, meta.into_bytes()),
            (PARAMS_SECTION, Vec::new()),
        ]);
        let err = ArtifactReader::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("newer than supported"), "{err}");
    }

    #[test]
    fn quant_known_answer_edge_tensors_round_trip_through_the_artifact() {
        // Artifact-level known answers: subnormal, signed zero, max
        // magnitude, all-zero, and single-element tensors survive an
        // f16-tier save/load bit-exactly (all are exactly representable),
        // and an int8-tier save/load within the documented half-step bound.
        let mut store = ParamStore::new();
        store.register(
            "edge.subnormal",
            Tensor::from_vec(&[2], vec![1.0e-41, -1.0e-41]),
        );
        store.register("edge.zeros", Tensor::from_vec(&[2], vec![0.0, -0.0]));
        store.register(
            "edge.maxmag",
            Tensor::from_vec(&[2, 2], vec![127.0, -127.0, 63.5, 0.0]),
        );
        store.register("edge.allzero", Tensor::zeros(&[3]));
        store.register("edge.single", Tensor::from_vec(&[1], vec![2.5]));

        let f16 = ArtifactWriter::new(PrecisionTier::F16)
            .encode(&store)
            .unwrap();
        let mut r16 = snapshot_clone(&store);
        ArtifactReader::decode(&f16)
            .unwrap()
            .load_into(&mut r16)
            .unwrap();
        // Signed zero keeps its sign through f16.
        assert_eq!(r16.get(1).data()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(r16.get(1).data()[1].to_bits(), (-0.0f32).to_bits());
        for (id, _, v) in store.iter() {
            if id == 0 {
                // f32 subnormals underflow f16's range; they must come back
                // as (signed) zero, not garbage.
                assert_eq!(r16.get(id).data()[0], 0.0);
                assert_eq!(r16.get(id).data()[1], 0.0);
                assert!(r16.get(id).data()[1].is_sign_negative());
                continue;
            }
            assert_eq!(v.data(), r16.get(id).data(), "param {id}");
        }

        let i8b = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&store)
            .unwrap();
        let mut r8 = snapshot_clone(&store);
        ArtifactReader::decode(&i8b)
            .unwrap()
            .load_into(&mut r8)
            .unwrap();
        for (id, _, v) in store.iter() {
            let scales = &r8.quant(id).unwrap().scales;
            for (i, (&orig, &got)) in v.data().iter().zip(r8.get(id).data()).enumerate() {
                let s = scales[i % scales.len()];
                assert!(
                    (orig - got).abs() <= s / 2.0 + 1e-12,
                    "param {id} elem {i}: {orig} vs {got} (scale {s})"
                );
            }
        }
        // Max-magnitude values are exactly representable at int8.
        assert_eq!(r8.get(2).data()[0], 127.0);
        assert_eq!(r8.get(2).data()[1], -127.0);
        // All-zero tensors stay exactly zero (scale falls back to 1.0).
        assert_eq!(r8.get(3).data(), &[0.0, 0.0, 0.0]);
    }

    fn snapshot_clone(store: &ParamStore) -> ParamStore {
        let mut out = ParamStore::new();
        for (_, name, v) in store.iter() {
            out.register(name.to_string(), Tensor::zeros(v.shape()));
        }
        out
    }

    #[test]
    fn artifact_sizes_hit_the_compression_floors() {
        // bytes(f32) / bytes(f16) ≥ 1.9 and bytes(f32) / bytes(int8) ≥ 3.5
        // for a realistically-sized store (container overhead amortised).
        let mut rng = Rng::seed_from(21);
        let mut store = ParamStore::new();
        store.register("w1", Tensor::randn(&[64, 128], 1.0, &mut rng));
        store.register("b1", Tensor::randn(&[128], 1.0, &mut rng));
        store.register("w2", Tensor::randn(&[128, 64], 1.0, &mut rng));
        let f32b = ArtifactWriter::new(PrecisionTier::F32)
            .encode(&store)
            .unwrap()
            .len() as f64;
        let f16b = ArtifactWriter::new(PrecisionTier::F16)
            .encode(&store)
            .unwrap()
            .len() as f64;
        let i8b = ArtifactWriter::new(PrecisionTier::Int8)
            .encode(&store)
            .unwrap()
            .len() as f64;
        assert!(f32b / f16b >= 1.9, "f16 ratio {:.2}", f32b / f16b);
        assert!(f32b / i8b >= 3.5, "int8 ratio {:.2}", f32b / i8b);
    }
}

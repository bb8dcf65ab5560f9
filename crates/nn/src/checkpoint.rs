//! The `MSDCKPT2` durable container format and its crash-safety plumbing.
//!
//! This module is the storage layer under crash-safe training checkpoints:
//! a versioned, self-describing binary container whose every section is
//! length-prefixed and CRC32-guarded, written atomically (tmp file, fsync,
//! rename) and rotated so that a torn, truncated, or bit-flipped file is
//! *detected* on load and an older valid rotation is used instead.
//!
//! ## Layout (little-endian)
//!
//! ```text
//! magic    "MSDCKPT2"             (8 bytes)
//! count    u32                    number of sections
//! repeat count times:
//!   name_len u32, name bytes      (utf-8 section name, ≤ 255 bytes)
//!   payload_len u64
//!   payload bytes
//!   crc u32                       CRC32 (IEEE) of name + payload
//! footer   crc u32                CRC32 of every byte before the footer
//! ```
//!
//! Every length is validated against the bytes actually remaining before
//! any allocation, so a corrupt header errors cleanly instead of attempting
//! a multi-gigabyte `Vec`. The footer CRC covers the whole body, so *any*
//! single-byte corruption — including in the per-section CRCs themselves —
//! is rejected.

use msd_tensor::Tensor;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Container magic. The trailing `2` is the format version; `MSDCKPT1` is
/// the legacy weights-only stream in [`crate::serialize`].
pub const MAGIC: &[u8; 8] = b"MSDCKPT2";

/// Longest accepted section name; names are short ASCII tags.
const MAX_SECTION_NAME: usize = 255;

/// Highest accepted tensor rank in [`read_tensor`].
const MAX_RANK: usize = 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven. In-tree because the
// workspace is hermetic.
// ---------------------------------------------------------------------------

/// The reflected CRC32 lookup table for polynomial 0xEDB88320.
fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    })
}

/// CRC32 (IEEE) of `bytes` — the checksum used by gzip/zip/PNG.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Bounds-checked little-endian payload primitives.
// ---------------------------------------------------------------------------

/// Appends little-endian primitives to a byte buffer (section payloads).
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` (bit pattern, so NaN payloads round-trip exactly).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Reads little-endian primitives from a byte slice, validating every
/// length against the bytes remaining *before* allocating.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Shorthand for the `InvalidData` errors every decode path returns.
pub fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl<'a> ByteReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated {what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that could
    /// not possibly fit in the remaining bytes.
    pub fn get_len(&mut self, what: &str) -> io::Result<usize> {
        let v = self.get_u64(what)?;
        usize::try_from(v)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| {
                corrupt(format!(
                    "implausible {what}: {v} with {} bytes remaining",
                    self.remaining()
                ))
            })
    }

    /// Reads an `f32` bit pattern.
    pub fn get_f32(&mut self, what: &str) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self, what: &str) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed byte string; the length is validated
    /// against the remaining bytes before any copy.
    pub fn get_bytes(&mut self, what: &str) -> io::Result<&'a [u8]> {
        let len = self.get_u32(what)? as usize;
        if len > self.remaining() {
            return Err(corrupt(format!(
                "implausible {what} length {len}: only {} bytes remain",
                self.remaining()
            )));
        }
        self.take(len, what)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> io::Result<String> {
        let bytes = self.get_bytes(what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(format!("{what} is not valid utf-8")))
    }
}

// ---------------------------------------------------------------------------
// Tensor encoding (shared by the params / optimiser sections).
// ---------------------------------------------------------------------------

/// Appends a tensor (rank, dims, raw f32 bits) to `w`.
pub fn write_tensor(w: &mut ByteWriter, t: &Tensor) {
    w.put_u32(t.ndim() as u32);
    for &d in t.shape() {
        w.put_u64(d as u64);
    }
    for &x in t.data() {
        w.put_f32(x);
    }
}

/// Reads a tensor written by [`write_tensor`], validating rank and element
/// count against the bytes remaining before allocating anything.
pub fn read_tensor(r: &mut ByteReader) -> io::Result<Tensor> {
    let rank = r.get_u32("tensor rank")? as usize;
    if rank > MAX_RANK {
        return Err(corrupt(format!("implausible tensor rank {rank}")));
    }
    let mut shape = Vec::with_capacity(rank);
    let mut numel = 1usize;
    for i in 0..rank {
        let d = r.get_u64("tensor dim")?;
        let d = usize::try_from(d).map_err(|_| corrupt(format!("dim {i} overflows usize")))?;
        numel = numel
            .checked_mul(d)
            .ok_or_else(|| corrupt("tensor element count overflows"))?;
        shape.push(d);
    }
    if numel.checked_mul(4).is_none_or(|bytes| bytes > r.remaining()) {
        return Err(corrupt(format!(
            "implausible tensor: {numel} elements with {} bytes remaining",
            r.remaining()
        )));
    }
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(r.get_f32("tensor data")?);
    }
    Ok(Tensor::from_vec(&shape, data))
}

// ---------------------------------------------------------------------------
// Container encode / decode.
// ---------------------------------------------------------------------------

/// Serialises named sections into one `MSDCKPT2` container.
pub fn encode_container(sections: &[(&str, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        16 + sections
            .iter()
            .map(|(n, p)| n.len() + p.len() + 16)
            .sum::<usize>(),
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, payload) in sections {
        assert!(name.len() <= MAX_SECTION_NAME, "section name too long");
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let mut crc_input = Vec::with_capacity(name.len() + payload.len());
        crc_input.extend_from_slice(name.as_bytes());
        crc_input.extend_from_slice(payload);
        out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    }
    let footer = crc32(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

/// Parses an `MSDCKPT2` container, returning `(name, payload)` pairs.
///
/// Every structural fault — wrong/stale magic, truncation at any byte,
/// over-long lengths, per-section CRC mismatch, footer CRC mismatch,
/// trailing garbage — yields an `InvalidData`/`UnexpectedEof`-style
/// [`io::Error`]; nothing panics and no oversized allocation is attempted.
pub fn decode_container(bytes: &[u8]) -> io::Result<Vec<(String, Vec<u8>)>> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(corrupt(format!("container too short: {} bytes", bytes.len())));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt(format!(
            "bad checkpoint magic {:?} (expected MSDCKPT2)",
            String::from_utf8_lossy(&bytes[..MAGIC.len()])
        )));
    }
    // Verify the footer CRC over the whole body first: it subsumes every
    // other integrity check, so any single corrupt byte is caught even if
    // it would also confuse structural parsing.
    let body_end = bytes.len() - 4;
    let stored_footer = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let actual_footer = crc32(&bytes[..body_end]);
    if stored_footer != actual_footer {
        return Err(corrupt(format!(
            "footer CRC mismatch: stored {stored_footer:#010x}, computed {actual_footer:#010x} \
             (file torn or corrupted)"
        )));
    }
    let mut r = ByteReader::new(&bytes[MAGIC.len()..body_end]);
    let count = r.get_u32("section count")? as usize;
    let mut sections = Vec::new();
    for i in 0..count {
        let name_bytes = r.get_bytes(&format!("section {i} name"))?;
        if name_bytes.len() > MAX_SECTION_NAME {
            return Err(corrupt(format!("section {i} name too long")));
        }
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| corrupt(format!("section {i} name is not utf-8")))?;
        let payload_len = r.get_len(&format!("section '{name}' payload length"))?;
        let payload = r.take(payload_len, &format!("section '{name}' payload"))?;
        let stored = r.get_u32(&format!("section '{name}' crc"))?;
        let mut crc_input = Vec::with_capacity(name_bytes.len() + payload.len());
        crc_input.extend_from_slice(name_bytes);
        crc_input.extend_from_slice(payload);
        let actual = crc32(&crc_input);
        if stored != actual {
            return Err(corrupt(format!(
                "section '{name}' CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        sections.push((name, payload.to_vec()));
    }
    if !r.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after last section",
            r.remaining()
        )));
    }
    Ok(sections)
}

/// Byte offsets at which each section (and the footer) ends — the torn-write
/// boundaries a fault-injection corpus truncates at. Returns
/// `(name, end_offset)` pairs; the final entry is `("<footer>", len)`.
pub fn section_bounds(bytes: &[u8]) -> io::Result<Vec<(String, usize)>> {
    decode_container(bytes)?; // validate first so offsets are meaningful
    let mut bounds = Vec::new();
    let mut pos = MAGIC.len() + 4;
    let count = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
    for _ in 0..count {
        let name_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let name = String::from_utf8_lossy(&bytes[pos + 4..pos + 4 + name_len]).into_owned();
        pos += 4 + name_len;
        let payload_len =
            u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8 + payload_len + 4;
        bounds.push((name, pos));
    }
    bounds.push(("<footer>".to_string(), bytes.len()));
    Ok(bounds)
}

// ---------------------------------------------------------------------------
// Atomic file writes and rotation.
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: a unique sibling tmp file is
/// written and fsynced, then renamed over `path`, then the directory is
/// fsynced so the rename itself is durable. A crash at any point leaves
/// either the old file or the new file — never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| corrupt("write_atomic: path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = dir {
        // Make the rename durable. Directory fsync is best-effort on
        // platforms where directories cannot be opened for sync.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A rotated set of checkpoint files in one directory: `ckpt-latest.msd`
/// plus up to `keep` older generations `ckpt-1.msd` (newest) …
/// `ckpt-<keep>.msd` (oldest).
pub struct CheckpointDir {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointDir {
    /// Manages rotated checkpoints under `dir`, keeping `keep` previous
    /// generations besides `ckpt-latest.msd`.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            dir: dir.into(),
            keep,
        }
    }

    /// Path of the newest checkpoint.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("ckpt-latest.msd")
    }

    /// Path of the `n`-th previous generation (1 = newest rotation).
    pub fn rotated_path(&self, n: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{n}.msd"))
    }

    /// All candidate paths, newest first.
    pub fn candidates(&self) -> Vec<PathBuf> {
        std::iter::once(self.latest_path())
            .chain((1..=self.keep).map(|n| self.rotated_path(n)))
            .collect()
    }

    /// Atomically installs `bytes` as the newest checkpoint, rotating the
    /// previous `ckpt-latest.msd` into the numbered generations first.
    pub fn save(&self, bytes: &[u8]) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        if self.keep > 0 && self.latest_path().exists() {
            // Shift ckpt-(keep-1) → ckpt-keep, …, ckpt-1 → ckpt-2, then
            // latest → ckpt-1. Renames, so no torn copies.
            let _ = std::fs::remove_file(self.rotated_path(self.keep));
            for n in (1..self.keep).rev() {
                let from = self.rotated_path(n);
                if from.exists() {
                    let _ = std::fs::rename(&from, self.rotated_path(n + 1));
                }
            }
            let _ = std::fs::rename(self.latest_path(), self.rotated_path(1));
        }
        write_atomic(&self.latest_path(), bytes)
    }

    /// Loads the newest checkpoint whose bytes `parse` accepts, trying
    /// `ckpt-latest.msd` first and falling back through the rotations.
    /// Every rejected candidate is reported on stderr with its diagnostic;
    /// `None` means no file parsed (including "directory empty").
    pub fn load_newest_valid<T>(
        &self,
        mut parse: impl FnMut(&[u8]) -> io::Result<T>,
    ) -> Option<(PathBuf, T)> {
        for path in self.candidates() {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    if e.kind() != io::ErrorKind::NotFound {
                        eprintln!("[checkpoint] cannot read {}: {e}", path.display());
                    }
                    continue;
                }
            };
            match parse(&bytes) {
                Ok(v) => return Some((path, v)),
                Err(e) => {
                    eprintln!(
                        "[checkpoint] {} is invalid ({e}); trying previous rotation",
                        path.display()
                    );
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vectors() {
        // Standard test vector ("123456789" → 0xCBF43926) plus edge cases.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn container_round_trips() {
        let sections = vec![
            ("PARAMS", vec![1u8, 2, 3, 4, 5]),
            ("RNG", vec![]),
            ("TRAIN", (0..200u8).collect()),
        ];
        let bytes = encode_container(&sections);
        let back = decode_container(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for ((n0, p0), (n1, p1)) in sections.iter().zip(&back) {
            assert_eq!(n0, n1);
            assert_eq!(p0, p1);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_container(&[("A", vec![9u8; 40]), ("B", vec![7u8; 17])]);
        for len in 0..bytes.len() {
            let err = decode_container(&bytes[..len])
                .expect_err(&format!("truncation to {len} bytes accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let bytes = encode_container(&[("A", vec![3u8; 64])]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5A;
            assert!(
                decode_container(&bad).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn stale_magic_is_rejected() {
        let bytes = encode_container(&[("A", vec![1u8, 2, 3])]);
        let mut stale = bytes.clone();
        stale[..8].copy_from_slice(b"MSDCKPT1");
        let err = decode_container(&stale).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn implausible_lengths_error_without_allocating() {
        // A section claiming a 2^60-byte payload must error cleanly.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'X');
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let footer = crc32(&bytes);
        bytes.extend_from_slice(&footer.to_le_bytes());
        let err = decode_container(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn tensor_round_trip_preserves_bits() {
        let t = Tensor::from_vec(
            &[2, 3],
            vec![1.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-38],
        );
        let mut w = ByteWriter::new();
        write_tensor(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = read_tensor(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tensor_with_huge_claimed_dims_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u64(1 << 40);
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        assert!(read_tensor(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn section_bounds_cover_the_file() {
        let bytes = encode_container(&[("A", vec![1u8; 10]), ("B", vec![2u8; 5])]);
        let bounds = section_bounds(&bytes).unwrap();
        assert_eq!(bounds.len(), 3);
        assert_eq!(bounds[0].0, "A");
        assert_eq!(bounds[1].0, "B");
        assert_eq!(bounds.last().unwrap().1, bytes.len());
        assert!(bounds[0].1 < bounds[1].1);
    }

    #[test]
    fn atomic_write_then_read_back() {
        let dir = std::env::temp_dir().join(format!("msd_ckpt_atomic_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        write_atomic(&path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        write_atomic(&path, b"world").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"world");
        // No tmp litter.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_n_generations_and_falls_back() {
        let dir =
            std::env::temp_dir().join(format!("msd_ckpt_rotation_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpts = CheckpointDir::new(&dir, 2);
        for gen in 0..4u8 {
            ckpts.save(&encode_container(&[("G", vec![gen])])).unwrap();
        }
        // latest = 3, ckpt-1 = 2, ckpt-2 = 1, generation 0 aged out.
        assert!(ckpts.latest_path().exists());
        assert!(ckpts.rotated_path(1).exists());
        assert!(ckpts.rotated_path(2).exists());
        assert!(!ckpts.rotated_path(3).exists());
        let parse = |b: &[u8]| decode_container(b).map(|s| s[0].1[0]);
        let (path, newest) = ckpts.load_newest_valid(parse).unwrap();
        assert_eq!(newest, 3);
        assert_eq!(path, ckpts.latest_path());

        // Corrupt the latest: fallback must pick generation 2 from ckpt-1.
        let mut bytes = std::fs::read(ckpts.latest_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(ckpts.latest_path(), &bytes).unwrap();
        let (path, v) = ckpts.load_newest_valid(parse).unwrap();
        assert_eq!(v, 2);
        assert_eq!(path, ckpts.rotated_path(1));

        // Truncate that one too: generation 1 from ckpt-2 remains.
        let bytes = std::fs::read(ckpts.rotated_path(1)).unwrap();
        std::fs::write(ckpts.rotated_path(1), &bytes[..bytes.len() / 3]).unwrap();
        let (_, v) = ckpts.load_newest_valid(parse).unwrap();
        assert_eq!(v, 1);

        // All corrupt → None.
        let bytes = std::fs::read(ckpts.rotated_path(2)).unwrap();
        std::fs::write(ckpts.rotated_path(2), &bytes[..10.min(bytes.len())]).unwrap();
        std::fs::write(ckpts.latest_path(), b"junk").unwrap();
        std::fs::write(ckpts.rotated_path(1), b"").unwrap();
        assert!(ckpts.load_newest_valid(parse).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

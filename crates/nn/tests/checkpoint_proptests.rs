//! Seeded property tests for the `MSDCKPT2` container: random parameter
//! stores — random shapes and ranks, empty tensors, NaN and ±inf payloads —
//! must round-trip bit-exactly, and *every* single-byte truncation of the
//! encoded container must be rejected (no panic, no partial state).

use msd_nn::checkpoint::{
    decode_container, encode_container, read_tensor, write_tensor, ByteReader, ByteWriter,
};
use msd_nn::ParamStore;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// Builds a random parameter store: 1–6 params of rank 0–3 with dims 0–5
/// (empty tensors included), values drawn from a mix of normals and the
/// hostile specials a real checkpoint must preserve verbatim.
fn random_store(rng: &mut Rng) -> ParamStore {
    let mut store = ParamStore::new();
    let n_params = 1 + (rng.next_u64() % 6) as usize;
    for p in 0..n_params {
        let rank = (rng.next_u64() % 4) as usize;
        let shape: Vec<usize> = (0..rank).map(|_| (rng.next_u64() % 6) as usize).collect();
        let numel: usize = shape.iter().product();
        let data: Vec<f32> = (0..numel)
            .map(|_| match rng.next_u64() % 8 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                4 => f32::MIN_POSITIVE / 2.0, // subnormal
                _ => rng.normal(),
            })
            .collect();
        store.register(format!("p{p}.weight"), Tensor::from_vec(&shape, data));
    }
    store
}

/// Encodes a store as one container: a `params` section of
/// `count + (name, tensor)*` — the same framing the training checkpoint
/// uses for its parameter section.
fn encode_store(store: &ParamStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(store.len() as u32);
    for (_, name, value) in store.iter() {
        w.put_str(name);
        write_tensor(&mut w, value);
    }
    encode_container(&[("params", w.into_bytes())])
}

fn decode_store(bytes: &[u8]) -> std::io::Result<Vec<(String, Tensor)>> {
    let sections = decode_container(bytes)?;
    let (_, payload) = sections
        .iter()
        .find(|(name, _)| name == "params")
        .expect("params section");
    let mut r = ByteReader::new(payload);
    let count = r.get_u32("count")? as usize;
    let mut out = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let name = r.get_str("name")?;
        let value = read_tensor(&mut r)?;
        out.push((name, value));
    }
    assert!(r.is_empty(), "trailing bytes after params");
    Ok(out)
}

#[test]
fn random_stores_round_trip_bit_exactly() {
    let mut rng = Rng::seed_from(0xC0FFEE);
    for case in 0..64 {
        let store = random_store(&mut rng);
        let bytes = encode_store(&store);
        let decoded = decode_store(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode of freshly encoded store failed: {e}"));
        assert_eq!(decoded.len(), store.len(), "case {case}: param count");
        for (idx, (name, value)) in decoded.iter().enumerate() {
            assert_eq!(name, store.name(idx), "case {case}: name of param {idx}");
            let original = store.get(idx);
            assert_eq!(
                value.shape(),
                original.shape(),
                "case {case}: shape of '{name}'"
            );
            // to_bits comparison: NaN payloads, signed zeros, and
            // subnormals must survive verbatim, not merely compare equal.
            for (i, (a, b)) in original.data().iter().zip(value.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case}: '{name}'[{i}]: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn every_single_byte_truncation_is_rejected() {
    let mut rng = Rng::seed_from(0xBEEF);
    // A handful of random stores, exhaustively truncated at every length.
    for case in 0..4 {
        let store = random_store(&mut rng);
        let bytes = encode_store(&store);
        for len in 0..bytes.len() {
            assert!(
                decode_store(&bytes[..len]).is_err(),
                "case {case}: truncation to {len}/{} bytes was accepted",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_byte_corruption_is_rejected() {
    let mut rng = Rng::seed_from(0xFACADE);
    let store = random_store(&mut rng);
    let bytes = encode_store(&store);
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 1 << (i % 8);
        assert!(
            decode_store(&bad).is_err(),
            "flip of bit {} at byte {i} was accepted",
            i % 8
        );
    }
}

#[test]
fn empty_tensors_and_scalars_survive() {
    let mut store = ParamStore::new();
    store.register("empty", Tensor::from_vec(&[0], vec![]));
    store.register("empty2d", Tensor::from_vec(&[3, 0], vec![]));
    store.register("scalar", Tensor::from_vec(&[], vec![42.5]));
    let decoded = decode_store(&encode_store(&store)).unwrap();
    assert_eq!(decoded[0].1.shape(), &[0]);
    assert_eq!(decoded[1].1.shape(), &[3, 0]);
    assert_eq!(decoded[2].1.shape(), &[] as &[usize]);
    assert_eq!(decoded[2].1.data(), &[42.5]);
}

//! Deterministic request routing across model replicas.
//!
//! The contract (DESIGN.md §12): the replica serving a request is a pure
//! function of the client-supplied routing key and the replica count —
//! `replica = FNV-1a-64(key) mod n`. Two requests with the same key always
//! land on the same replica of a given deployment, on every machine and in
//! every run; the mapping only changes when the replica count does. An
//! absent key hashes as the empty byte string, so keyless traffic is
//! deterministic too (all of it lands on one replica — callers who want
//! spreading supply keys).
//!
//! FNV-1a was chosen because it is a five-line, dependency-free, endian-
//! independent spec that any client in any language can reimplement
//! byte-for-byte; routing never needs cryptographic strength, it needs an
//! *auditable* constant.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The replica index (`0..replicas`) serving routing key `key`.
///
/// # Panics
/// Panics if `replicas` is zero — an empty replica set is unreachable by
/// construction (the registry never publishes one).
pub fn route(key: &[u8], replicas: usize) -> usize {
    assert!(replicas > 0, "route over an empty replica set");
    (fnv1a64(key) % replicas as u64) as usize
}

/// The full deterministic failover order for `key`: a permutation of
/// `0..replicas` whose first element is exactly [`route`]`(key, replicas)`.
///
/// Degraded routing walks this order skipping open-breaker replicas, so:
/// with every breaker closed the choice *is* the plain FNV route (healthy
/// routing is bit-identical to the pre-breaker gateway); with some open,
/// keys rehash to a fallback that is still a pure function of the key (two
/// gateways observing the same breaker states agree on every assignment);
/// and when a breaker closes again, keys snap back to their original
/// replica — the permutation never changes, only how far down it the
/// walk goes.
///
/// Construction: successive FNV-1a rehashes of the previous hash's
/// little-endian bytes pick from the not-yet-chosen replicas. Like
/// [`route`] itself this is an auditable five-line spec, reimplementable
/// byte-for-byte in any language.
///
/// # Panics
/// Panics if `replicas` is zero, exactly like [`route`].
pub fn route_order(key: &[u8], replicas: usize) -> Vec<usize> {
    assert!(replicas > 0, "route over an empty replica set");
    let mut remaining: Vec<usize> = (0..replicas).collect();
    let mut order = Vec::with_capacity(replicas);
    let mut h = fnv1a64(key);
    while !remaining.is_empty() {
        let pick = (h % remaining.len() as u64) as usize;
        order.push(remaining.remove(pick));
        h = fnv1a64(&h.to_le_bytes());
    }
    order
}

/// The first replica in `key`'s failover order whose breaker is not open
/// (`open[i]` = avoid replica `i`), or `None` when every breaker is open —
/// the caller then fails static to a least-bad replica instead of erroring.
///
/// # Panics
/// Panics if `open` is empty.
pub fn route_healthy(key: &[u8], open: &[bool]) -> Option<usize> {
    route_order(key, open.len()).into_iter().find(|&i| !open[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        // Golden vectors from the FNV reference implementation.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for replicas in 1..=8usize {
            for key in [&b""[..], b"user-17", b"series/42", b"\x00\xff"] {
                let first = route(key, replicas);
                assert!(first < replicas);
                for _ in 0..3 {
                    assert_eq!(route(key, replicas), first, "unstable route");
                }
            }
        }
    }

    /// A small deterministic key corpus for the degradation properties.
    fn keys() -> Vec<Vec<u8>> {
        let mut ks: Vec<Vec<u8>> = (0..200).map(|i| format!("key-{i}").into_bytes()).collect();
        ks.push(Vec::new());
        ks.push(b"\x00\xff\x00".to_vec());
        ks
    }

    #[test]
    fn route_order_is_a_permutation_seeded_by_the_plain_route() {
        for replicas in 1..=8usize {
            for key in keys() {
                let order = route_order(&key, replicas);
                assert_eq!(
                    order[0],
                    route(&key, replicas),
                    "order starts at the FNV route"
                );
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..replicas).collect::<Vec<_>>(),
                    "not a permutation"
                );
                assert_eq!(order, route_order(&key, replicas), "unstable order");
            }
        }
    }

    #[test]
    fn same_breaker_state_yields_identical_assignments() {
        // Property (a): assignments are a pure function of (key, mask) —
        // replayed sweeps agree on every key for every mask.
        let replicas = 5;
        for mask_bits in 0u32..(1 << replicas) {
            let open: Vec<bool> = (0..replicas).map(|i| mask_bits & (1 << i) != 0).collect();
            for key in keys() {
                let first = route_healthy(&key, &open);
                assert_eq!(first, route_healthy(&key, &open), "mask {open:?}");
                if let Some(r) = first {
                    assert!(!open[r], "routed to an open replica");
                } else {
                    assert!(open.iter().all(|&o| o), "None only when all open");
                }
            }
        }
    }

    #[test]
    fn closing_a_breaker_restores_original_fnv_routing_bit_exactly() {
        // Property (b): degradation is memoryless. After the breaker closes
        // the choice equals the plain FNV route for every key — no residue
        // of the open period.
        for replicas in 2..=6usize {
            for sick in 0..replicas {
                let mut open = vec![false; replicas];
                open[sick] = true;
                for key in keys() {
                    let degraded = route_healthy(&key, &open).unwrap();
                    assert_ne!(degraded, sick, "routed to the open replica");
                    if route(&key, replicas) != sick {
                        assert_eq!(
                            degraded,
                            route(&key, replicas),
                            "unaffected key moved while replica {sick} was open"
                        );
                    }
                }
                let healed = vec![false; replicas];
                for key in keys() {
                    assert_eq!(
                        route_healthy(&key, &healed),
                        Some(route(&key, replicas)),
                        "healed routing differs from plain FNV"
                    );
                }
            }
        }
    }

    #[test]
    fn all_replicas_open_returns_none_for_fail_static() {
        // Property (c), router half: the router reports "no healthy
        // replica" as None — the registry then fails static to the
        // least-bad replica and still answers (asserted end-to-end in the
        // fault-tolerance suite).
        for replicas in 1..=4usize {
            let open = vec![true; replicas];
            for key in keys() {
                assert_eq!(route_healthy(&key, &open), None);
            }
        }
    }

    #[test]
    fn distinct_keys_spread_across_replicas() {
        let replicas = 4;
        let mut hits = [0usize; 4];
        for i in 0..1000 {
            hits[route(format!("key-{i}").as_bytes(), replicas)] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 100, "replica {i} starved: {hits:?}");
        }
    }
}

//! Deterministic random number generation.
//!
//! In-tree xoshiro256++ generator (Blackman & Vigna) seeded through
//! SplitMix64, plus Box–Muller Gaussian sampling, so the workspace carries
//! no external dependency for randomness and builds fully offline. Equal
//! seeds give equal streams on every platform.

/// Seedable RNG used throughout the workspace for parameter initialisation,
/// data generation, shuffling, and dropout masks.
pub struct Rng {
    /// xoshiro256++ state, never all-zero (guaranteed by SplitMix64 seeding).
    s: [u64; 4],
    /// Second Box–Muller sample cached between `normal()` calls.
    spare: Option<f32>,
}

/// The complete serialisable state of an [`Rng`]: the four xoshiro256++
/// words plus the cached Box–Muller spare. Capturing and restoring this
/// state resumes the stream exactly where it left off, which is what makes
/// checkpointed training runs bit-identical to uninterrupted ones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RngState {
    /// xoshiro256++ state words.
    pub s: [u64; 4],
    /// Pending second Box–Muller sample, if any.
    pub spare: Option<f32>,
}

/// One step of SplitMix64; used only to expand the 64-bit seed into the
/// 256-bit xoshiro state, as recommended by the xoshiro authors.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates an RNG from a 64-bit seed. Equal seeds give equal streams.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 output is equidistributed, so the state is all-zero
        // with probability 2^-256 — i.e. never in practice — but guard
        // anyway to keep the generator's invariant unconditional.
        let mut s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        if s == [0; 4] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Self { s, spare: None }
    }

    /// Captures the generator's full state for checkpointing.
    pub fn state(&self) -> RngState {
        RngState {
            s: self.s,
            spare: self.spare,
        }
    }

    /// Rebuilds a generator from a captured [`RngState`], continuing the
    /// stream exactly where [`Rng::state`] observed it.
    ///
    /// An all-zero state word array (impossible to produce via seeding, but
    /// representable in a corrupt checkpoint) is nudged to keep the
    /// generator's never-all-zero invariant.
    pub fn from_state(state: RngState) -> Self {
        let mut s = state.s;
        if s == [0; 4] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Self {
            s,
            spare: state.spare,
        }
    }

    /// Next raw 64-bit output of xoshiro256++.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        // Top 24 bits -> all representable multiples of 2^-24 in [0, 1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below(0)");
        // Lemire's multiply-shift: unbiased enough for shuffles/sampling
        // (bias < 2^-64 relative), branch-free, and deterministic.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * (u1 as f64).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2 as f64;
        let z0 = (r * theta.cos()) as f32;
        let z1 = (r * theta.sin()) as f32;
        self.spare = Some(z1);
        z0
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256++ with state {1, 2, 3, 4} produces this sequence
        // (first outputs of the reference C implementation).
        let mut rng = Rng::seed_from(0);
        rng.s = [1, 2, 3, 4];
        rng.spare = None;
        let expect: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn state_round_trip_resumes_stream_exactly() {
        let mut a = Rng::seed_from(42);
        // Burn an odd number of normal() calls so a spare is cached.
        for _ in 0..7 {
            a.normal();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Mixed-use streams (normal consumes the spare first) also agree.
        let mut a = Rng::seed_from(43);
        a.normal();
        let mut b = Rng::from_state(a.state());
        for _ in 0..16 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.below(13), b.below(13));
        }
    }

    #[test]
    fn from_state_guards_all_zero_words() {
        let mut rng = Rng::from_state(RngState {
            s: [0; 4],
            spare: None,
        });
        // Degenerate state must still generate (xoshiro with all-zero state
        // would be stuck at 0 forever).
        let outs: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(outs.iter().any(|&o| o != 0));
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::seed_from(11);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(3);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::seed_from(9);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut rng = Rng::seed_from(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen {seen:?}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements an identity shuffle is astronomically unlikely.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}

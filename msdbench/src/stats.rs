//! The benchmark's statistics: nearest-rank percentiles over latencies in
//! which a failed op counts as infinitely slow, the choice of a run's
//! fastest chunks (time slices, episodes, set-ups), throughput and latency
//! over them, and the adjacent-depth subtraction behind per-layer self
//! times. Every gated number the benchmark prints goes through here.
//!
//! Why the fastest chunks: on a shared host other guests slow a run down
//! for stretches of seconds, through hypervisor steal and through
//! contention that steal does not count. On a 2-vCPU KVM guest identical
//! runs differed by up to half their throughput, and the stretches
//! neither steal nor any other counter the guest can read gave away.
//! Interference only ever adds time, so a run's fastest chunks are the
//! part nearest the program's own speed, and the part that holds still
//! between runs; a change to the program moves every chunk, and the
//! fastest with them.

/// Nearest-rank percentile of ascending `sorted`: the value at 1-based rank
/// `ceil(p / 100 × n)`. `p` is in (0, 100]. Returns NaN for no samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (nearest rank, so always one of the values).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0)
}

/// The gated figures are taken over the fastest `1 / FAST_PART` of a
/// run's chunks: its fastest fifth. A run whose every chunk was slowed
/// still reads slow.
pub const FAST_PART: usize = 5;

/// Indices of the fastest `1 / FAST_PART` of chunks, rounded up (none of
/// none), given the time each took per unit of work (`cost`: lower is
/// faster, `+inf` for a chunk that finished nothing). Ties keep run order.
pub fn fastest(cost: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cost.len()).collect();
    order.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]));
    order.truncate(cost.len().div_ceil(FAST_PART));
    order
}

/// Mean of `values` over the chunks [`fastest`] picks by `cost`; NaN for no
/// chunks.
pub fn fast_mean(values: &[f64], cost: &[f64]) -> f64 {
    let picked = fastest(cost);
    picked.iter().map(|&i| values[i]).sum::<f64>() / picked.len() as f64
}

/// Per-op latencies of one measured phase. A failed, wrong or refused op
/// is recorded as `+inf`, so it lands beyond every percentile it can reach
/// instead of vanishing from the sample.
#[derive(Default)]
pub struct Latencies {
    values: Vec<f64>,
}

/// An empty vector whose room for `n` values is already written once, so
/// filling it later adds nothing to the resident set: the benchmark's own
/// bookkeeping then costs a constant in `peak_rss_mb`, whatever the number
/// of ops a run fits.
pub fn reserved(n: usize) -> Vec<f64> {
    // Not zeros: a zeroed allocation may map pages without touching them.
    let mut v = Vec::with_capacity(n);
    v.resize(n, 1.0);
    v.clear();
    v
}

impl Latencies {
    /// An empty record with room for `n` ops, reserved as by [`reserved`].
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: reserved(n),
        }
    }

    /// Records an op that succeeded after `us` microseconds.
    pub fn ok(&mut self, us: f64) {
        self.values.push(us);
    }

    /// Records an op that failed.
    pub fn failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// The recorded µs in recording order, failures as `+inf`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Folds another record into this one.
    pub fn extend(&mut self, other: Latencies) {
        self.values.extend(other.values);
    }

    /// The ascending sample, failures last.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Length of the slices a closed loop's measured phase is cut into: short
/// against the seconds-long stretches the host slows a run down for, long
/// enough that a slice's rate counts hundreds of completions.
pub const SLICE_S: f64 = 0.2;

/// A closed loop's gated figures, taken over the fastest slices of its
/// measured phase.
pub struct FastLoad {
    /// Mean completion rate of the fastest slices, per s.
    pub rate: f64,
    /// Median completion rate of all slices, per s: how much the host
    /// slowed the rest of the run down. Not gated.
    pub median_rate: f64,
    /// Ascending µs of the ops that began and ended in the fastest slices.
    pub sorted_us: Vec<f64>,
    pub slices_used: usize,
    pub slices: usize,
}

/// Figures of a closed loop whose measured phase of `phase_s` seconds is
/// cut into equal slices, as many as fit `slice_s` long (at least one).
/// Op `i` started at `start_s[i]`, ended at `end_s[i]` (seconds from the
/// phase's start) and took `us[i]` (`+inf` for a failed op). An op counts
/// in the rate of the slice it ended in (none, if it ended after the
/// phase), and in the latencies when it began and ended in slices that
/// [`fastest`] picks by time per completion.
pub fn fast_load(
    slice_s: f64,
    phase_s: f64,
    start_s: &[f64],
    end_s: &[f64],
    us: &[f64],
) -> FastLoad {
    let slices = ((phase_s / slice_s) as usize).max(1);
    let len = phase_s / slices as f64;
    // Slice `slices` collects whatever ended after the phase.
    let slice_of = |t: f64| ((t / len) as usize).min(slices);
    let mut done = vec![0usize; slices + 1];
    for &t1 in end_s {
        done[slice_of(t1)] += 1;
    }
    let rates: Vec<f64> = done[..slices].iter().map(|&d| d as f64 / len).collect();
    let cost: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
    let picked = fastest(&cost);
    let mut fast = vec![false; slices + 1];
    for &k in &picked {
        fast[k] = true;
    }
    let mut lat: Vec<f64> = start_s
        .iter()
        .zip(end_s)
        .zip(us)
        .filter(|((&t0, &t1), _)| fast[slice_of(t0)] && fast[slice_of(t1)])
        .map(|(_, &us)| us)
        .collect();
    lat.sort_by(f64::total_cmp);
    FastLoad {
        rate: fast_mean(&rates, &cost),
        median_rate: median(&rates),
        sorted_us: lat,
        slices_used: picked.len(),
        slices,
    }
}

impl FastLoad {
    /// What the gated figures were taken over, with the percentiles of
    /// every op (`all_sorted`, ascending) beside them, ungated.
    pub fn describe(&self, all_sorted: &[f64]) -> String {
        let at = |p| nearest_rank(all_sorted, p);
        format!(
            "gated figures over the fastest {} of {} slices ({} of {} ops); median slice \
             {:.1}/s; every op: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us",
            self.slices_used,
            self.slices,
            self.sorted_us.len(),
            all_sorted.len(),
            self.median_rate,
            at(50.0),
            at(90.0),
            at(99.0),
            at(100.0)
        )
    }
}

/// Self time of each depth of a layer peel. `depth_us[i]` is the median
/// latency when entering at depth `i` (0 = outermost); everything below
/// depth `i` is included in it. Self time of depth `i` is its median minus
/// the next deeper one; the innermost depth is all self time.
pub fn self_times(depth_us: &[f64]) -> Vec<f64> {
    depth_us
        .iter()
        .enumerate()
        .map(|(i, &outer)| outer - depth_us.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_known_answers() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 99.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        // Rank ceil(0.5 × 3) = 2 and ceil(0.9 × 3) = 3.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 90.0), 3.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn failed_ops_count_as_infinite_latency() {
        let mut l = Latencies::default();
        for us in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0] {
            l.ok(us);
        }
        l.failed();
        l.failed();
        let s = l.sorted();
        assert_eq!(s.len(), 10);
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        // Two of ten failed: p90 is the first failure, not the slowest
        // success.
        assert_eq!(nearest_rank(&s, 90.0), f64::INFINITY);
        // Half failed: the median itself is a failure.
        let mut half = Latencies::default();
        half.ok(1.0);
        half.failed();
        assert_eq!(nearest_rank(&half.sorted(), 50.0), 1.0);
        half.failed();
        assert_eq!(nearest_rank(&half.sorted(), 50.0), f64::INFINITY);
    }

    #[test]
    fn fastest_known_answers() {
        // A fifth of five: the single cheapest.
        assert_eq!(fastest(&[5.0, 1.0, 4.0, 2.0, 3.0]), vec![1]);
        // A fifth of eleven rounds up to three.
        let v: Vec<f64> = (0..11).map(|i| f64::from(10 - i)).collect();
        assert_eq!(fastest(&v), vec![10, 9, 8]);
        // Ties keep run order; a chunk that finished nothing comes last.
        assert_eq!(
            fastest(&[f64::INFINITY, 2.0, 1.0, 1.0, 3.0, 1.0, 4.0, 5.0, 6.0, 7.0]),
            vec![2, 3]
        );
        assert_eq!(fastest(&[5.0]), vec![0]);
        assert_eq!(fastest(&[1.0; 150]).len(), 30);
        assert!(fastest(&[]).is_empty());
        // Values follow their own chunk's cost.
        assert_eq!(
            fast_mean(&[10.0, 20.0, 30.0, 40.0, 50.0], &[9.0, 1.0, 9.0, 9.0, 9.0]),
            20.0
        );
        assert!(fast_mean(&[], &[]).is_nan());
    }

    /// Column `c` of `(start, end, us)` ops.
    fn col(ops: &[(f64, f64, f64)], c: usize) -> Vec<f64> {
        ops.iter().map(|o| [o.0, o.1, o.2][c]).collect()
    }

    /// A closed loop over ten 1 s slices: `per_slice[k]` ops of 100 µs,
    /// evenly spread through slice `k`.
    fn loop_ops(per_slice: &[usize]) -> Vec<(f64, f64, f64)> {
        let mut ops = Vec::new();
        for (k, &n) in per_slice.iter().enumerate() {
            for i in 0..n {
                let t = k as f64 + i as f64 / n as f64;
                ops.push((t, t + 1e-4, 100.0));
            }
        }
        ops
    }

    #[test]
    fn fast_rate_ignores_stalled_slices() {
        let rate = |per_slice: &[usize]| {
            let ops = loop_ops(per_slice);
            fast_load(1.0, 10.0, &col(&ops, 0), &col(&ops, 1), &col(&ops, 2)).rate
        };
        assert_eq!(rate(&[100; 10]), 100.0);
        // One slice stalls to nothing: the rate does not move.
        assert_eq!(
            rate(&[100, 100, 100, 100, 0, 100, 100, 100, 100, 100]),
            100.0
        );
        // The host halves the speed of all but two slices: still the
        // program's own rate.
        assert_eq!(rate(&[50, 100, 50, 50, 50, 50, 50, 100, 50, 50]), 100.0);
        // A run slowed throughout reads slow.
        assert_eq!(rate(&[50; 10]), 50.0);
        // The program itself doubles its speed: every slice, and the rate,
        // moves.
        assert_eq!(
            rate(&[200, 200, 100, 200, 200, 200, 200, 200, 200, 200]),
            200.0
        );
    }

    #[test]
    fn fast_load_known_answers() {
        // Ten 1 s slices; slices 3 and 7 ran twice as fast as the rest.
        let mut per_slice = [10; 10];
        per_slice[3] = 20;
        per_slice[7] = 20;
        let mut ops = loop_ops(&per_slice);
        // A slow op in a slow slice, an op spanning slices 3 and 4, a
        // failure in fast slice 7, and an op ending after the phase.
        ops.push((5.5, 5.6, 90000.0));
        ops.push((3.99, 4.01, 20000.0));
        ops.push((7.5, 7.6, f64::INFINITY));
        ops.push((9.99, 10.2, 210000.0));
        let l = fast_load(1.0, 10.0, &col(&ops, 0), &col(&ops, 1), &col(&ops, 2));
        assert_eq!((l.slices_used, l.slices), (2, 10));
        // Slice 7 finished 21 ops (the failure included), slice 3 twenty.
        assert_eq!(l.rate, 20.5);
        assert_eq!(l.median_rate, 10.0);
        // The fast slices' ops and nothing else; the failure stays in, as
        // +inf.
        assert_eq!(l.sorted_us.len(), 41);
        assert_eq!(nearest_rank(&l.sorted_us, 90.0), 100.0);
        assert_eq!(nearest_rank(&l.sorted_us, 100.0), f64::INFINITY);
        // 2.5 s cut where 1 s slices were asked for: two slices of 1.25 s.
        let l = fast_load(
            1.0,
            2.5,
            &[0.1, 1.3, 1.4],
            &[0.2, 1.35, 1.5],
            &[1.0, 2.0, 3.0],
        );
        assert_eq!((l.slices, l.rate, l.sorted_us), (2, 1.6, vec![2.0, 3.0]));
    }

    #[test]
    fn self_times_subtract_adjacent_depths() {
        // HTTP 400 ⊃ registry 310 ⊃ serve 305 ⊃ plan 5.
        let s = self_times(&[400.0, 310.0, 305.0, 5.0]);
        assert_eq!(s, vec![90.0, 5.0, 300.0, 5.0]);
        // The self times add back up to the outermost median.
        assert_eq!(s.iter().sum::<f64>(), 400.0);
        assert_eq!(self_times(&[7.0]), vec![7.0]);
        assert!(self_times(&[]).is_empty());
    }
}

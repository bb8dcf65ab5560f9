//! Always-on serving counters.
//!
//! Every request that enters the runtime is accounted for exactly once in
//! the terminal counters (`completed + failed + rejected + expired ==
//! submitted` after a drained shutdown), so a lost response is directly
//! observable as a counter imbalance rather than a silent hang.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Internal live counters shared by the intake and the workers.
///
/// Counters are plain relaxed atomics: they order nothing, they only count.
/// Latencies are appended under a mutex; the hot path holds it for one push.
#[derive(Default)]
pub(crate) struct StatsInner {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    plan_batches: AtomicU64,
    latencies_us: Mutex<Vec<u64>>,
}

impl StatsInner {
    pub(crate) fn note_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched.fetch_add(size as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_done(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latencies_us
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(latency_us);
    }

    pub(crate) fn note_plan_batch(&self) {
        self.plan_batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_failed(&self, n: usize) {
        self.failed.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Admitted-but-unanswered requests, from the relaxed counters.
    /// Saturating: independent relaxed loads can transiently observe a
    /// terminal counter ahead of `submitted`.
    pub(crate) fn in_flight(&self) -> u64 {
        let submitted = self.submitted.load(Ordering::Relaxed);
        let done = self.rejected.load(Ordering::Relaxed)
            + self.completed.load(Ordering::Relaxed)
            + self.failed.load(Ordering::Relaxed)
            + self.expired.load(Ordering::Relaxed);
        submitted.saturating_sub(done)
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let mut lat = self
            .latencies_us
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        lat.sort_unstable();
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched.load(Ordering::Relaxed);
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            batches,
            plan_batches: self.plan_batches.load(Ordering::Relaxed),
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            p50_us: percentile(&lat, 50),
            p95_us: percentile(&lat, 95),
            p99_us: percentile(&lat, 99),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
///
/// `pct` is the percentile in whole percent (`50` = median). The rank is
/// the nearest-rank definition `⌈pct·n/100⌉`, computed in integer
/// arithmetic: the old floating-point form `(q * n).ceil()` was off-by-one
/// whenever the product landed just above an integer boundary (`0.55 * 20`
/// is `11.000000000000002` in f64, so its ceiling claimed rank 12 where
/// nearest-rank says 11). Integers make every boundary exact, including the
/// small-sample cases (`n ∈ {1, 2}`) where each misrank is visible.
pub fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len() as u64).div_ceil(100);
    let rank = rank.clamp(1, sorted.len() as u64) as usize;
    sorted[rank - 1]
}

/// A point-in-time snapshot of the runtime's counters.
///
/// Request latency is measured from admission into the queue to the moment
/// the response is handed back, so it includes batching wait and queueing
/// delay, not just model evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeStats {
    /// Submission attempts, admitted or rejected. After a drained shutdown
    /// `completed + failed + rejected + expired == submitted`: every
    /// attempt lands in exactly one terminal column, so a lost request
    /// shows up as an imbalance. See [`ServeStats::ledger_balanced`].
    pub submitted: u64,
    /// Requests refused at intake because the queue was full.
    pub rejected: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests answered with [`crate::ServeError::Internal`].
    pub failed: u64,
    /// Requests shed unevaluated because their deadline passed
    /// ([`crate::ServeError::DeadlineExceeded`]).
    pub expired: u64,
    /// Micro-batches collected by workers.
    pub batches: u64,
    /// Micro-batches evaluated through a compiled inference plan (the rest
    /// ran the tape fallback; zero when plans are disabled).
    pub plan_batches: u64,
    /// Mean requests per collected batch.
    pub mean_batch: f64,
    /// Median end-to-end request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile end-to-end request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile end-to-end request latency, microseconds.
    pub p99_us: u64,
}

impl ServeStats {
    /// Whether every submitted request has reached exactly one terminal
    /// column — the runtime's ledger invariant after a drained shutdown.
    /// Mid-run it is simply "nothing in flight".
    pub fn ledger_balanced(&self) -> bool {
        self.completed + self.failed + self.rejected + self.expired == self.submitted
    }

    /// Renders the snapshot as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"submitted\":{},\"rejected\":{},\"completed\":{},\"failed\":{},\
             \"expired\":{},\"batches\":{},\"plan_batches\":{},\"mean_batch\":{:.3},\
             \"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            self.submitted,
            self.rejected,
            self.completed,
            self.failed,
            self.expired,
            self.batches,
            self.plan_batches,
            self.mean_batch,
            self.p50_us,
            self.p95_us,
            self.p99_us
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&lat, 50), 50);
        assert_eq!(percentile(&lat, 95), 95);
        assert_eq!(percentile(&lat, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn percentiles_known_answers_small_and_large_samples() {
        // Known nearest-rank answers for n ∈ {1, 2, 3, 4, 100}. rank is
        // ⌈pct·n/100⌉ (1-indexed) — exact, no float boundary drift.
        // n = 1: every percentile is the sole element.
        for pct in [1, 50, 95, 99, 100] {
            assert_eq!(percentile(&[7], pct), 7, "n=1 p{pct}");
        }
        // n = 2: p50 → rank ⌈1.0⌉ = 1; p95 → ⌈1.9⌉ = 2; p99 → ⌈1.98⌉ = 2.
        assert_eq!(percentile(&[10, 20], 50), 10);
        assert_eq!(percentile(&[10, 20], 95), 20);
        assert_eq!(percentile(&[10, 20], 99), 20);
        // n = 3: p50 → ⌈1.5⌉ = 2; p95 → ⌈2.85⌉ = 3; p99 → ⌈2.97⌉ = 3.
        assert_eq!(percentile(&[10, 20, 30], 50), 20);
        assert_eq!(percentile(&[10, 20, 30], 95), 30);
        assert_eq!(percentile(&[10, 20, 30], 99), 30);
        // n = 4: p50 → ⌈2.0⌉ = 2 (exact boundary); p95 → ⌈3.8⌉ = 4.
        assert_eq!(percentile(&[10, 20, 30, 40], 50), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 95), 40);
        assert_eq!(percentile(&[10, 20, 30, 40], 99), 40);
        assert_eq!(percentile(&[10, 20, 30, 40], 25), 10);
        assert_eq!(percentile(&[10, 20, 30, 40], 100), 40);
        // n = 100 boundary cases that trip float ceil: p55·100 = 55 exactly.
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&lat, 55), 55);
        assert_eq!(percentile(&lat, 1), 1);
        assert_eq!(percentile(&lat, 100), 100);
        // n = 20: 0.55 * 20 = 11.000000000000002 in f64 → old code said 12.
        let lat20: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&lat20, 55), 11);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let inner = StatsInner::default();
        // 6 attempts: 1 rejected at intake, 3 completed, 1 failed,
        // 1 expired — a balanced ledger.
        for _ in 0..6 {
            inner.note_submit();
        }
        inner.note_reject();
        inner.note_batch(3);
        inner.note_done(10);
        inner.note_done(20);
        inner.note_done(30);
        inner.note_failed(1);
        inner.note_expired();
        let s = inner.snapshot();
        assert_eq!(s.submitted, 6);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 3);
        assert_eq!(s.failed, 1);
        assert_eq!(s.expired, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.plan_batches, 0);
        assert!(s.ledger_balanced(), "{s:?}");
        assert_eq!(inner.in_flight(), 0);
        assert!((s.mean_batch - 3.0).abs() < 1e-12);
        assert_eq!(s.p50_us, 20);
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"completed\":3"), "{json}");
        assert!(json.contains("\"expired\":1"), "{json}");
    }

    #[test]
    fn in_flight_tracks_unanswered_submissions() {
        let inner = StatsInner::default();
        inner.note_submit();
        inner.note_submit();
        assert_eq!(inner.in_flight(), 2);
        inner.note_done(5);
        assert_eq!(inner.in_flight(), 1);
        inner.note_expired();
        assert_eq!(inner.in_flight(), 0);
    }
}

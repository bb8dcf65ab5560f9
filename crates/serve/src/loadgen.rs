//! Seeded open-loop load generation and throughput reporting.
//!
//! The generator models a Poisson arrival process: inter-arrival gaps are
//! drawn i.i.d. exponential from the repo's deterministic xoshiro RNG, so a
//! given `(seed, rate)` pair produces the *same* arrival schedule on every
//! run and machine — benchmark numbers differ only through the machine, not
//! the workload. "Open loop" means arrivals do not wait for responses;
//! under overload the admission queue fills and rejections are part of the
//! measured behaviour rather than hidden by caller backoff.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use msd_nn::{Model, ParamStore};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

use crate::{Pending, ServeError, Server};

/// One load-generation scenario.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Total requests to submit.
    pub requests: usize,
    /// Mean arrival rate, requests per second. Zero disables pacing: every
    /// request is submitted as fast as the intake accepts the previous one.
    pub rate_rps: f64,
    /// RNG seed for the arrival schedule.
    pub seed: u64,
    /// Longest run of overdue arrivals submitted back-to-back before the
    /// schedule re-anchors to the present (0 = unlimited, the legacy
    /// behaviour). An open-loop driver that falls behind — say a slow batch
    /// stalled every response — would otherwise fire *all* overdue arrivals
    /// in one burst, measuring a self-inflicted queueing spike as tail
    /// latency. Capping the burst keeps the drive honest; every re-anchor
    /// is counted and the scheduled-vs-actual skew is reported.
    pub max_burst: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            requests: 0,
            rate_rps: 0.0,
            seed: 0,
            max_burst: 0,
        }
    }
}

/// The deterministic arrival schedule for `spec`, as offsets from the start
/// of the run (non-decreasing; empty pacing yields all-zero offsets).
pub fn arrival_offsets(spec: &LoadSpec) -> Vec<Duration> {
    let mut rng = Rng::seed_from(spec.seed);
    let mut t = 0.0f64;
    (0..spec.requests)
        .map(|_| {
            if spec.rate_rps > 0.0 {
                // uniform() is [0, 1); flip to (0, 1] so ln never sees 0.
                let u = 1.0 - rng.uniform() as f64;
                t += -u.ln() / spec.rate_rps;
            }
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Paces an open-loop schedule against the wall clock, capping catch-up
/// bursts and recording scheduled-vs-actual submission skew.
///
/// Shared by the in-process driver ([`run_open_loop`]) and the gateway's
/// multi-connection TCP driver, so both report the same honesty metrics.
pub struct Pacer {
    anchor: Instant,
    anchor_offset: Duration,
    max_burst: usize,
    burst: usize,
    /// Arrivals submitted, paced or late.
    pub submitted: u64,
    /// Σ lateness (actual − scheduled) over late arrivals, microseconds.
    pub skew_total_us: u64,
    /// Worst single lateness, microseconds.
    pub skew_max_us: u64,
    /// Times the schedule re-anchored after an over-long catch-up burst.
    pub reanchors: u64,
}

impl Pacer {
    /// A pacer starting its schedule now. `max_burst` of 0 never re-anchors.
    pub fn start(max_burst: usize) -> Self {
        Pacer {
            anchor: Instant::now(),
            anchor_offset: Duration::ZERO,
            max_burst,
            burst: 0,
            submitted: 0,
            skew_total_us: 0,
            skew_max_us: 0,
            reanchors: 0,
        }
    }

    /// Blocks until `offset` (relative to the schedule origin) is due, then
    /// returns. Overdue arrivals return immediately; after `max_burst`
    /// consecutive overdue arrivals the schedule re-anchors to the present,
    /// so a long stall is absorbed as a recorded re-anchor instead of a
    /// burst of every overdue arrival at once.
    pub fn pace(&mut self, offset: Duration) {
        let target = self.anchor + offset.saturating_sub(self.anchor_offset);
        let now = Instant::now();
        if let Some(gap) = target.checked_duration_since(now) {
            std::thread::sleep(gap);
            self.burst = 0;
        } else {
            let late_us = now.duration_since(target).as_micros() as u64;
            self.skew_total_us += late_us;
            self.skew_max_us = self.skew_max_us.max(late_us);
            self.burst += 1;
            if self.max_burst > 0 && self.burst > self.max_burst {
                self.reanchors += 1;
                self.anchor = now;
                self.anchor_offset = offset;
                self.burst = 0;
            }
        }
        self.submitted += 1;
    }

    /// Mean lateness across every paced arrival, microseconds.
    pub fn skew_mean_us(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.skew_total_us as f64 / self.submitted as f64
        }
    }
}

/// What happened to each submitted request, in submission order.
pub struct RunOutcome {
    /// Per-request result: the prediction, or the typed reason it failed.
    pub responses: Vec<Result<Tensor, ServeError>>,
    /// Wall-clock from first submission to last response, seconds.
    pub wall_s: f64,
    /// Completed responses per second of wall-clock.
    pub throughput_rps: f64,
    /// Mean scheduled-vs-actual submission lateness, microseconds.
    pub skew_mean_us: f64,
    /// Worst scheduled-vs-actual submission lateness, microseconds.
    pub skew_max_us: u64,
    /// Times the arrival schedule re-anchored after a capped burst.
    pub reanchors: u64,
}

/// Drives `inputs` through `server` on the arrival schedule of `spec`
/// (`spec.requests` is clamped to `inputs.len()`), then waits for every
/// in-flight response.
///
/// Rejected submissions are recorded as [`ServeError::Overloaded`] results,
/// not retried — shed load is a measured outcome of an open-loop run.
pub fn run_open_loop(server: &Server, inputs: &[Tensor], spec: &LoadSpec) -> RunOutcome {
    let spec = LoadSpec {
        requests: spec.requests.min(inputs.len()),
        ..spec.clone()
    };
    let offsets = arrival_offsets(&spec);
    let start = Instant::now();
    let mut pacer = Pacer::start(if spec.rate_rps > 0.0 {
        spec.max_burst
    } else {
        0
    });
    let mut pending: Vec<(usize, Pending)> = Vec::with_capacity(spec.requests);
    let mut responses: Vec<Option<Result<Tensor, ServeError>>> =
        (0..spec.requests).map(|_| None).collect();
    for (i, offset) in offsets.iter().enumerate() {
        if spec.rate_rps > 0.0 {
            pacer.pace(*offset);
        }
        match server.submit(inputs[i].clone()) {
            Ok(p) => pending.push((i, p)),
            Err(e) => responses[i] = Some(Err(e)),
        }
    }
    for (i, p) in pending {
        responses[i] = Some(p.wait());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let responses: Vec<Result<Tensor, ServeError>> = responses
        .into_iter()
        .map(|r| r.expect("every request is answered or rejected"))
        .collect();
    let completed = responses.iter().filter(|r| r.is_ok()).count();
    RunOutcome {
        throughput_rps: completed as f64 / wall_s.max(1e-9),
        wall_s,
        responses,
        skew_mean_us: pacer.skew_mean_us(),
        skew_max_us: pacer.skew_max_us,
        reanchors: pacer.reanchors,
    }
}

/// Per-sample sequential baseline: one [`Model::predict`] call per input on
/// the calling thread — exactly the loop a caller writes without the
/// runtime — timed the same way as the served run. Returns the predictions
/// (the bit-identity reference) and the rate.
pub fn sequential_baseline(
    model: &(impl Model + ?Sized),
    store: &ParamStore,
    inputs: &[Tensor],
) -> (Vec<Tensor>, f64) {
    let start = Instant::now();
    let outputs: Vec<Tensor> = inputs.iter().map(|x| model.predict(store, x)).collect();
    let rps = outputs.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (outputs, rps)
}

/// One benchmark row, serialisable as a line of `BENCH_serve.json`.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Model display name.
    pub model: String,
    /// Requests driven through both paths.
    pub requests: usize,
    /// Worker threads in the served run.
    pub workers: usize,
    /// Micro-batch cap in the served run.
    pub max_batch: usize,
    /// Sequential per-sample throughput, requests/second.
    pub sequential_rps: f64,
    /// Served (batched) throughput, requests/second.
    pub served_rps: f64,
    /// Mean requests per dispatched micro-batch.
    pub mean_batch: f64,
    /// Median served request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile served request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile served request latency, microseconds.
    pub p99_us: u64,
    /// Requests shed at admission during the served run.
    pub rejected: u64,
    /// Mean scheduled-vs-actual submission lateness, microseconds.
    pub skew_mean_us: f64,
    /// Worst scheduled-vs-actual submission lateness, microseconds.
    pub skew_max_us: u64,
    /// Times the open-loop schedule re-anchored after a capped burst.
    pub reanchors: u64,
}

impl BenchReport {
    /// Served throughput over sequential throughput.
    pub fn speedup(&self) -> f64 {
        self.served_rps / self.sequential_rps.max(1e-9)
    }

    /// Renders the report as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"model\":\"{}\",\"requests\":{},\"workers\":{},\"max_batch\":{},\
             \"sequential_rps\":{:.2},\"served_rps\":{:.2},\"speedup\":{:.3},\
             \"mean_batch\":{:.3},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"rejected\":{},\
             \"skew_mean_us\":{:.1},\"skew_max_us\":{},\"reanchors\":{}}}",
            crate::json_escape(&self.model),
            self.requests,
            self.workers,
            self.max_batch,
            self.sequential_rps,
            self.served_rps,
            self.speedup(),
            self.mean_batch,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.rejected,
            self.skew_mean_us,
            self.skew_max_us,
            self.reanchors
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_and_monotonic() {
        let spec = LoadSpec {
            requests: 64,
            rate_rps: 10_000.0,
            seed: 42,
            ..LoadSpec::default()
        };
        let a = arrival_offsets(&spec);
        let b = arrival_offsets(&spec);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| d.as_secs_f64().is_finite()));
        // Mean gap should land near 1/rate (loose 3x tolerance: 64 draws).
        let mean_gap = a.last().unwrap().as_secs_f64() / 64.0;
        assert!(
            mean_gap > 1e-5 / 3.0 && mean_gap < 1e-4 * 3.0,
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn unpaced_schedule_is_all_zero() {
        let spec = LoadSpec {
            requests: 5,
            rate_rps: 0.0,
            seed: 1,
            ..LoadSpec::default()
        };
        assert!(arrival_offsets(&spec).iter().all(|d| d.is_zero()));
    }

    #[test]
    fn bench_report_serialises_flat_json() {
        let r = BenchReport {
            model: "MSD-Mixer".into(),
            requests: 1000,
            workers: 4,
            max_batch: 32,
            sequential_rps: 100.0,
            served_rps: 400.0,
            mean_batch: 7.5,
            p50_us: 900,
            p95_us: 2100,
            p99_us: 3000,
            rejected: 3,
            skew_mean_us: 12.5,
            skew_max_us: 480,
            reanchors: 1,
        };
        assert!((r.speedup() - 4.0).abs() < 1e-9);
        let json = r.to_json();
        assert!(json.contains("\"speedup\":4.000"), "{json}");
        assert!(json.contains("\"skew_max_us\":480"), "{json}");
        assert!(json.contains("\"reanchors\":1"), "{json}");
        assert_eq!(json.matches('{').count(), 1, "{json}");

        // A name with a quote stays one well-formed string field.
        let quoted = BenchReport {
            model: "mix\"er".into(),
            ..r
        };
        let json = quoted.to_json();
        assert!(json.starts_with("{\"model\":\"mix\\\"er\","), "{json}");
    }

    #[test]
    fn pacer_caps_catchup_bursts_and_records_skew() {
        // A schedule entirely in the past: every arrival is overdue, so an
        // uncapped pacer would fire all of them back-to-back. With
        // max_burst = 4 the schedule must re-anchor at least once, and the
        // skew metrics must see the lateness.
        let mut capped = Pacer::start(4);
        for i in 0..20u64 {
            // Offsets far behind: schedule asked for i µs, we are already ms late.
            std::thread::sleep(Duration::from_micros(50));
            capped.pace(Duration::from_micros(i));
        }
        assert_eq!(capped.submitted, 20);
        assert!(capped.reanchors >= 1, "burst cap never re-anchored");
        assert!(capped.skew_max_us >= capped.skew_total_us / 20);

        // max_burst = 0 preserves the legacy behaviour: never re-anchor.
        let mut uncapped = Pacer::start(0);
        for i in 0..20u64 {
            std::thread::sleep(Duration::from_micros(50));
            uncapped.pace(Duration::from_micros(i));
        }
        assert_eq!(uncapped.reanchors, 0);
        assert!(uncapped.skew_mean_us() > 0.0);
    }
}

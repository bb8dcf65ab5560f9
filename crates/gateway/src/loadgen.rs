//! Multi-connection open-loop TCP load generation against a live gateway.
//!
//! This is the network-path sibling of [`msd_serve::loadgen`]: the same
//! seeded Poisson arrival schedule and the same [`msd_serve::loadgen::Pacer`]
//! honesty metrics (burst caps, scheduled-vs-actual skew), but driven over
//! real sockets through the gateway's HTTP edge instead of in-process
//! `Server::submit`. Requests are sharded round-robin across `connections`
//! keep-alive TCP connections, each paced against the *global* arrival
//! schedule, so concurrency comes from genuinely concurrent sockets rather
//! than pipelining tricks.
//!
//! The driver records every response verbatim — status, version/replica
//! headers, body bytes — so callers can byte-compare each prediction against
//! a sequential [`msd_nn::Model::predict`] reference for the version that
//! admitted it. A request with *no* response (torn connection) is `lost`;
//! the gateway's contract is that `lost` is zero at any concurrency.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use msd_serve::loadgen::{arrival_offsets, LoadSpec, Pacer};
use msd_serve::percentile;

use crate::http::{Client, ClientConfig, ClientResponse};

/// One request to fire at the gateway.
#[derive(Clone, Debug)]
pub struct TcpRequest {
    /// Model name (routes to `POST /v1/models/{model}/predict`).
    pub model: String,
    /// Routing key, sent as `X-Msd-Key`.
    pub key: String,
    /// Request body: an encoded [`crate::wire`] tensor frame.
    pub body: Vec<u8>,
}

/// Pacing, sharding, and the retry policy for one TCP run.
#[derive(Clone, Debug)]
pub struct TcpLoadSpec {
    /// Mean arrival rate across *all* connections, requests/second. Zero
    /// disables pacing (each connection fires as fast as it gets answers).
    pub rate_rps: f64,
    /// Concurrent keep-alive connections (≥ 1).
    pub connections: usize,
    /// Seed for the arrival schedule *and* the retry-jitter stream.
    pub seed: u64,
    /// Per-connection catch-up burst cap (see [`LoadSpec::max_burst`]).
    pub max_burst: usize,
    /// Extra attempts allowed per request beyond the first. `0` (default)
    /// reproduces the pre-retry driver exactly: one attempt, a transport
    /// failure is `lost`. With a budget, transport errors and retryable
    /// statuses (429/500/503/504) are retried under capped exponential
    /// backoff with seeded jitter.
    pub retry_budget: u32,
    /// First backoff step.
    pub backoff_base: Duration,
    /// Backoff ceiling; also caps an honored `Retry-After` so a server
    /// hint can slow the driver down but never park it for seconds.
    pub backoff_cap: Duration,
    /// When set, every request carries `X-Msd-Deadline-Ms: <this>`.
    pub deadline_ms: Option<u64>,
    /// Socket timeouts for every connection the driver opens.
    pub client: ClientConfig,
}

impl Default for TcpLoadSpec {
    fn default() -> Self {
        TcpLoadSpec {
            rate_rps: 0.0,
            connections: 1,
            seed: 1,
            max_burst: 8,
            retry_budget: 0,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
            deadline_ms: None,
            client: ClientConfig::default(),
        }
    }
}

/// SplitMix64 — the jitter stream's mixing function. Pure, so a seeded run
/// replays its exact backoff schedule.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pause before retry number `attempt` (1 = first retry) of request
/// `request`: capped exponential backoff `base · 2^(attempt-1)` scaled by a
/// seeded jitter factor in `[0.5, 1.0]`. Deterministic in
/// `(seed, request, attempt)` and never above `cap`.
pub fn next_backoff(
    seed: u64,
    request: u64,
    attempt: u32,
    base: Duration,
    cap: Duration,
) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    let unit = (splitmix64(seed ^ request.wrapping_mul(0x9e37_79b9) ^ attempt as u64) >> 11) as f64
        / (1u64 << 53) as f64;
    exp.min(cap).mul_f64(0.5 + 0.5 * unit)
}

/// What one request got back, verbatim.
#[derive(Clone, Debug)]
pub struct TcpResponse {
    /// HTTP status.
    pub status: u16,
    /// `X-Msd-Model-Version` header, when present (predict successes).
    pub version: Option<u32>,
    /// `X-Msd-Replica` header, when present.
    pub replica: Option<usize>,
    /// `X-Msd-Tier` header, when present (the serving precision tier).
    pub tier: Option<String>,
    /// Response body bytes, untouched.
    pub body: Vec<u8>,
    /// Request latency (write first byte → last body byte), microseconds.
    /// With retries this spans all attempts, backoff pauses included —
    /// it is what the end user of a retrying client experiences.
    pub latency_us: u64,
    /// Attempts this answer took (1 = no retries).
    pub attempts: u32,
}

/// A whole run, responses in request-index order.
pub struct TcpRunOutcome {
    /// Per-request response, `None` when the connection died before an
    /// answer arrived (a *lost* request — the gateway contract says never).
    pub responses: Vec<Option<TcpResponse>>,
    /// Wall-clock for the whole run, seconds.
    pub wall_s: f64,
    /// Pacer skew: mean lateness, microseconds (worst connection's mean).
    pub skew_mean_us: f64,
    /// Pacer skew: worst single lateness across connections, microseconds.
    pub skew_max_us: u64,
    /// Total schedule re-anchors across connections.
    pub reanchors: u64,
    /// Attempts fired across all requests (= requests when retries are
    /// off or never needed).
    pub attempts_total: u64,
    /// Attempts beyond each request's first.
    pub retries_total: u64,
}

impl TcpRunOutcome {
    /// Requests that never got any response.
    pub fn lost(&self) -> usize {
        self.responses.iter().filter(|r| r.is_none()).count()
    }

    /// Responses with the given status.
    pub fn count_status(&self, status: u16) -> usize {
        self.responses
            .iter()
            .flatten()
            .filter(|r| r.status == status)
            .count()
    }

    /// Sorted latencies of 200 responses, microseconds.
    pub fn ok_latencies_sorted(&self) -> Vec<u64> {
        let mut lat: Vec<u64> = self
            .responses
            .iter()
            .flatten()
            .filter(|r| r.status == 200)
            .map(|r| r.latency_us)
            .collect();
        lat.sort_unstable();
        lat
    }
}

/// Drives `requests` at `addr` on the seeded open-loop schedule.
///
/// Request `i` goes to connection `i % connections`; each connection paces
/// its share against the shared global schedule, so the aggregate arrival
/// process is the same one [`msd_serve::loadgen::run_open_loop`] would
/// produce in-process. Blocks until every connection finishes.
pub fn run_tcp_open_loop(addr: &str, requests: &[TcpRequest], spec: &TcpLoadSpec) -> TcpRunOutcome {
    let connections = spec.connections.max(1);
    let offsets = arrival_offsets(&LoadSpec {
        requests: requests.len(),
        rate_rps: spec.rate_rps,
        seed: spec.seed,
        max_burst: spec.max_burst,
    });
    let start = Instant::now();
    let mut results: Vec<Option<TcpResponse>> = vec![None; requests.len()];
    let mut skew_mean_us = 0.0f64;
    let mut skew_max_us = 0u64;
    let mut reanchors = 0u64;
    let mut attempts_total = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for c in 0..connections {
            let offsets = &offsets;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect_with(addr, spec.client).ok();
                let mut pacer = Pacer::start(if spec.rate_rps > 0.0 {
                    spec.max_burst
                } else {
                    0
                });
                let mut out: Vec<(usize, Option<TcpResponse>)> = Vec::new();
                let mut attempts_fired = 0u64;
                for i in (c..requests.len()).step_by(connections) {
                    if spec.rate_rps > 0.0 {
                        pacer.pace(offsets[i]);
                    }
                    let resp = drive_one(addr, &requests[i], i, spec, &mut client);
                    attempts_fired +=
                        resp.as_ref().map_or(1 + spec.retry_budget, |r| r.attempts) as u64;
                    out.push((i, resp));
                }
                (
                    out,
                    pacer.skew_mean_us(),
                    pacer.skew_max_us,
                    pacer.reanchors,
                    attempts_fired,
                )
            }));
        }
        for h in handles {
            let (out, mean, max, re, fired) = h.join().expect("loadgen connection thread panicked");
            for (i, resp) in out {
                results[i] = resp;
            }
            skew_mean_us = skew_mean_us.max(mean);
            skew_max_us = skew_max_us.max(max);
            reanchors += re;
            attempts_total += fired;
        }
    });
    TcpRunOutcome {
        retries_total: attempts_total.saturating_sub(requests.len() as u64),
        responses: results,
        wall_s: start.elapsed().as_secs_f64(),
        skew_mean_us,
        skew_max_us,
        reanchors,
        attempts_total,
    }
}

/// Whether a status is worth retrying: overload (429), worker panic (500),
/// shutdown (503), and deadline (504) are all transient under chaos or a
/// recovering fleet. 4xx protocol errors are not — the same bytes will
/// fail the same way forever.
fn retryable(status: u16) -> bool {
    matches!(status, 429 | 500 | 503 | 504)
}

/// Runs one request to completion under the spec's retry budget. Returns
/// `None` only when every allowed attempt died at the transport layer —
/// with a budget of 0 this is exactly the old single-shot driver.
fn drive_one(
    addr: &str,
    req: &TcpRequest,
    index: usize,
    spec: &TcpLoadSpec,
    client: &mut Option<Client>,
) -> Option<TcpResponse> {
    let path = format!("/v1/models/{}/predict", req.model);
    let deadline_header = spec.deadline_ms.map(|ms| ms.to_string());
    let sent = Instant::now();
    let max_attempts = 1 + spec.retry_budget;
    for attempt in 1..=max_attempts {
        // One reconnect attempt per try: a died connection must not strand
        // the rest of this shard.
        if client.is_none() {
            *client = Client::connect_with(addr, spec.client).ok();
        }
        let result: Option<ClientResponse> = client.as_mut().and_then(|cl| {
            let mut headers: Vec<(&str, &str)> = vec![
                ("X-Msd-Key", req.key.as_str()),
                ("Content-Type", crate::wire::CONTENT_TYPE),
            ];
            if let Some(ms) = deadline_header.as_deref() {
                headers.push(("X-Msd-Deadline-Ms", ms));
            }
            cl.request("POST", &path, &headers, &req.body).ok()
        });
        match result {
            Some(r) if retryable(r.status) && attempt < max_attempts => {
                // Honor the server's Retry-After hint, capped by the
                // backoff ceiling (the hint is in whole seconds; eating it
                // raw would park a 500-request run for minutes).
                let pause = r
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(|secs| Duration::from_secs(secs).min(spec.backoff_cap));
                std::thread::sleep(pause.unwrap_or_else(|| {
                    next_backoff(
                        spec.seed,
                        index as u64,
                        attempt,
                        spec.backoff_base,
                        spec.backoff_cap,
                    )
                }));
            }
            Some(r) => {
                return Some(TcpResponse {
                    status: r.status,
                    version: r.header("x-msd-model-version").and_then(|v| v.parse().ok()),
                    replica: r.header("x-msd-replica").and_then(|v| v.parse().ok()),
                    tier: r.header("x-msd-tier").map(str::to_string),
                    body: r.body,
                    latency_us: sent.elapsed().as_micros() as u64,
                    attempts: attempt,
                });
            }
            None => {
                *client = None; // force reconnect on the next try
                if attempt < max_attempts {
                    std::thread::sleep(next_backoff(
                        spec.seed,
                        index as u64,
                        attempt,
                        spec.backoff_base,
                        spec.backoff_cap,
                    ));
                }
            }
        }
    }
    None
}

/// One sustained-RPS-vs-latency row of `target/BENCH_gateway.json`.
#[derive(Clone, Debug)]
pub struct GatewayBenchRow {
    /// Scenario label (model mix).
    pub scenario: String,
    /// Requests fired.
    pub requests: usize,
    /// Concurrent connections.
    pub connections: usize,
    /// Offered rate, requests/second (0 = unpaced).
    pub offered_rps: f64,
    /// Achieved 200-rate, responses/second of wall clock.
    pub achieved_rps: f64,
    /// 200 responses.
    pub ok: usize,
    /// 429 responses (admission shed).
    pub rejected: usize,
    /// Non-200, non-429 responses.
    pub failed: usize,
    /// Requests with no response at all. The contract: always 0.
    pub lost: usize,
    /// Median request latency over 200s, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Mean pacer lateness (worst connection), microseconds.
    pub skew_mean_us: f64,
    /// Worst single pacer lateness, microseconds.
    pub skew_max_us: u64,
    /// Total schedule re-anchors.
    pub reanchors: u64,
    /// Attempts fired (= `requests` when no retries happened).
    pub attempts: u64,
    /// Attempts beyond each request's first.
    pub retries: u64,
    /// Hedged (duplicate speculative) attempts. The driver never hedges
    /// today; the column exists so rows stay comparable if it ever does.
    pub hedges: u64,
    /// The `MSD_CHAOS` fault plan active during the run (empty = none), so
    /// a regression diff never compares a chaos row against a clean one.
    pub fault_plan: String,
}

impl GatewayBenchRow {
    /// Summarises `outcome` into a row; `fault_plan` is the `MSD_CHAOS` spec
    /// the target ran under (empty = none).
    pub fn from_outcome(
        scenario: &str,
        spec: &TcpLoadSpec,
        outcome: &TcpRunOutcome,
        fault_plan: &str,
    ) -> GatewayBenchRow {
        let ok = outcome.count_status(200);
        let rejected = outcome.count_status(429);
        let lost = outcome.lost();
        let failed = outcome.responses.len() - ok - rejected - lost;
        let lat = outcome.ok_latencies_sorted();
        GatewayBenchRow {
            scenario: scenario.to_string(),
            requests: outcome.responses.len(),
            connections: spec.connections,
            offered_rps: spec.rate_rps,
            achieved_rps: ok as f64 / outcome.wall_s.max(1e-9),
            ok,
            rejected,
            failed,
            lost,
            p50_us: percentile(&lat, 50),
            p95_us: percentile(&lat, 95),
            p99_us: percentile(&lat, 99),
            skew_mean_us: outcome.skew_mean_us,
            skew_max_us: outcome.skew_max_us,
            reanchors: outcome.reanchors,
            attempts: outcome.attempts_total,
            retries: outcome.retries_total,
            hedges: 0,
            fault_plan: fault_plan.to_string(),
        }
    }

    /// Renders the row as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(320);
        let _ = write!(
            s,
            "{{\"scenario\":\"{}\",\"requests\":{},\"connections\":{},\
             \"offered_rps\":{:.1},\"achieved_rps\":{:.2},\"ok\":{},\"rejected\":{},\
             \"failed\":{},\"lost\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
             \"skew_mean_us\":{:.1},\"skew_max_us\":{},\"reanchors\":{},\
             \"attempts\":{},\"retries\":{},\"hedges\":{},\"fault_plan\":\"{}\"}}",
            msd_serve::json_escape(&self.scenario),
            self.requests,
            self.connections,
            self.offered_rps,
            self.achieved_rps,
            self.ok,
            self.rejected,
            self.failed,
            self.lost,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.skew_mean_us,
            self.skew_max_us,
            self.reanchors,
            self.attempts,
            self.retries,
            self.hedges,
            msd_serve::json_escape(&self.fault_plan)
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_row_serialises_flat_json_and_counts_add_up() {
        let outcome = TcpRunOutcome {
            responses: vec![
                Some(TcpResponse {
                    status: 200,
                    version: Some(1),
                    replica: Some(0),
                    tier: Some("f32".to_string()),
                    body: vec![1, 2],
                    latency_us: 120,
                    attempts: 2,
                }),
                Some(TcpResponse {
                    status: 429,
                    version: None,
                    replica: None,
                    tier: None,
                    body: vec![],
                    latency_us: 15,
                    attempts: 1,
                }),
                None,
            ],
            wall_s: 0.5,
            skew_mean_us: 3.5,
            skew_max_us: 40,
            reanchors: 0,
            attempts_total: 4,
            retries_total: 1,
        };
        assert_eq!(outcome.lost(), 1);
        assert_eq!(outcome.count_status(200), 1);
        assert_eq!(outcome.ok_latencies_sorted(), vec![120]);
        let spec = TcpLoadSpec {
            rate_rps: 100.0,
            connections: 2,
            seed: 7,
            ..TcpLoadSpec::default()
        };
        let row = GatewayBenchRow::from_outcome("mix", &spec, &outcome, "");
        assert_eq!(row.ok + row.rejected + row.failed + row.lost, row.requests);
        assert_eq!(row.lost, 1);
        assert_eq!(row.attempts, 4);
        assert_eq!(row.retries, 1);
        let json = row.to_json();
        assert!(json.contains("\"lost\":1"), "{json}");
        assert!(json.contains("\"p50_us\":120"), "{json}");
        assert!(json.contains("\"attempts\":4"), "{json}");
        assert!(json.contains("\"fault_plan\":"), "{json}");
        assert_eq!(json.matches('{').count(), 1, "{json}");

        // A scenario name with a quote stays one well-formed string field.
        let quoted = GatewayBenchRow::from_outcome("m\"ix", &spec, &outcome, "").to_json();
        assert!(quoted.starts_with("{\"scenario\":\"m\\\"ix\","), "{quoted}");
    }

    #[test]
    fn backoff_is_seeded_capped_and_grows() {
        let base = Duration::from_millis(5);
        let cap = Duration::from_millis(200);
        // Deterministic: the same (seed, request, attempt) replays exactly.
        for attempt in 1..=8 {
            assert_eq!(
                next_backoff(42, 7, attempt, base, cap),
                next_backoff(42, 7, attempt, base, cap)
            );
        }
        // Bounded: never above the cap, never below half the (capped) step.
        for request in 0..50u64 {
            for attempt in 1..=10 {
                let d = next_backoff(9, request, attempt, base, cap);
                assert!(d <= cap, "{d:?} above cap");
                assert!(d >= base / 2, "{d:?} below base/2");
            }
        }
        // Jitter actually varies across requests.
        let spread: std::collections::BTreeSet<Duration> =
            (0..20).map(|r| next_backoff(1, r, 3, base, cap)).collect();
        assert!(spread.len() > 10, "jitter collapsed: {spread:?}");
    }
}

//! Per-replica health scoring: circuit breakers and the brownout policy.
//!
//! Every replica of a published [`crate::ReplicaSet`] carries a
//! [`ReplicaHealth`]: a consecutive-error breaker, a latency EWMA, and the
//! classic three-state machine (DESIGN.md §14):
//!
//! ```text
//!            error streak ≥ threshold, or EWMA > latency cap
//!   CLOSED ────────────────────────────────────────────────▶ OPEN
//!     ▲                                                       │
//!     │ half_open_successes consecutive                       │ cooldown
//!     │ probe successes                                       │ elapses
//!     │                          any error                    ▼
//!   HALF-OPEN ◀──────────────────────────────────────── (route again)
//!      │                                                      ▲
//!      └──────────────── error → OPEN ────────────────────────┘
//! ```
//!
//! While OPEN (cooldown pending) the router deterministically rehashes keys
//! away from the replica ([`crate::router::route_healthy`]); HALF-OPEN
//! rejoins routing so real traffic probes recovery. State only ever changes
//! on recorded outcomes and cooldown expiry — with zero errors the breaker
//! stays CLOSED forever and routing is byte-identical to the plain FNV
//! router, which is what keeps chaos-off behavior bit-exact.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker thresholds shared by every replica of a gateway.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive errors that trip the breaker OPEN. `0` disables the
    /// error breaker.
    pub consecutive_errors: u32,
    /// Latency EWMA (microseconds) above which the breaker trips OPEN.
    /// `0` (the default) disables the latency breaker.
    pub latency_ewma_us: u64,
    /// EWMA smoothing factor in `(0, 1]`; higher weighs recent requests
    /// more.
    pub ewma_alpha: f64,
    /// How long an OPEN breaker keeps its replica out of routing before
    /// probing recovery (HALF-OPEN).
    pub cooldown: Duration,
    /// Consecutive successful probes that close a HALF-OPEN breaker.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            consecutive_errors: 5,
            latency_ewma_us: 0,
            ewma_alpha: 0.2,
            cooldown: Duration::from_millis(250),
            half_open_successes: 3,
        }
    }
}

/// Early load-shedding thresholds. Both default to disabled, so a gateway
/// without an explicit brownout policy behaves exactly as before this
/// policy existed: requests ride the queue until `Overloaded` or their
/// deadline.
#[derive(Clone, Debug, Default)]
pub struct BrownoutConfig {
    /// Shed (429 + `Retry-After`) when the chosen replica already has this
    /// many requests in flight. `0` disables.
    pub max_in_flight: u64,
    /// Shed when the chosen replica's latency EWMA (microseconds) exceeds
    /// this. `0` disables. The EWMA is the gateway-side per-replica signal
    /// — a cheap stand-in for tail latency that costs no stats snapshot on
    /// the request path.
    pub max_ewma_us: u64,
}

/// The breaker's observable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: routed normally.
    Closed,
    /// Tripped: routed away from until the cooldown elapses.
    Open,
    /// Probing: routed normally; the next outcomes decide.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase tag for stats JSON.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

struct Core {
    state: BreakerState,
    opened_at: Option<Instant>,
    error_streak: u32,
    probe_successes: u32,
    ewma_us: f64,
    errors_total: u64,
    successes_total: u64,
}

/// One replica's live health record. All methods take a short mutex; the
/// predict path calls each at most once per request.
pub struct ReplicaHealth {
    cfg: BreakerConfig,
    core: Mutex<Core>,
}

impl ReplicaHealth {
    /// A healthy (CLOSED) record under `cfg`.
    pub fn new(cfg: BreakerConfig) -> ReplicaHealth {
        ReplicaHealth {
            cfg,
            core: Mutex::new(Core {
                state: BreakerState::Closed,
                opened_at: None,
                error_streak: 0,
                probe_successes: 0,
                ewma_us: 0.0,
                errors_total: 0,
                successes_total: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether the router should avoid this replica right now. An OPEN
    /// breaker whose cooldown has elapsed transitions to HALF-OPEN here
    /// (and rejoins routing), so probing needs no background thread.
    pub fn route_away(&self, now: Instant) -> bool {
        let mut core = self.lock();
        match core.state {
            BreakerState::Closed | BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let elapsed = core
                    .opened_at
                    .is_none_or(|t| now.saturating_duration_since(t) >= self.cfg.cooldown);
                if elapsed {
                    core.state = BreakerState::HalfOpen;
                    core.probe_successes = 0;
                    false
                } else {
                    true
                }
            }
        }
    }

    /// Records a successful answer and its end-to-end latency.
    pub fn on_success(&self, latency_us: u64) {
        let mut core = self.lock();
        core.successes_total += 1;
        core.error_streak = 0;
        let alpha = self.cfg.ewma_alpha.clamp(f64::EPSILON, 1.0);
        core.ewma_us = if core.successes_total == 1 {
            latency_us as f64
        } else {
            alpha * latency_us as f64 + (1.0 - alpha) * core.ewma_us
        };
        match core.state {
            BreakerState::HalfOpen => {
                core.probe_successes += 1;
                if core.probe_successes >= self.cfg.half_open_successes.max(1) {
                    core.state = BreakerState::Closed;
                    core.opened_at = None;
                }
            }
            BreakerState::Closed => {
                if self.cfg.latency_ewma_us > 0 && core.ewma_us > self.cfg.latency_ewma_us as f64 {
                    core.state = BreakerState::Open;
                    core.opened_at = Some(Instant::now());
                }
            }
            // A success landing while OPEN belongs to a request admitted
            // before the trip; it neither probes nor heals.
            BreakerState::Open => {}
        }
    }

    /// Records a breaker-relevant error (worker panic, gateway-side wait
    /// timeout). Queue-full rejections and a replica's own deadline sheds
    /// are *not* errors: they are load, not sickness, and queue-full feeds
    /// the brownout policy instead.
    pub fn on_error(&self) {
        let mut core = self.lock();
        core.errors_total += 1;
        core.error_streak = core.error_streak.saturating_add(1);
        match core.state {
            BreakerState::Closed => {
                if self.cfg.consecutive_errors > 0
                    && core.error_streak >= self.cfg.consecutive_errors
                {
                    core.state = BreakerState::Open;
                    core.opened_at = Some(Instant::now());
                }
            }
            // One failed probe re-opens immediately with a fresh cooldown.
            BreakerState::HalfOpen => {
                core.state = BreakerState::Open;
                core.opened_at = Some(Instant::now());
            }
            BreakerState::Open => {}
        }
    }

    /// Current state (no side effects — cooldown expiry is only applied by
    /// [`ReplicaHealth::route_away`]).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Current latency EWMA, microseconds (0 before the first success).
    pub fn ewma_us(&self) -> f64 {
        self.lock().ewma_us
    }

    /// Fail-static ranking for the all-breakers-open case: fewer
    /// consecutive errors first, then lower EWMA. Lower is better.
    pub fn badness(&self) -> (u32, u64) {
        let core = self.lock();
        (core.error_streak, core.ewma_us as u64)
    }

    /// Lifetime `(successes, errors)` counts.
    pub fn totals(&self) -> (u64, u64) {
        let core = self.lock();
        (core.successes_total, core.errors_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BreakerConfig {
        BreakerConfig {
            consecutive_errors: 3,
            cooldown: Duration::from_millis(30),
            half_open_successes: 2,
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_errors_and_probes_after_cooldown() {
        let h = ReplicaHealth::new(quick_cfg());
        let now = Instant::now();
        assert_eq!(h.state(), BreakerState::Closed);
        h.on_error();
        h.on_error();
        assert!(!h.route_away(now), "streak below threshold stays closed");
        h.on_error();
        assert_eq!(h.state(), BreakerState::Open);
        assert!(h.route_away(Instant::now()));
        // Cooldown elapses → HALF-OPEN rejoins routing.
        std::thread::sleep(Duration::from_millis(40));
        assert!(!h.route_away(Instant::now()));
        assert_eq!(h.state(), BreakerState::HalfOpen);
        // Two successful probes close it.
        h.on_success(100);
        assert_eq!(h.state(), BreakerState::HalfOpen);
        h.on_success(100);
        assert_eq!(h.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let h = ReplicaHealth::new(quick_cfg());
        for _ in 0..3 {
            h.on_error();
        }
        std::thread::sleep(Duration::from_millis(40));
        assert!(!h.route_away(Instant::now())); // half-open probe window
        h.on_error();
        assert_eq!(h.state(), BreakerState::Open);
        assert!(h.route_away(Instant::now()));
    }

    #[test]
    fn success_resets_the_error_streak() {
        let h = ReplicaHealth::new(quick_cfg());
        for _ in 0..100 {
            h.on_error();
            h.on_error();
            h.on_success(50);
        }
        assert_eq!(h.state(), BreakerState::Closed, "streak never reaches 3");
    }

    #[test]
    fn latency_breaker_opens_on_sustained_slow_answers() {
        let h = ReplicaHealth::new(BreakerConfig {
            latency_ewma_us: 1_000,
            ..quick_cfg()
        });
        h.on_success(100);
        assert_eq!(h.state(), BreakerState::Closed);
        for _ in 0..50 {
            h.on_success(100_000);
        }
        assert_eq!(h.state(), BreakerState::Open);
    }

    #[test]
    fn zero_thresholds_disable_the_breakers() {
        let h = ReplicaHealth::new(BreakerConfig {
            consecutive_errors: 0,
            latency_ewma_us: 0,
            ..BreakerConfig::default()
        });
        for _ in 0..1000 {
            h.on_error();
            h.on_success(u64::MAX / 2);
        }
        assert_eq!(h.state(), BreakerState::Closed);
    }

    #[test]
    fn badness_ranks_error_streak_before_latency() {
        let sick = ReplicaHealth::new(quick_cfg());
        sick.on_error();
        sick.on_error();
        let slow = ReplicaHealth::new(quick_cfg());
        slow.on_success(9_000);
        assert!(slow.badness() < sick.badness());
    }
}

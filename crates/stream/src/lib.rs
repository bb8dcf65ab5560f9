//! `msd-stream`: streaming inference over an unbounded seeded series.
//!
//! The batch pipeline answers "how anomalous was this test set"; this crate
//! answers the production question — score samples *as they arrive*, notice
//! when the world changes, and adapt without dropping traffic:
//!
//! * [`ring::RingWindower`] — sliding `[C, L]` windows with configurable
//!   stride over a fixed ring buffer;
//! * [`scaler::StreamScaler`] — per-channel Welford standardization
//!   ([`msd_tensor::stats::Welford`]), updated per arriving sample;
//! * [`drift::DriftDetector`] — windowed z-statistic over score telemetry
//!   with a Calibrating→Armed→Triggered hysteresis contract;
//! * [`retrain`] — warm fine-tunes that *resume* from a synthesized
//!   `TrainCheckpoint`, replayable bit-for-bit standalone;
//! * [`engine::StreamEngine`] — the glue: scoring through the
//!   `msd_serve::Server` plan path behind a `msd_gateway::Registry`, with
//!   drift-triggered retrain + BUILD→PUBLISH→DRAIN hot-swap;
//! * [`scenario::DriftScenario`] — the seeded synthetic workload the
//!   harness bin and the tier-1 replay-determinism gate run.
//!
//! House rule, restated for this crate: replaying a seeded stream must
//! reproduce the score log and event log *byte for byte*, across
//! `MSD_KERNEL_FORCE` settings, including runs whose middle contains a
//! drift → retrain → hot-swap. Wall-clock may be
//! *reported* (latency percentiles) but never *logged*.

pub mod drift;
pub mod engine;
pub mod retrain;
pub mod ring;
pub mod scaler;
pub mod scenario;

pub use drift::{DriftConfig, DriftDetector, DriftSignal, DriftState};
pub use engine::{StreamConfig, StreamEngine, StreamReport, SwapRecord, MODEL_NAME};
pub use retrain::{install_checkpoint, seed_checkpoint, BufferSource, RetrainParams};
pub use ring::RingWindower;
pub use scaler::StreamScaler;
pub use scenario::{DriftScenario, ScenarioConfig};

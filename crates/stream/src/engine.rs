//! The streaming engine: glue from per-sample ingestion to scored windows,
//! drift events, warm retrains, and gateway hot-swaps.
//!
//! Lifecycle of one engine:
//!
//! 1. **Warmup** — samples flow through the [`StreamScaler`] and
//!    [`RingWindower`]; standardized windows accumulate in the retrain
//!    buffer. When `warmup_windows` have been collected, the base model is
//!    trained on the buffer (denoising reconstruction), encoded as a v3
//!    f32 artifact, and registered with the gateway [`Registry`]
//!    (version 1, `swap` event).
//! 2. **Scoring** — every emitted window is standardized and scored
//!    through `Registry::predict` (the `msd_serve::Server` plan path).
//!    Per-position reconstruction errors of the window's trailing `stride`
//!    positions become the per-step score log; the window-*median* error
//!    feeds the [`DriftDetector`] (the median ignores the few positions a
//!    short anomaly spike inflates, so only a sustained regime shift moves
//!    the statistic). The per-position scores logged while the detector
//!    calibrates also fix the alarm threshold a deployed detector would
//!    use: at each Calibrating→Armed transition the top-`threshold_ratio`
//!    quantile of the calibration-era scores is frozen and recorded.
//! 3. **Adaptation** — a drift trigger synthesizes a seed checkpoint from
//!    the live parameters ([`retrain::seed_checkpoint`]), warm fine-tunes
//!    on the buffered windows by *resuming* that checkpoint, writes a v3
//!    artifact, and hot-swaps it into the registry (BUILD→PUBLISH→DRAIN).
//!    The replica set that served the old version is checked for a
//!    balanced ledger with zero failed/rejected/expired requests — the
//!    "zero dropped requests across the swap" guarantee — and the drift
//!    detector recalibrates against the new model's score distribution.
//!
//! Replay determinism: every number the engine logs is a function of the
//! seeded input stream. Wall-clock enters only the latency telemetry
//! (which is reported, never logged) and the fine-tune's `TrainMonitor`
//! is disabled (its `BatchEnd.wall_ms` field is wall-clock). Scoring is
//! sequential over a single-replica, single-worker low-latency server, so
//! evaluation order equals submission order.

use crate::drift::{DriftConfig, DriftDetector, DriftSignal, DriftState};
use crate::retrain::{install_checkpoint, seed_checkpoint, BufferSource, RetrainParams};
use crate::ring::RingWindower;
use crate::scaler::StreamScaler;
use msd_gateway::Registry;
use msd_harness::telemetry::json_f32;
use msd_harness::{fit_monitored, ModelSpec, TrainEvent, TrainMonitor};
use msd_metrics::threshold_by_ratio;
use msd_nn::{ArtifactWriter, DynModel, ParamStore, PrecisionTier, Task};
use msd_serve::ServeConfig;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::PathBuf;

/// Registry name the engine serves its model under.
pub const MODEL_NAME: &str = "stream";

/// Everything that shapes one streaming run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Channels per sample.
    pub channels: usize,
    /// Window length `L`.
    pub window: usize,
    /// Window stride (≤ `window` keeps the per-step score log gapless).
    pub stride: usize,
    /// Windows retained for retraining (ring-capped).
    pub buffer_cap: usize,
    /// Windows collected before the base model is trained.
    pub warmup_windows: usize,
    /// Architecture served and retrained.
    pub spec: ModelSpec,
    /// Width hint for [`ModelSpec::build`].
    pub d_model: usize,
    /// Parameter init seed (also the factory's rebuild seed).
    pub init_seed: u64,
    /// Base-train and warm-retrain hyperparameters.
    pub retrain: RetrainParams,
    /// Drift detector thresholds.
    pub drift: DriftConfig,
    /// Anomaly ratio of the frozen alarm threshold: at each detector
    /// calibration, the threshold is set so the top `threshold_ratio`
    /// fraction of calibration-era scores would have been flagged
    /// (`msd_metrics::threshold_by_ratio`).
    pub threshold_ratio: f32,
    /// Retrains allowed before drift triggers are ignored (bounds run
    /// time; every retrain is deterministic, so so is the cutoff).
    pub max_retrains: usize,
    /// Directory for seed checkpoints (one subdirectory per retrain).
    pub checkpoint_root: PathBuf,
    /// Optional JSONL sinks for the score and event logs (the in-memory
    /// mirrors are always kept).
    pub score_log: Option<PathBuf>,
    pub event_log: Option<PathBuf>,
}

impl StreamConfig {
    /// The smoke-scale engine the harness bin, replay tests, and tier-1
    /// gate share. `root` holds checkpoints; logs stay in memory unless
    /// the caller sets the sink paths.
    pub fn smoke(root: PathBuf) -> Self {
        Self {
            channels: 2,
            window: 48,
            stride: 4,
            buffer_cap: 64,
            warmup_windows: 64,
            spec: ModelSpec::DLinear,
            d_model: 16,
            init_seed: 29,
            retrain: RetrainParams::smoke(),
            drift: DriftConfig {
                calibration: 64,
                window: 24,
                upper: 4.0,
                lower: 1.0,
            },
            threshold_ratio: 0.02,
            max_retrains: 1,
            checkpoint_root: root,
            score_log: None,
            event_log: None,
        }
    }
}

/// One completed adaptation, kept for the bit-identity test: everything
/// needed to replay the fine-tune standalone.
pub struct SwapRecord {
    /// Stream step at which the new version was published.
    pub step: u64,
    /// Registry version published.
    pub version: u32,
    /// Encoded seed checkpoint the fine-tune resumed from.
    pub checkpoint: Vec<u8>,
    /// The `[N, C, L]` buffer stack the fine-tune trained on.
    pub buffer: Tensor,
    /// The v3 f32 artifact that was hot-swapped in.
    pub artifact: Vec<u8>,
}

/// Counters and outcomes of a finished run.
pub struct StreamReport {
    /// Samples ingested.
    pub samples: u64,
    /// Windows scored through the serving path.
    pub windows_scored: u64,
    /// Drift events emitted.
    pub drifts: usize,
    /// Hot-swaps performed (including the version-1 registration).
    pub swaps: usize,
    /// Requests lost across all retired replica sets (ledger imbalance
    /// plus failed/rejected/expired); the gate requires 0.
    pub lost_requests: u64,
    /// Per-score serve latencies, microseconds (wall-clock: reported,
    /// never logged).
    pub latencies_us: Vec<u64>,
    /// Score log lines (`{"t":..,"score":..}`), replay-deterministic.
    pub score_lines: Vec<String>,
    /// Event log lines (`TrainEvent` JSONL), replay-deterministic.
    pub event_lines: Vec<String>,
    /// Frozen alarm thresholds `(step, threshold)`, one per detector
    /// Calibrating→Armed transition (the top-`threshold_ratio` quantile
    /// of that calibration era's per-position scores).
    pub calibrations: Vec<(u64, f32)>,
    /// Completed adaptations.
    pub swap_records: Vec<SwapRecord>,
}

enum Phase {
    Warmup,
    Scoring,
}

/// The engine. Feed it samples with [`StreamEngine::push`]; finish with
/// [`StreamEngine::finish`].
pub struct StreamEngine {
    cfg: StreamConfig,
    ring: RingWindower,
    scaler: StreamScaler,
    detector: DriftDetector,
    buffer: VecDeque<Tensor>,
    registry: Registry,
    model: msd_harness::AnyModel,
    store: ParamStore,
    phase: Phase,
    step: u64,
    windows_scored: u64,
    drifts: usize,
    swaps: usize,
    lost_requests: u64,
    latencies_us: Vec<u64>,
    score_lines: Vec<String>,
    event_lines: Vec<String>,
    score_sink: Option<BufWriter<File>>,
    event_sink: Option<BufWriter<File>>,
    threshold_scores: Vec<f32>,
    calibrations: Vec<(u64, f32)>,
    swap_records: Vec<SwapRecord>,
}

fn open_sink(path: &Option<PathBuf>) -> io::Result<Option<BufWriter<File>>> {
    match path {
        None => Ok(None),
        Some(p) => {
            if let Some(parent) = p.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            Ok(Some(BufWriter::new(File::create(p)?)))
        }
    }
}

impl StreamEngine {
    /// Builds an idle engine; the serving model is trained and registered
    /// once warmup completes.
    pub fn new(cfg: StreamConfig) -> io::Result<Self> {
        assert!(
            cfg.stride <= cfg.window,
            "stride > window leaves unscored gaps"
        );
        assert!(
            cfg.warmup_windows <= cfg.buffer_cap,
            "warmup must fit in the buffer"
        );
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(cfg.init_seed);
        let model = cfg.spec.build(
            &mut store,
            &mut rng,
            cfg.channels,
            cfg.window,
            Task::Reconstruct,
            cfg.d_model,
        );
        let score_sink = open_sink(&cfg.score_log)?;
        let event_sink = open_sink(&cfg.event_log)?;
        Ok(Self {
            ring: RingWindower::new(cfg.channels, cfg.window, cfg.stride),
            scaler: StreamScaler::new(cfg.channels),
            detector: DriftDetector::new(cfg.drift),
            buffer: VecDeque::with_capacity(cfg.buffer_cap),
            registry: Registry::new(ServeConfig::low_latency(), 1),
            model,
            store,
            phase: Phase::Warmup,
            step: 0,
            windows_scored: 0,
            drifts: 0,
            swaps: 0,
            lost_requests: 0,
            latencies_us: Vec::new(),
            score_lines: Vec::new(),
            event_lines: Vec::new(),
            score_sink,
            event_sink,
            threshold_scores: Vec::new(),
            calibrations: Vec::new(),
            swap_records: Vec::new(),
            cfg,
        })
    }

    /// Ingests one sample; returns the `(step, score)` pairs this sample
    /// completed (empty during warmup and between window boundaries).
    pub fn push(&mut self, sample: &[f32]) -> io::Result<Vec<(u64, f32)>> {
        let step = self.step;
        self.step += 1;
        self.scaler.observe(sample);
        let Some(raw) = self.ring.push(sample) else {
            return Ok(Vec::new());
        };
        let window = self.scaler.normalize(&raw);
        self.buffer.push_back(window.clone());
        if self.buffer.len() > self.cfg.buffer_cap {
            self.buffer.pop_front();
        }
        match self.phase {
            Phase::Warmup => {
                if self.buffer.len() >= self.cfg.warmup_windows {
                    self.train_and_publish(step)?;
                    self.phase = Phase::Scoring;
                }
                Ok(Vec::new())
            }
            Phase::Scoring => self.score_window(step, &window),
        }
    }

    /// Scores one standardized window through the gateway, logs the new
    /// per-step scores, and runs drift detection on the window median.
    fn score_window(&mut self, step: u64, window: &Tensor) -> io::Result<Vec<(u64, f32)>> {
        let (c, l) = (self.cfg.channels, self.cfg.window);
        let x = Tensor::from_vec(&[1, c, l], window.data().to_vec());
        let t0 = std::time::Instant::now();
        let ok = self
            .registry
            .predict(MODEL_NAME, &step.to_le_bytes(), x, None)
            .map_err(|e| io::Error::other(format!("gateway predict failed: {e:?}")))?;
        self.latencies_us.push(t0.elapsed().as_micros() as u64);
        self.windows_scored += 1;

        // Per-position channel-mean squared reconstruction error.
        let recon = ok.y.data();
        let clean = window.data();
        let mut pos_err = vec![0.0f32; l];
        for ch in 0..c {
            for (t, e) in pos_err.iter_mut().enumerate() {
                let d = recon[ch * l + t] - clean[ch * l + t];
                *e += d * d;
            }
        }
        for e in pos_err.iter_mut() {
            *e /= c as f32;
        }
        // The window covers steps [step − L + 1, step]; the trailing
        // `stride` positions (the whole window for the very first one)
        // are new since the previous emission.
        let new_positions = if self.windows_scored == 1 {
            l
        } else {
            self.cfg.stride
        };
        let window_start = step + 1 - l as u64;
        let calibrating = self.detector.state() == DriftState::Calibrating;
        let mut scored = Vec::with_capacity(new_positions);
        for (k, &s) in pos_err.iter().enumerate().skip(l - new_positions) {
            let t = window_start + k as u64;
            self.log_score(t, s)?;
            if calibrating {
                // The score pool behind the fixed alarm threshold grows
                // only while the detector calibrates, so it freezes
                // together with the drift baseline.
                self.threshold_scores.push(s);
            }
            scored.push((t, s));
        }

        // Drift statistic: the window-*median* error. A spike inflates at
        // most `spike_len` of the `l` positions, which the median ignores;
        // a regime shift moves every position, which it does not.
        let mut sorted = pos_err.clone();
        sorted.sort_by(f32::total_cmp);
        let median = sorted[l / 2];
        if self.swaps <= self.cfg.max_retrains {
            match self.detector.push(median) {
                DriftSignal::None => {}
                DriftSignal::Calibrated => {
                    let thr = threshold_by_ratio(&self.threshold_scores, self.cfg.threshold_ratio);
                    self.calibrations.push((step, thr));
                    self.threshold_scores.clear();
                }
                DriftSignal::Drift(z) => {
                    self.drifts += 1;
                    self.log_event(&TrainEvent::Drift {
                        step,
                        statistic: z,
                        threshold: self.cfg.drift.upper,
                    })?;
                    if self.swaps <= self.cfg.max_retrains {
                        self.adapt(step)?;
                    }
                }
            }
        }
        Ok(scored)
    }

    /// Base-trains on the warmup buffer and registers version 1.
    fn train_and_publish(&mut self, step: u64) -> io::Result<()> {
        let artifact = self.fine_tune(step)?;
        let spec = self.cfg.spec;
        let (channels, window, d_model, seed) = (
            self.cfg.channels,
            self.cfg.window,
            self.cfg.d_model,
            self.cfg.init_seed,
        );
        let factory = Box::new(move || {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from(seed);
            let model = spec.build(
                &mut store,
                &mut rng,
                channels,
                window,
                Task::Reconstruct,
                d_model,
            );
            (Box::new(model) as DynModel, store)
        });
        let version = self
            .registry
            .register(MODEL_NAME, factory, Some(&artifact))?;
        self.swaps += 1;
        self.log_event(&TrainEvent::Swap { step, version })
    }

    /// Warm retrain on the current buffer, hot-swap, ledger check,
    /// detector recalibration.
    fn adapt(&mut self, step: u64) -> io::Result<()> {
        let old_set = self
            .registry
            .current_set(MODEL_NAME)
            .map_err(|e| io::Error::other(format!("no live set: {e:?}")))?;
        let artifact = self.fine_tune(step)?;
        let version = self.registry.swap(MODEL_NAME, &artifact)?;
        self.swaps += 1;
        // The retired set must account for every request it admitted, and
        // none may have been dropped by the swap: the old servers keep
        // draining until the last Arc holder (us) lets go.
        for stats in old_set.stats() {
            if !stats.ledger_balanced() {
                self.lost_requests += stats.submitted.saturating_sub(
                    stats.completed + stats.failed + stats.rejected + stats.expired,
                );
            }
            self.lost_requests += stats.failed + stats.rejected + stats.expired;
        }
        drop(old_set);
        self.detector.recalibrate();
        self.threshold_scores.clear();
        self.log_event(&TrainEvent::Swap { step, version })
    }

    /// One fine-tune over the buffered windows, resumed from a synthesized
    /// seed checkpoint. Returns the encoded artifact; updates `self.store`
    /// and appends the [`SwapRecord`].
    fn fine_tune(&mut self, step: u64) -> io::Result<Vec<u8>> {
        let stack = BufferSource::stack(self.buffer.make_contiguous());
        let n = stack.shape()[0];
        let dir = self
            .cfg
            .checkpoint_root
            .join(format!("retrain-{}", self.swaps));
        let cfg = self.cfg.retrain.train_config(&dir);
        let ck = seed_checkpoint(&self.store, n, &cfg);
        let ck_bytes = ck.encode();
        install_checkpoint(&dir, &ck_bytes)?;
        let source = BufferSource::new(
            stack.clone(),
            self.cfg.retrain.corrupt_ratio,
            self.cfg.retrain.corrupt_seed,
        );
        // Monitor disabled: BatchEnd carries wall-clock, which would break
        // byte-identical replay of any log it landed in.
        let mut monitor = TrainMonitor::disabled();
        let report = fit_monitored(
            &self.model,
            &mut self.store,
            &source,
            None,
            &cfg,
            &mut monitor,
        );
        assert!(
            report.resumed_from.is_some(),
            "warm retrain must resume from the seed checkpoint"
        );
        assert!(
            report.aborted.is_none(),
            "warm retrain diverged: {:?}",
            report.aborted
        );
        let artifact = ArtifactWriter::new(PrecisionTier::F32)
            .encode(&self.store)
            .map_err(io::Error::other)?;
        self.swap_records.push(SwapRecord {
            step,
            version: self.swaps as u32 + 1,
            checkpoint: ck_bytes,
            buffer: stack,
            artifact: artifact.clone(),
        });
        Ok(artifact)
    }

    fn log_score(&mut self, t: u64, score: f32) -> io::Result<()> {
        let line = format!("{{\"t\":{t},\"score\":{}}}", json_f32(score));
        if let Some(w) = &mut self.score_sink {
            writeln!(w, "{line}")?;
        }
        self.score_lines.push(line);
        Ok(())
    }

    fn log_event(&mut self, event: &TrainEvent) -> io::Result<()> {
        let line = event.to_json();
        if let Some(w) = &mut self.event_sink {
            writeln!(w, "{line}")?;
        }
        self.event_lines.push(line);
        Ok(())
    }

    /// Detector state, for callers that pace scenarios off the engine.
    pub fn detector_state(&self) -> DriftState {
        self.detector.state()
    }

    /// Samples ingested so far.
    pub fn samples_seen(&self) -> u64 {
        self.ring.samples_seen()
    }

    /// Hot-swaps performed so far (including the version-1 registration).
    pub fn swaps(&self) -> usize {
        self.swaps
    }

    /// Flushes the log sinks, shuts the registry down (draining the live
    /// replica set), runs the final ledger audit, and reports.
    pub fn finish(mut self) -> io::Result<StreamReport> {
        if let Ok(set) = self.registry.current_set(MODEL_NAME) {
            for stats in set.stats() {
                if !stats.ledger_balanced() {
                    self.lost_requests += stats.submitted.saturating_sub(
                        stats.completed + stats.failed + stats.rejected + stats.expired,
                    );
                }
                self.lost_requests += stats.failed + stats.rejected + stats.expired;
            }
        }
        self.registry.shutdown();
        if let Some(w) = &mut self.score_sink {
            w.flush()?;
        }
        if let Some(w) = &mut self.event_sink {
            w.flush()?;
        }
        Ok(StreamReport {
            samples: self.step,
            windows_scored: self.windows_scored,
            drifts: self.drifts,
            swaps: self.swaps,
            lost_requests: self.lost_requests,
            latencies_us: self.latencies_us,
            score_lines: self.score_lines,
            event_lines: self.event_lines,
            calibrations: self.calibrations,
            swap_records: self.swap_records,
        })
    }
}

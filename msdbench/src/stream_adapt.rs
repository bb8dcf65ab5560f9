//! `stream_adapt`: the streaming engine at smoke scale fed by the seeded
//! drift scenario, pushed from one thread as fast as it accepts samples.
//! Each episode trains a base model, scores every window through the
//! registry's low-latency server, detects the regime shift, warm-retrains
//! and hot-swaps while scoring continues. The only workload for the stream
//! crate and the registry's write path.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use msd_gateway::Registry;
use msd_harness::AnyModel;
use msd_metrics::anomaly::point_adjusted_scores;
use msd_nn::{ArtifactReader, DynModel, ParamStore, Task};
use msd_serve::{ServeConfig, Server};
use msd_stream::{
    DriftDetector, DriftScenario, RingWindower, ScenarioConfig, StreamConfig, StreamEngine,
    StreamReport, StreamScaler, MODEL_NAME,
};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

use crate::peel::{self, allocs_per_call, around};
use crate::probe::SpanLog;
use crate::stats::{fast_mean, fastest, median, nearest_rank, self_times, Latencies};
use crate::{derive, Args, Outcome};

/// Samples per episode, as the `msd-stream` binary streams by default.
const STEPS: usize = 3600;

/// How one push ended.
#[derive(Clone, Copy, PartialEq)]
enum Push {
    /// Scored no window: ingest only, or a warm-up window (the one that
    /// trains the base model comes before set-up ends and is not recorded).
    Ingest,
    /// Scored a window.
    Scored,
    /// Scored a window, detected drift, retrained and swapped.
    Adapted,
    /// Returned an error: a refused or missing answer.
    Failed,
}

/// One episode: a fresh engine over one seeded scenario.
struct Episode {
    setup_s: f64,
    /// Wall time and samples after the first scored window.
    after_s: f64,
    after_samples: u64,
    /// Nearest-rank p50 and p90 of this episode's scored pushes, a failed
    /// push counting as infinitely slow.
    p50_us: f64,
    p90_us: f64,
    /// The input stream, `(kind, start, end)` of every push after set-up,
    /// and the full report: kept for traced runs only, so an untraced run's
    /// memory does not grow with the number of episodes it fits.
    samples: Vec<Vec<f32>>,
    pushes: Vec<(Push, Instant, Instant)>,
    report: StreamReport,
    /// Failed pushes plus requests the engine's replicas lost.
    failed: u64,
    /// Point-adjusted F1 before and after adaptation, or the score-log line
    /// that did not parse.
    f1: Result<(f32, f32), String>,
    /// Live threads just before the engine shut down.
    threads: f64,
}

fn scenario(seed: u64, episode: u64) -> ScenarioConfig {
    ScenarioConfig::smoke(derive(seed, 100 + episode))
}

fn engine_config(scenario: &ScenarioConfig, root: &Path) -> StreamConfig {
    let mut cfg = StreamConfig::smoke(root.to_path_buf());
    cfg.channels = scenario.channels;
    cfg
}

/// Runs one episode, also recording the µs of every push after set-up that
/// scored a window (or failed) into `pooled`.
fn run_episode(
    seed: u64,
    episode: u64,
    root: &Path,
    keep: bool,
    pooled: &mut Latencies,
) -> Episode {
    let sc = scenario(seed, episode);
    let mut gen = DriftScenario::new(sc.clone());
    let (samples, labels): (Vec<Vec<f32>>, Vec<bool>) =
        (0..STEPS).map(|_| gen.next_sample()).unzip();
    let dir = root.join(format!("episode-{episode}"));
    let t0 = Instant::now();
    let mut engine = StreamEngine::new(engine_config(&sc, &dir)).expect("engine set-up");
    let mut setup_s = None;
    let mut first_score = t0;
    let mut pushes = Vec::with_capacity(STEPS);
    let mut failed = 0u64;
    for sample in &samples {
        let swaps = engine.swaps();
        let (result, p0, p1) = around(|| engine.push(sample));
        let kind = match result {
            Err(e) => {
                eprintln!("episode {episode}: push failed: {e}");
                failed += 1;
                Push::Failed
            }
            Ok(s) if s.is_empty() => Push::Ingest,
            Ok(_) if engine.swaps() == swaps => Push::Scored,
            Ok(_) => Push::Adapted,
        };
        if setup_s.is_none() {
            if kind == Push::Scored {
                setup_s = Some((p1 - t0).as_secs_f64());
                first_score = p1;
            }
            continue;
        }
        pushes.push((kind, p0, p1));
    }
    let after_s = first_score.elapsed().as_secs_f64();
    let threads = crate::probe::proc_stat().threads as f64;
    let mut report = engine.finish().expect("engine shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    let f1 = f1_segments(&report, &sc, &labels);
    let mut lat = Latencies::default();
    for &(kind, p0, p1) in &pushes {
        match kind {
            Push::Ingest => {}
            Push::Scored | Push::Adapted => lat.ok((p1 - p0).as_secs_f64() * 1e6),
            Push::Failed => lat.failed(),
        }
    }
    let sorted = lat.sorted();
    pooled.extend(lat);
    let after_samples = pushes.len() as u64;
    let (samples, pushes) = if keep {
        (samples, pushes)
    } else {
        report.latencies_us = Vec::new();
        report.score_lines = Vec::new();
        report.event_lines = Vec::new();
        report.swap_records = Vec::new();
        (Vec::new(), Vec::new())
    };
    Episode {
        after_samples,
        samples,
        setup_s: setup_s.unwrap_or(f64::NAN),
        after_s,
        p50_us: nearest_rank(&sorted, 50.0),
        p90_us: nearest_rank(&sorted, 90.0),
        pushes,
        failed: failed + report.lost_requests,
        report,
        f1,
        threads,
    }
}

/// Point-adjusted F1 before adaptation (drift to the last swap) and after
/// it (the last swap to the end), each step judged against the threshold
/// frozen at the latest detector calibration, as `msd-stream` computes it.
/// A score line that does not parse (a non-finite score is logged as a
/// string) is returned as the error, as `msd-stream` rejects it.
fn f1_segments(
    report: &StreamReport,
    sc: &ScenarioConfig,
    labels: &[bool],
) -> Result<(f32, f32), String> {
    let scores = report
        .score_lines
        .iter()
        .map(|l| parse_score_line(l).ok_or_else(|| l.clone()))
        .collect::<Result<Vec<(u64, f32)>, String>>()?;
    let Some(swap_step) = report.swap_records.last().map(|r| r.step) else {
        return Ok((f32::NAN, f32::NAN));
    };
    let threshold_at = |t: u64| {
        report
            .calibrations
            .iter()
            .rev()
            .find(|&&(s, _)| s <= t)
            .map(|&(_, thr)| thr)
    };
    let segment = |lo: u64, hi: u64| {
        let (mut pred, mut truth) = (Vec::new(), Vec::new());
        for &(t, score) in scores.iter().filter(|&&(t, _)| t >= lo && t < hi) {
            if let Some(thr) = threshold_at(t) {
                pred.push(score > thr);
                truth.push(labels[t as usize]);
            }
        }
        point_adjusted_scores(&pred, &truth).f1
    };
    Ok((
        segment(sc.drift_at, swap_step),
        segment(swap_step, labels.len() as u64),
    ))
}

/// Parses one score-log line `{"t":N,"score":S}`.
fn parse_score_line(line: &str) -> Option<(u64, f32)> {
    let t = line
        .split("\"t\":")
        .nth(1)?
        .split(',')
        .next()?
        .parse()
        .ok()?;
    let score = line
        .split("\"score\":")
        .nth(1)?
        .trim_end_matches('}')
        .parse()
        .ok()?;
    Some((t, score))
}

/// Per-episode gates of `msd-stream`: a drift, a hot-swap, no lost request,
/// every push answered, every score line well formed.
fn check_episode(e: &Episode, n: u64, out: &mut Outcome) {
    let r = &e.report;
    out.check(r.drifts >= 1, || {
        format!("episode {n}: the regime shift raised no drift")
    });
    out.check(r.swaps >= 2, || {
        format!("episode {n}: {} publication(s), no hot-swap", r.swaps)
    });
    out.check(r.lost_requests == 0, || {
        format!("episode {n}: {} lost request(s)", r.lost_requests)
    });
    out.check(e.failed == 0, || {
        format!(
            "episode {n}: {} failed push(es) or lost request(s)",
            e.failed
        )
    });
    out.check(e.setup_s.is_finite(), || {
        format!("episode {n}: no window was scored")
    });
    if let Err(line) = &e.f1 {
        out.check(false, || {
            format!("episode {n}: malformed score line {line}")
        });
    }
}

/// Episodes until `secs` have passed, with the F1 gate applied to their
/// mean: a single episode's pre-adaptation segment is about ninety steps
/// with one or two spikes, too short for its F1 to be compared alone.
fn episodes(
    seed: u64,
    first: u64,
    secs: f64,
    root: &Path,
    keep: bool,
    pooled: &mut Latencies,
    out: &mut Outcome,
) -> Vec<Episode> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut all = Vec::new();
    while all.is_empty() || Instant::now() < deadline {
        let n = first + all.len() as u64;
        let e = run_episode(seed, n, root, keep, pooled);
        check_episode(&e, n, out);
        out.attempted += STEPS as u64;
        out.failed += e.failed;
        all.push(e);
    }
    let f1: Vec<(f32, f32)> = all.iter().filter_map(|e| e.f1.clone().ok()).collect();
    let mean = |f: fn(&(f32, f32)) -> f32| f1.iter().map(f).sum::<f32>() / f1.len() as f32;
    let (before, after) = (mean(|p| p.0), mean(|p| p.1));
    let worse = f1.iter().filter(|p| p.1 <= p.0).count();
    out.check(after > before, || {
        format!("adaptation did not improve mean F1 ({before:.3} → {after:.3})")
    });
    out.notes.push(format!(
        "pa_f1 {after:?} after adaptation (before {before:.3}; mean of {} episodes, {worse} of which \
         did not improve on their own)",
        f1.len()
    ));
    all
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let root = PathBuf::from(format!(".bench_out/stream-{}", std::process::id()));
    let phase = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut pooled = Latencies::with_capacity(1 << 20);
    let all = episodes(args.seed, 0, phase, &root, false, &mut pooled, &mut out);
    out.metrics.set("peak_rss_mb", crate::probe::peak_rss_mb());
    // Every gated figure is taken per episode (a third as long as one of
    // the serving workloads' slices) over the fastest fifth of them: a
    // host stall or a slow fsync in one warm retrain moves the episodes it
    // lands in, not the statistic.
    let per_episode = |f: fn(&Episode) -> f64| all.iter().map(f).collect::<Vec<_>>();
    let cost = per_episode(|e| e.after_s / e.after_samples as f64);
    let over_fast = |f| fast_mean(&per_episode(f), &cost);
    let setups = per_episode(|e| e.setup_s);
    let m = &mut out.metrics;
    m.set("proc.threads", all.last().map_or(0.0, |e| e.threads));
    m.set("setup_s", fast_mean(&setups, &setups));
    m.set(
        "throughput_per_s",
        over_fast(|e| e.after_samples as f64 / e.after_s),
    );
    m.set("latency_p50_us", over_fast(|e| e.p50_us));
    m.set("latency_p90_us", over_fast(|e| e.p90_us));
    out.notes.push(format!(
        "gated figures over the fastest {} of {} episodes, set-up over the fastest fifth of theirs",
        fastest(&cost).len(),
        all.len()
    ));
    let sorted = pooled.sorted();
    out.notes.push(format!(
        "scored pushes of all {} episodes: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us \
         over {} pushes",
        all.len(),
        nearest_rank(&sorted, 50.0),
        nearest_rank(&sorted, 90.0),
        nearest_rank(&sorted, 99.0),
        nearest_rank(&sorted, 100.0),
        sorted.len()
    ));
    if args.trace {
        let log = SpanLog::new();
        let traced = episodes(
            args.seed,
            all.len() as u64,
            args.seconds / 2.0,
            &root,
            true,
            &mut Latencies::default(),
            &mut out,
        );
        // Against every untraced scored push, as the traced pass times
        // every push.
        peel_layers(log, &traced, nearest_rank(&sorted, 50.0), &mut out);
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// The stream model of `StreamConfig::smoke` with an engine artifact loaded.
fn stream_model(bytes: &[u8]) -> (AnyModel, ParamStore) {
    let cfg = StreamConfig::smoke(PathBuf::new());
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
    ArtifactReader::decode(bytes)
        .and_then(|r| r.load_into(&mut store))
        .expect("engine artifacts decode");
    (model, store)
}

/// Spans per push of the traced episodes, then the engine's parts timed on
/// the last episode's sample stream: ring windower, scaler, registry
/// predict, drift detector, and the serve and plan layers under them.
fn peel_layers(mut log: SpanLog, traced: &[Episode], untraced_p50: f64, out: &mut Outcome) {
    let mut op = 0u64;
    let class = |kind: Push| match kind {
        Push::Ingest => "stream.ingest",
        Push::Scored => "stream.score_push",
        Push::Adapted => "stream.adapt",
        Push::Failed => "stream.failed",
    };
    for e in traced {
        for &(kind, p0, p1) in &e.pushes {
            log.add_calls(class(kind), std::iter::once((op, p0, p1)));
            op += 1;
        }
    }
    let p50_of = |name: &str| median(&log.durations_us(name));
    let score_push_us = p50_of("stream.score_push");
    let adapt_ms = p50_of("stream.adapt") / 1e3;

    let last = traced.last().expect("at least one traced episode");
    let cfg = StreamConfig::smoke(PathBuf::new());
    let mut ring = RingWindower::new(cfg.channels, cfg.window, cfg.stride);
    let mut scaler = StreamScaler::new(cfg.channels);
    let (mut ring_us, mut scaler_us, mut windows) = (Vec::new(), Vec::new(), Vec::new());
    for sample in &last.samples {
        let ((), o0, o1) = around(|| scaler.observe(sample));
        let (raw, r0, r1) = around(|| ring.push(sample));
        if let Some(raw) = raw {
            let (w, n0, n1) = around(|| scaler.normalize(&raw));
            ring_us.push((r1 - r0).as_secs_f64() * 1e6);
            scaler_us.push(((o1 - o0) + (n1 - n0)).as_secs_f64() * 1e6);
            windows.push(Tensor::from_vec(
                &[1, cfg.channels, cfg.window],
                w.data().to_vec(),
            ));
        }
    }
    // Score the windows the engine scored: those after the warm-up ones.
    let scored = &windows[cfg.warmup_windows..];
    let artifacts: Vec<&[u8]> = last
        .report
        .swap_records
        .iter()
        .map(|r| r.artifact.as_slice())
        .collect();
    let registry = Registry::new(ServeConfig::low_latency(), 1);
    let factory_bytes = artifacts[0].to_vec();
    registry
        .register(
            MODEL_NAME,
            Box::new(move || {
                let (model, store) = stream_model(&factory_bytes);
                (Box::new(model) as DynModel, store)
            }),
            Some(artifacts[0]),
        )
        .expect("register stream model");
    // One serve runtime like the registry's replica, called on the same
    // window right after the registry so both see the same host.
    let (served, served_store) = stream_model(artifacts[0]);
    let server = Server::start(served, served_store, ServeConfig::low_latency())
        .expect("start stream server");
    let mut detector = DriftDetector::new(cfg.drift);
    let (mut score_us, mut infer, mut drift_us) = (Latencies::default(), Vec::new(), Vec::new());
    for (i, x) in scored.iter().enumerate() {
        let (r, s0, s1) =
            around(|| registry.predict(MODEL_NAME, &(i as u64).to_le_bytes(), x.clone(), None));
        let x_served = x.clone();
        let (answer, i0, i1) = around(|| server.submit(x_served).and_then(|p| p.wait()));
        let (Ok(ok), Ok(_)) = (r, answer) else {
            score_us.failed();
            continue;
        };
        score_us.ok((s1 - s0).as_secs_f64() * 1e6);
        infer.push((i1 - i0).as_secs_f64() * 1e6);
        let median_err = window_median_error(&ok.y, x);
        let (_, d0, d1) = around(|| detector.push(median_err));
        drift_us.push((d1 - d0).as_secs_f64() * 1e6);
    }
    let served = registry
        .current_set(MODEL_NAME)
        .expect("stream model is registered");
    let swap_ms = median(
        &(0..8)
            .map(|i| around(|| registry.swap(MODEL_NAME, artifacts[(i + 1) % artifacts.len()])))
            .map(|(r, t0, t1)| {
                r.expect("swap to an engine artifact");
                (t1 - t0).as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );
    registry.shutdown();
    for st in served.stats() {
        out.check(
            st.ledger_balanced() && st.failed + st.rejected + st.expired == 0,
            || format!("stream peel replica lost requests: {st:?}"),
        );
    }

    let (model, store) = stream_model(artifacts[0]);
    let serve_allocs = allocs_per_call(64, |i| {
        server
            .submit(scored[i].clone())
            .and_then(|p| p.wait())
            .expect("stream server answers");
    });
    let st = server.shutdown();
    out.check(st.ledger_balanced(), || {
        format!("stream peel server ledger unbalanced: {st:?}")
    });
    peel::report_serve_stats(&[st], 1, &mut out.metrics);
    let ag = peel::autograd(model.as_model(), &store, scored, 1000);

    let score_p50 = nearest_rank(&score_us.sorted(), 50.0);
    let infer_us = median(&infer);
    let parts = [
        median(&ring_us),
        median(&scaler_us),
        score_p50,
        median(&drift_us),
    ];
    let chain = self_times(&[score_p50, infer_us, ag.plan_us]);
    let m = &mut out.metrics;
    ag.report(m);
    m.set("stream.ingest_us", p50_of("stream.ingest"));
    m.set("stream.score_push_us", score_push_us);
    m.set("stream.ring_us", parts[0]);
    m.set("stream.scaler_us", parts[1]);
    m.set("stream.score_us", parts[2]);
    m.set("stream.drift_us", parts[3]);
    m.set(
        "stream.engine_self_us",
        score_push_us - parts.iter().sum::<f64>(),
    );
    m.set("stream.adapt_ms", adapt_ms);
    let n = traced.len() as f64;
    let per_episode =
        |f: fn(&StreamReport) -> f64| traced.iter().map(|e| f(&e.report)).sum::<f64>() / n;
    m.set("stream.windows", per_episode(|r| r.windows_scored as f64));
    m.set("stream.drifts", per_episode(|r| r.drifts as f64));
    m.set("stream.swaps", per_episode(|r| r.swaps as f64));
    m.set("stream.lost", per_episode(|r| r.lost_requests as f64));
    m.set("gateway.registry_us", score_p50);
    m.set("gateway.route_self_us", chain[0]);
    m.set("gateway.swap_ms", swap_ms);
    m.set("serve.infer_us", infer_us);
    m.set("serve.self_us", chain[1]);
    m.set("serve.allocs_per_req", serve_allocs);
    out.notes.push(format!(
        "tracing overhead: traced scored push p50 {score_push_us:.1} us − untraced p50 {untraced_p50:.1} us = {:.1} us",
        score_push_us - untraced_p50
    ));
    out.notes.push(format!(
        "coverage: ring + scaler + score + drift = {:.1} us = {:.1}% of the traced scored push p50",
        parts.iter().sum::<f64>(),
        100.0 * parts.iter().sum::<f64>() / score_push_us
    ));
    match log.write("stream_adapt") {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

/// The window-median of per-position channel-mean squared reconstruction
/// error: the statistic the engine feeds its drift detector.
fn window_median_error(recon: &Tensor, clean: &Tensor) -> f32 {
    let shape = clean.shape();
    let (c, l) = (shape[1], shape[2]);
    let (r, x) = (recon.data(), clean.data());
    let mut pos: Vec<f32> = (0..l)
        .map(|t| {
            (0..c)
                .map(|ch| (r[ch * l + t] - x[ch * l + t]).powi(2))
                .sum::<f32>()
                / c as f32
        })
        .collect();
    pos.sort_by(f32::total_cmp);
    pos[l / 2]
}

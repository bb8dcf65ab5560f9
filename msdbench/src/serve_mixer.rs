//! `serve_mixer`: MSD-Mixer at the paper's long-term forecasting shape
//! (ETTh1-like, C = 7, L = H = 96, `d_model` 16, as in the quickstart)
//! served in-process by one `msd_serve::Server` configured like a gateway
//! replica. Plan execution and tensor kernels are most of each request and
//! batches fill, so kernel, plan and batching changes show here; HTTP
//! changes cannot.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use msd_data::{long_term_datasets, SlidingWindows, Split, StandardScaler};
use msd_harness::{AnyModel, ModelSpec};
use msd_mixer::variants::Variant;
use msd_nn::{ParamStore, Task};
use msd_serve::{Pending, Server};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

use crate::gw_edge::replica_config;
use crate::peel::{self, allocs_per_call};
use crate::probe::{Setups, SpanLog};
use crate::stats::{fast_load, nearest_rank, reserved, self_times, Latencies, SLICE_S};
use crate::{derive, Args, Outcome};

const CHANNELS: usize = 7;
pub const INPUT_LEN: usize = 96;
pub const HORIZON: usize = 96;
const D_MODEL: usize = 16;
/// Requests kept in flight: one full batch per worker.
const IN_FLIGHT: usize = 16;
/// Distinct input windows.
const POOL: usize = 128;
/// Set-ups per untraced run; `setup_s` is the mean of the fastest two.
const SETUPS: usize = 10;

/// The ETTh1-like series of `seed`, standardised on its training split as
/// the quickstart does, shaped `[C, T]`.
pub fn series(seed: u64) -> Tensor {
    let mut spec = long_term_datasets()
        .into_iter()
        .find(|s| s.name == "ETTh1")
        .expect("registry contains ETTh1");
    spec.seed = derive(seed, 1);
    let raw = spec.generate();
    let scaler = StandardScaler::fit(&raw, (spec.total_steps as f32 * 0.7) as usize);
    scaler.transform(&raw)
}

/// MSD-Mixer with the paper's patch sizes, initialised from `seed`.
pub fn mixer(seed: u64) -> (AnyModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(derive(seed, 2));
    let model = ModelSpec::MsdMixer(Variant::Full).build(
        &mut store,
        &mut rng,
        CHANNELS,
        INPUT_LEN,
        Task::Forecast { horizon: HORIZON },
        D_MODEL,
    );
    (model, store)
}

/// `POOL` test-split windows of the seeded series, each `[1, C, L]`.
fn inputs(seed: u64) -> Vec<Tensor> {
    let data = series(seed);
    let windows = SlidingWindows::new(&data, INPUT_LEN, HORIZON, Split::Test);
    let stride = windows.len() / POOL;
    (0..POOL)
        .map(|k| {
            let (x, _) = windows.get(k * stride);
            Tensor::from_vec(&[1, CHANNELS, INPUT_LEN], x.data().to_vec())
        })
        .collect()
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Builds the model, starts the server, and compiles a plan for every batch
/// size up to `max_batch` (the measured phase can make any of them).
fn start(seed: u64, xs: &[Tensor], refs: &[Tensor], out: &mut Outcome) -> Server {
    let (model, store) = mixer(seed);
    let cfg = replica_config();
    let max_batch = cfg.max_batch;
    let server = Server::start(model, store, cfg).expect("start server");
    for batch in 1..=max_batch {
        for _round in 0..2 {
            let pending: Vec<Pending> = (0..batch)
                .map(|k| server.submit(xs[k].clone()).expect("warm-up admitted"))
                .collect();
            for (k, p) in pending.into_iter().enumerate() {
                let ok = p.wait().is_ok_and(|y| same_bits(&y, &refs[k]));
                out.check(ok, || {
                    format!("warm-up answer {k} differs from Model::predict")
                });
            }
        }
    }
    server
}

/// What the closed loop measured.
struct Load {
    lat: Latencies,
    /// Submission and completion of every request, in seconds since the
    /// loop started.
    start_s: Vec<f64>,
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Per-request `(start, end)` for the span log, when asked for.
    calls: Vec<(Instant, Instant)>,
    /// `VmHWM` when the loop ended.
    peak_rss_mb: f64,
}

/// One caller thread keeps `IN_FLIGHT` requests in flight for `secs`,
/// waiting on the oldest; every answer is compared bit for bit with
/// sequential `Model::predict`.
fn closed_loop(server: &Server, xs: &[Tensor], refs: &[Tensor], secs: f64, spans: bool) -> Load {
    let mut load = Load {
        lat: Latencies::with_capacity(1 << 18),
        start_s: reserved(1 << 18),
        done_s: reserved(1 << 18),
        attempted: 0,
        failed: 0,
        calls: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut queue: VecDeque<(usize, Instant, Option<Pending>)> = VecDeque::with_capacity(IN_FLIGHT);
    let mut n = 0usize;
    let submit = |queue: &mut VecDeque<_>, n: &mut usize| {
        let k = *n % POOL;
        let x = xs[k].clone();
        let t0 = Instant::now();
        queue.push_back((k, t0, server.submit(x).ok()));
        *n += 1;
    };
    for _ in 0..IN_FLIGHT {
        submit(&mut queue, &mut n);
    }
    while let Some((k, t0, pending)) = queue.pop_front() {
        let answer = pending.map(Pending::wait);
        let t1 = Instant::now();
        load.attempted += 1;
        if answer.is_some_and(|r| r.is_ok_and(|y| same_bits(&y, &refs[k]))) {
            load.lat.ok((t1 - t0).as_secs_f64() * 1e6);
        } else {
            load.failed += 1;
            load.lat.failed();
        }
        load.start_s.push((t0 - start).as_secs_f64());
        load.done_s.push((t1 - start).as_secs_f64());
        if spans {
            load.calls.push((t0, t1));
        }
        if t1 < deadline {
            submit(&mut queue, &mut n);
        }
    }
    load.peak_rss_mb = crate::probe::peak_rss_mb();
    load
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let xs = inputs(args.seed);
    let refs: Vec<Tensor> = {
        let (model, store) = mixer(args.seed);
        xs.iter().map(|x| model.predict(&store, x)).collect()
    };
    let mut setups = Setups::default();
    let server = setups.time(|| start(args.seed, &xs, &refs, &mut out));
    let phase = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let load = closed_loop(&server, &xs, &refs, phase, false);
    crate::probe::note_threads(&mut out.metrics);
    out.metrics.set("peak_rss_mb", load.peak_rss_mb);
    // Batching as the workload left it, before any traced pass adds to it.
    let max_batch = replica_config().max_batch;
    peel::report_serve_stats(&[server.stats()], max_batch, &mut out.metrics);
    out.attempted = load.attempted;
    out.failed = load.failed;
    out.check(load.failed == 0, || {
        format!("{} of {} requests failed", load.failed, load.attempted)
    });
    let fast = fast_load(
        SLICE_S,
        phase,
        &load.start_s,
        &load.done_s,
        load.lat.values(),
    );
    let m = &mut out.metrics;
    m.set("throughput_per_s", fast.rate);
    m.set("latency_p50_us", nearest_rank(&fast.sorted_us, 50.0));
    m.set("latency_p90_us", nearest_rank(&fast.sorted_us, 90.0));
    let every_op = load.lat.sorted();
    out.notes.push(fast.describe(&every_op));
    // The traced passes time every op, so their overhead is read against
    // every untraced op, not against the fastest slices' ops.
    let untraced_p50 = nearest_rank(&every_op, 50.0);
    if args.trace {
        peel_layers(
            &server,
            args.seed,
            &xs,
            &refs,
            untraced_p50,
            args.seconds / 2.0,
            &mut out,
        );
        // The same model and data, trained: the training-step layers.
        crate::train_step::trace(args.seed, &mut out);
    }
    let stats = server.shutdown();
    out.check(stats.ledger_balanced(), || {
        format!("server ledger unbalanced: {stats:?}")
    });
    // The other set-ups `setup_s` is taken over come after the measured
    // phase. Made before it, their servers' exited threads left malloc
    // arenas the measured server's threads took over: `peak_rss_mb` read
    // 76 to 111 MB across runs on a 2-vCPU guest, against 44 MB with one
    // set-up before the loop.
    if !args.trace {
        for _ in 1..SETUPS {
            let server = setups.time(|| start(args.seed, &xs, &refs, &mut out));
            let st = server.shutdown();
            out.check(st.ledger_balanced(), || {
                format!("set-up server ledger unbalanced: {st:?}")
            });
        }
    }
    out.metrics.set("setup_s", setups.fast());
    out.notes.push(setups.describe());
    out
}

/// The traced layer peel: the workload's own loop with spans, then the same
/// inputs sequentially through the server, the compiled plan and the tape.
fn peel_layers(
    server: &Server,
    seed: u64,
    xs: &[Tensor],
    refs: &[Tensor],
    untraced_p50: f64,
    secs: f64,
    out: &mut Outcome,
) {
    let mut log = SpanLog::new();
    let traced = closed_loop(server, xs, refs, secs, true);
    log.add_calls(
        "serve.infer",
        traced
            .calls
            .iter()
            .enumerate()
            .map(|(i, &(t0, t1))| (i as u64, t0, t1)),
    );
    out.check(traced.failed == 0, || {
        "traced pass had wrong or failed answers".into()
    });
    let infer_us = nearest_rank(&traced.lat.sorted(), 50.0);
    let serve_allocs = allocs_per_call(64, |i| {
        server
            .submit(xs[i % POOL].clone())
            .and_then(Pending::wait)
            .expect("sequential request answered");
    });
    let (model, store) = mixer(seed);
    let ag = peel::autograd(model.as_model(), &store, xs, 400);
    ag.report(&mut out.metrics);
    let own = self_times(&[infer_us, ag.plan_us]);
    let m = &mut out.metrics;
    m.set("serve.infer_us", infer_us);
    m.set("serve.self_us", own[0]);
    m.set("serve.allocs_per_req", serve_allocs);
    out.notes.push(format!(
        "tracing overhead: traced p50 {infer_us:.1} us − untraced p50 {untraced_p50:.1} us = {:.1} us",
        infer_us - untraced_p50
    ));
    out.notes.push(format!(
        "coverage: serve self {:.1} us + plan {:.1} us = {:.1}% of the untraced p50",
        own[0],
        own[1],
        100.0 * (own[0] + own[1]) / untraced_p50
    ));
    match log.write("serve_mixer") {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

//! Shared pieces of the serving workloads' layer peel: timed calls,
//! passes at a fixed concurrency, per-call allocation counts, and the
//! inference-layer (`autograd`) measurements of one model.

use std::time::Instant;

use msd_autograd::PlanArena;
use msd_nn::{Model, ParamStore};
use msd_tensor::Tensor;

use crate::probe::{counted, Metrics};
use crate::stats::{median, Latencies};

/// Runs `f` and returns its result with the elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// Runs `f` and returns its result with the instants around the call.
pub fn around<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let t0 = Instant::now();
    let out = f();
    (out, t0, Instant::now())
}

/// The calls of one peel pass: `(op, start, end, answer correct)`.
pub struct Pass {
    pub calls: Vec<(u64, Instant, Instant, bool)>,
}

impl Pass {
    /// Per-call µs, a wrong or failed answer counting as infinitely slow.
    pub fn latencies(&self) -> Latencies {
        let mut lat = Latencies::with_capacity(self.calls.len());
        for &(_, t0, t1, ok) in &self.calls {
            if ok {
                lat.ok((t1 - t0).as_secs_f64() * 1e6);
            } else {
                lat.failed();
            }
        }
        lat
    }

    pub fn p50(&self) -> f64 {
        crate::stats::nearest_rank(&self.latencies().sorted(), 50.0)
    }

    pub fn all_ok(&self) -> bool {
        self.calls.iter().all(|c| c.3)
    }
}

/// Calls `op(thread, i)` for `i in 0..per_thread` on each of `threads`
/// threads at once. `op` prepares its inputs, makes one measured call with
/// [`around`], and returns whether the answer was right with the call's
/// instants.
pub fn concurrent(
    threads: usize,
    per_thread: usize,
    op: impl Fn(usize, usize) -> (bool, Instant, Instant) + Sync,
) -> Pass {
    let op = &op;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (0..per_thread)
                        .map(|i| {
                            let (ok, t0, t1) = op(t, i);
                            ((t * per_thread + i) as u64, t0, t1, ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        Pass {
            calls: handles
                .into_iter()
                .flat_map(|h| h.join().expect("peel pass thread panicked"))
                .collect(),
        }
    })
}

/// Median allocations (every thread) per call of `f` over `n` sequential
/// calls, made after one uncounted warm-up call. The median is a count
/// one call really made, so it repeats exactly across runs even when a
/// rare call also grows a buffer.
pub fn allocs_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let counts: Vec<f64> = (0..n).map(|i| counted(|| f(i)).1 as f64).collect();
    median(&counts)
}

/// The `autograd` layer's inference numbers for one model.
pub struct Autograd {
    pub plan_us: f64,
    pub plan_batch_us: f64,
    pub tape_us: f64,
    pub plan_allocs: f64,
    pub compile_ms: f64,
}

/// Measures compiled-plan and tape inference of `model` on `xs` (each
/// `[1, C, L]`; at least 8), `reps` calls per median, on this thread.
pub fn autograd(model: &dyn Model, store: &ParamStore, xs: &[Tensor], reps: usize) -> Autograd {
    let shape1 = xs[0].shape().to_vec();
    let compile_ms = median(
        &(0..3)
            .map(|_| timed(|| model.compile_plan(store, &shape1).expect("plan compiles")).1 / 1e3)
            .collect::<Vec<_>>(),
    );
    let plan = model.compile_plan(store, &shape1).expect("plan compiles");
    let mut arena = PlanArena::new();
    let x = |i: usize| &xs[i % xs.len()];
    let plan_us = median(
        &(0..reps)
            .map(|i| timed(|| model.predict_plan(&plan, store, x(i), &mut arena)).1)
            .collect::<Vec<_>>(),
    );
    let plan_allocs = allocs_per_call(reps.min(64), |i| {
        model.predict_plan(&plan, store, x(i), &mut arena);
    });
    let tape_us = median(
        &(0..reps)
            .map(|i| timed(|| model.predict(store, x(i))).1)
            .collect::<Vec<_>>(),
    );
    let batch = Tensor::concat(&xs[..8].iter().collect::<Vec<_>>(), 0);
    let plan8 = model
        .compile_plan(store, batch.shape())
        .expect("batch plan compiles");
    let mut arena8 = PlanArena::new();
    let plan_batch_us = median(
        &(0..reps.div_ceil(4))
            .map(|_| timed(|| model.predict_plan(&plan8, store, &batch, &mut arena8)).1)
            .collect::<Vec<_>>(),
    );
    Autograd {
        plan_us,
        plan_batch_us,
        tape_us,
        plan_allocs,
        compile_ms,
    }
}

impl Autograd {
    pub fn report(&self, m: &mut Metrics) {
        m.set("autograd.plan_us", self.plan_us);
        m.set("autograd.plan_batch_us", self.plan_batch_us);
        m.set("autograd.tape_us", self.tape_us);
        m.set("autograd.plan_allocs", self.plan_allocs);
        m.set("autograd.compile_ms", self.compile_ms);
    }

    /// Mean of several models' numbers (the gateway fleet).
    pub fn mean(all: &[Autograd]) -> Autograd {
        let n = all.len() as f64;
        let avg = |f: fn(&Autograd) -> f64| all.iter().map(f).sum::<f64>() / n;
        Autograd {
            plan_us: avg(|a| a.plan_us),
            plan_batch_us: avg(|a| a.plan_batch_us),
            tape_us: avg(|a| a.tape_us),
            plan_allocs: avg(|a| a.plan_allocs),
            compile_ms: avg(|a| a.compile_ms),
        }
    }
}

/// `serve.*` counters aggregated over servers' final stats.
pub fn report_serve_stats(stats: &[msd_serve::ServeStats], max_batch: usize, m: &mut Metrics) {
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    let plan_batches: u64 = stats.iter().map(|s| s.plan_batches).sum();
    let batched: f64 = stats.iter().map(|s| s.mean_batch * s.batches as f64).sum();
    let mean_batch = batched / batches.max(1) as f64;
    m.set("serve.mean_batch", mean_batch);
    m.set("serve.batch_fill", mean_batch / max_batch as f64);
    m.set(
        "serve.plan_share",
        plan_batches as f64 / batches.max(1) as f64,
    );
    m.set(
        "serve.failed",
        stats
            .iter()
            .map(|s| s.rejected + s.failed + s.expired)
            .sum::<u64>() as f64,
    );
}

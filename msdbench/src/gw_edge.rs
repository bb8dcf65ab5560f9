//! `gw_edge`: the HTTP gateway over the demo fleet, as the `msd-gateway`
//! binary runs it by default. The models' plans are a few µs of a request
//! of a few hundred, so this workload carries the HTTP edge, routing, and
//! the serve runtime's coalescing wait and thread hand-offs; kernel and
//! plan changes should not move it.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use msd_autograd::PlanArena;
use msd_gateway::http::Client;
use msd_gateway::{router, wire, Gateway, GatewayConfig};
use msd_harness::gwdemo::DEMO_MODELS;
use msd_nn::{Model, PrecisionTier};
use msd_serve::{ServeConfig, ServeStats, Server};
use msd_tensor::Tensor;

use crate::peel::{self, allocs_per_call, around, concurrent, timed};
use crate::probe::{Setups, SpanLog};
use crate::stats::{fast_load, median, nearest_rank, reserved, self_times, Latencies, SLICE_S};
use crate::{derive, Args, Outcome};

const REPLICAS: usize = 2;
/// Keep-alive client connections, one thread each: `nproc` on the 2-vCPU
/// host the benchmark was sized on.
const CONNECTIONS: usize = 2;
/// Distinct inputs per model.
const POOL: usize = 256;
/// Set-ups per untraced run; `setup_s` is the mean of the fastest two.
const SETUPS: usize = 10;
/// Calls per thread in each traced peel pass.
const PEEL_CALLS: usize = 1000;

/// The serve runtime of one gateway replica: the `msd-gateway` binary's
/// defaults (2 workers, batches of up to 8, a 200 µs coalescing window,
/// compiled plans, f32).
pub fn replica_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(200),
        queue_cap: 256,
        workers: 2,
        events_path: None,
        use_plans: true,
        default_deadline: None,
        ..ServeConfig::default()
    }
}

/// Every input the run sends, with the bytes each answer must equal.
struct Fleet {
    paths: Vec<String>,
    inputs: Vec<Vec<Tensor>>,
    frames: Vec<Vec<Vec<u8>>>,
    /// Encoded `DemoModel::reference` of version 1 for each input.
    expected: Vec<Vec<Vec<u8>>>,
}

fn fleet(seed: u64) -> Fleet {
    let base = derive(seed, 10) >> 24;
    let inputs: Vec<Vec<Tensor>> = DEMO_MODELS
        .iter()
        .map(|m| (0..POOL as u64).map(|k| m.input(base + k)).collect())
        .collect();
    Fleet {
        paths: DEMO_MODELS
            .iter()
            .map(|m| format!("/v1/models/{}/predict", m.name))
            .collect(),
        frames: inputs
            .iter()
            .map(|xs| xs.iter().map(wire::encode_tensor).collect())
            .collect(),
        expected: DEMO_MODELS
            .iter()
            .zip(&inputs)
            .map(|(m, xs)| {
                xs.iter()
                    .map(|x| wire::encode_tensor(&m.reference(1, x)))
                    .collect()
            })
            .collect(),
        inputs,
    }
}

/// A key the router sends to `replica`.
fn key_for(replica: usize) -> String {
    (0u64..)
        .map(|k| format!("warm-{k}"))
        .find(|k| router::route(k.as_bytes(), REPLICAS) == replica)
        .expect("some key routes to every replica")
}

/// Starts the gateway, registers the fleet, opens the client connections,
/// and compiles a plan for every batch shape the measured phase can make
/// on every replica (batches of 1 up to one per connection).
fn start(fleet: &Fleet, out: &mut Outcome) -> (Gateway, Vec<Client>) {
    let gw = Gateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            serve: replica_config(),
            replicas: REPLICAS,
            ..GatewayConfig::default()
        },
    )
    .expect("bind gateway");
    for m in DEMO_MODELS {
        gw.registry()
            .register_tiered(
                m.name,
                m.factory(),
                Some(&m.params(1, PrecisionTier::F32)),
                Some(PrecisionTier::F32),
            )
            .expect("register demo model");
    }
    let registry = gw.registry();
    for (mi, m) in DEMO_MODELS.iter().enumerate() {
        for replica in 0..REPLICAS {
            let key = key_for(replica);
            for batch in 1..=CONNECTIONS {
                for _round in 0..3 {
                    let barrier = Barrier::new(batch);
                    let answers: Vec<bool> = std::thread::scope(|s| {
                        let handles: Vec<_> = (0..batch)
                            .map(|t| {
                                let (barrier, key) = (&barrier, &key);
                                s.spawn(move || {
                                    barrier.wait();
                                    registry
                                        .predict(
                                            m.name,
                                            key.as_bytes(),
                                            fleet.inputs[mi][t].clone(),
                                            None,
                                        )
                                        .is_ok_and(|ok| {
                                            wire::encode_tensor(&ok.y) == fleet.expected[mi][t]
                                        })
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("warm-up thread"))
                            .collect()
                    });
                    out.check(answers.iter().all(|&ok| ok), || {
                        format!("{} warm-up answer differs from its reference", m.name)
                    });
                }
            }
        }
    }
    // Connect last. The accept loop polls every 25 ms: connecting right
    // after `bind` raced its first poll, so a set-up took either the
    // warm-up (≈19 ms) or the poll (≈26 ms), depending on the race. Now
    // the first poll has always passed, and the warm-up overlaps the
    // loop's first wait.
    let addr = gw.local_addr().to_string();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(&addr).expect("connect to gateway"))
        .collect();
    for c in &mut clients {
        let ok = c
            .request("GET", "/healthz", &[], b"")
            .is_ok_and(|r| r.status == 200);
        out.check(ok, || "gateway health check failed".into());
    }
    (gw, clients)
}

/// What the closed loop measured.
struct Load {
    lat: Latencies,
    /// Start and completion of every request, in seconds since the loop
    /// started.
    start_s: Vec<f64>,
    done_s: Vec<f64>,
    /// Answers per (model, replica).
    per_replica: Vec<u64>,
    attempted: u64,
    failed: u64,
    clients: Vec<Client>,
    /// `VmHWM` when the loop ended.
    peak_rss_mb: f64,
}

/// Result room per connection: more requests than a 30 s run makes.
const PER_CONNECTION: usize = 1 << 17;

impl Load {
    /// An empty record with its result buffers reserved (see
    /// [`crate::stats::reserved`]).
    fn reserved(n: usize) -> Self {
        Load {
            lat: Latencies::with_capacity(n),
            start_s: reserved(n),
            done_s: reserved(n),
            per_replica: vec![0; DEMO_MODELS.len() * REPLICAS],
            attempted: 0,
            failed: 0,
            clients: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }
}

/// Closed loop for `secs`: each connection sends its next request when the
/// previous one is answered, alternating models, each request under its
/// own routing key; every answer is byte-compared with its reference.
fn closed_loop(clients: Vec<Client>, addr: &str, fleet: &Fleet, seed: u64, secs: f64) -> Load {
    let loads: Vec<Load> = (0..CONNECTIONS)
        .map(|_| Load::reserved(PER_CONNECTION))
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let results: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(loads)
            .enumerate()
            .map(|(conn, (mut client, mut load))| {
                s.spawn(move || {
                    let mut n = 0usize;
                    while Instant::now() < deadline {
                        let mi = n % DEMO_MODELS.len();
                        let k = (n / DEMO_MODELS.len() * CONNECTIONS + conn) % POOL;
                        let key = format!("{seed:x}-{conn}-{n}");
                        let t0 = Instant::now();
                        let resp = client.request(
                            "POST",
                            &fleet.paths[mi],
                            &[("X-Msd-Key", &key)],
                            &fleet.frames[mi][k],
                        );
                        let t1 = Instant::now();
                        let ok = match resp {
                            Ok(r) => {
                                let replica =
                                    r.header("x-msd-replica").and_then(|v| v.parse().ok());
                                if let Some(rep) = replica.filter(|&rep: &usize| rep < REPLICAS) {
                                    load.per_replica[mi * REPLICAS + rep] += 1;
                                }
                                r.status == 200
                                    && r.header("x-msd-model-version") == Some("1")
                                    && r.body == fleet.expected[mi][k]
                            }
                            Err(_) => {
                                // The connection is unusable; open another.
                                if let Ok(c) = Client::connect(addr) {
                                    client = c;
                                }
                                false
                            }
                        };
                        load.attempted += 1;
                        if ok {
                            load.lat.ok((t1 - t0).as_secs_f64() * 1e6);
                        } else {
                            load.failed += 1;
                            load.lat.failed();
                        }
                        load.start_s.push((t0 - start).as_secs_f64());
                        load.done_s.push((t1 - start).as_secs_f64());
                        n += 1;
                    }
                    load.clients.push(client);
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Before merging, which allocates in proportion to the requests made.
    let mut all = Load::reserved(0);
    all.peak_rss_mb = crate::probe::peak_rss_mb();
    for l in results {
        all.lat.extend(l.lat);
        all.start_s.extend(l.start_s);
        all.done_s.extend(l.done_s);
        for (a, b) in all.per_replica.iter_mut().zip(&l.per_replica) {
            *a += b;
        }
        all.attempted += l.attempted;
        all.failed += l.failed;
        all.clients.extend(l.clients);
    }
    all
}

/// Shuts the gateway down and checks that every replica server's ledger
/// balances once nothing is in flight.
fn shutdown(gw: Gateway, out: &mut Outcome) {
    let sets: Vec<_> = DEMO_MODELS
        .iter()
        .map(|m| {
            gw.registry()
                .current_set(m.name)
                .expect("model is registered")
        })
        .collect();
    gw.shutdown();
    for (i, s) in sets.iter().flat_map(|s| s.stats()).enumerate() {
        out.check(s.ledger_balanced(), || {
            format!("replica server {i} ledger unbalanced: {s:?}")
        });
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let fleet = fleet(args.seed);
    let mut setups = Setups::default();
    let (gw, clients) = setups.time(|| start(&fleet, &mut out));
    let phase = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let addr = gw.local_addr().to_string();
    let load = closed_loop(clients, &addr, &fleet, args.seed, phase);
    crate::probe::note_threads(&mut out.metrics);
    out.metrics.set("peak_rss_mb", load.peak_rss_mb);
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
    let total: u64 = load.per_replica.iter().sum();
    let busiest = load.per_replica.iter().copied().max().unwrap_or(0);
    out.metrics.set(
        "gateway.replica_max_share",
        busiest as f64 / total.max(1) as f64,
    );

    // Batching as the workload left it, before any traced pass adds to it.
    let load_stats: Vec<ServeStats> = DEMO_MODELS
        .iter()
        .flat_map(|m| {
            gw.registry()
                .current_set(m.name)
                .expect("model is registered")
                .stats()
        })
        .collect();
    peel::report_serve_stats(&load_stats, replica_config().max_batch, &mut out.metrics);
    if args.trace {
        peel_layers(&gw, load.clients, &fleet, untraced_p50, &mut out);
    } else {
        drop(load.clients);
    }
    shutdown(gw, &mut out);
    // The other set-ups `setup_s` is taken over come after the measured
    // phase: threads of a gateway shut down before it leave their malloc
    // arenas to the next gateway's, which moves `peak_rss_mb`.
    if !args.trace {
        for _ in 1..SETUPS {
            let (gw, clients) = setups.time(|| start(&fleet, &mut out));
            drop(clients);
            shutdown(gw, &mut out);
        }
    }
    out.metrics.set("setup_s", setups.fast());
    out.notes.push(setups.describe());
    out
}

/// The traced layer peel: the same inputs at the workload's concurrency,
/// entering at successively deeper public calls, then sequentially for
/// per-request allocation counts.
fn peel_layers(
    gw: &Gateway,
    clients: Vec<Client>,
    fleet: &Fleet,
    untraced_p50: f64,
    out: &mut Outcome,
) {
    let mut log = SpanLog::new();
    let registry = gw.registry();
    let n_models = DEMO_MODELS.len();
    let pick = |t: usize, i: usize| (i % n_models, (i / n_models * CONNECTIONS + t) % POOL);
    let key = |t: usize, i: usize| format!("peel-{t}-{i}");
    let clients: Vec<Mutex<Client>> = clients.into_iter().map(Mutex::new).collect();
    let check = |mi: usize, k: usize, y: &Tensor| wire::encode_tensor(y) == fleet.expected[mi][k];

    let http = concurrent(CONNECTIONS, PEEL_CALLS, |t, i| {
        let (mi, k) = pick(t, i);
        let key = key(t, i);
        let mut c = clients[t].lock().expect("client lock");
        let (r, t0, t1) = around(|| {
            c.request(
                "POST",
                &fleet.paths[mi],
                &[("X-Msd-Key", &key)],
                &fleet.frames[mi][k],
            )
        });
        (
            r.is_ok_and(|r| r.status == 200 && r.body == fleet.expected[mi][k]),
            t0,
            t1,
        )
    });
    let reg = concurrent(CONNECTIONS, PEEL_CALLS, |t, i| {
        let (mi, k) = pick(t, i);
        let (key, x) = (key(t, i), fleet.inputs[mi][k].clone());
        let (r, t0, t1) =
            around(|| registry.predict(DEMO_MODELS[mi].name, key.as_bytes(), x, None));
        (r.is_ok_and(|ok| check(mi, k, &ok.y)), t0, t1)
    });
    // One replica server per model, outside the registry.
    let servers: Vec<Server> = DEMO_MODELS
        .iter()
        .map(|m| {
            let (model, store) = m.build(m.seed_v1);
            Server::start(model, store, replica_config()).expect("start replica server")
        })
        .collect();
    let serve_call = |t: usize, i: usize| {
        let (mi, k) = pick(t, i);
        let x = fleet.inputs[mi][k].clone();
        let (r, t0, t1) = around(|| servers[mi].submit(x).and_then(|p| p.wait()));
        (r.is_ok_and(|y| check(mi, k, &y)), t0, t1)
    };
    concurrent(CONNECTIONS, PEEL_CALLS / 10, serve_call); // compiles this pool's plans
    let serve = concurrent(CONNECTIONS, PEEL_CALLS, serve_call);
    let models: Vec<_> = DEMO_MODELS.iter().map(|m| m.build(m.seed_v1)).collect();
    let plans: Vec<_> = DEMO_MODELS
        .iter()
        .zip(&models)
        .map(|(m, (model, store))| {
            model
                .compile_plan(store, &[1, m.channels, m.input_len])
                .expect("demo models compile")
        })
        .collect();
    let arenas: Vec<Vec<Mutex<PlanArena>>> = (0..CONNECTIONS)
        .map(|_| {
            (0..n_models)
                .map(|_| Mutex::new(PlanArena::new()))
                .collect()
        })
        .collect();
    let plan = concurrent(CONNECTIONS, PEEL_CALLS, |t, i| {
        let (mi, k) = pick(t, i);
        let (model, store) = &models[mi];
        let mut arena = arenas[t][mi].lock().expect("arena lock");
        let (y, t0, t1) =
            around(|| model.predict_plan(&plans[mi], store, &fleet.inputs[mi][k], &mut arena));
        (check(mi, k, &y), t0, t1)
    });
    let tape = concurrent(CONNECTIONS, PEEL_CALLS, |t, i| {
        let (mi, k) = pick(t, i);
        let (model, store) = &models[mi];
        let (y, t0, t1) = around(|| model.predict(store, &fleet.inputs[mi][k]));
        (check(mi, k, &y), t0, t1)
    });
    for (name, pass) in [
        ("gateway.http", &http),
        ("gateway.registry", &reg),
        ("serve.infer", &serve),
        ("autograd.plan", &plan),
        ("autograd.tape", &tape),
    ] {
        log.add_calls(name, pass.calls.iter().map(|&(op, t0, t1, _)| (op, t0, t1)));
        out.check(pass.all_ok(), || {
            format!("{name} pass had wrong or failed answers")
        });
    }
    let depth = [http.p50(), reg.p50(), serve.p50(), plan.p50()];
    let own = self_times(&depth);
    let m = &mut out.metrics;
    m.set("gateway.http_us", depth[0]);
    m.set("gateway.registry_us", depth[1]);
    m.set("serve.infer_us", depth[2]);
    m.set("autograd.plan_us", depth[3]);
    m.set("autograd.tape_us", tape.p50());
    m.set("gateway.edge_self_us", own[0]);
    m.set("gateway.route_self_us", own[1]);
    m.set("serve.self_us", own[2]);

    // Sequential passes: one request in flight, allocations of every
    // thread counted, per model.
    let mut per_model = Vec::new();
    for (mi, m) in DEMO_MODELS.iter().enumerate() {
        let key = key_for(0);
        let mut c = clients[0].lock().expect("client lock");
        let x = |i: usize| fleet.inputs[mi][i % POOL].clone();
        let http_a = allocs_per_call(200, |i| {
            c.request(
                "POST",
                &fleet.paths[mi],
                &[("X-Msd-Key", &key)],
                &fleet.frames[mi][i % POOL],
            )
            .expect("sequential http request");
        });
        let inputs: Vec<Tensor> = (0..200).map(x).collect();
        let reg_a = allocs_per_call(200, |i| {
            registry
                .predict(m.name, key.as_bytes(), inputs[i].clone(), None)
                .expect("registry predict");
        });
        let serve_a = allocs_per_call(200, |i| {
            servers[mi]
                .submit(inputs[i].clone())
                .and_then(|p| p.wait())
                .expect("serve predict");
        });
        let (model, store) = &models[mi];
        let ag = peel::autograd(model.as_model(), store, &fleet.inputs[mi], 2000);
        out.notes.push(format!(
            "{}: allocations per request http {http_a} / registry {reg_a} / serve {serve_a} / plan {}; \
             plan {:.2} us, plan batch 8 {:.2} us, tape {:.2} us, compile {:.3} ms (sequential)",
            m.name, ag.plan_allocs, ag.plan_us, ag.plan_batch_us, ag.tape_us, ag.compile_ms
        ));
        per_model.push((http_a, serve_a, ag));
    }
    let n = per_model.len() as f64;
    let m = &mut out.metrics;
    m.set(
        "gateway.allocs_per_req",
        per_model.iter().map(|p| p.0).sum::<f64>() / n,
    );
    m.set(
        "serve.allocs_per_req",
        per_model.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let ag = peel::Autograd::mean(&per_model.into_iter().map(|p| p.2).collect::<Vec<_>>());
    m.set("autograd.plan_batch_us", ag.plan_batch_us);
    m.set("autograd.plan_allocs", ag.plan_allocs);
    m.set("autograd.compile_ms", ag.compile_ms);

    // The wire codec on the same frames: request decode, answer encode,
    // answer decode.
    let wire_us: Vec<f64> = (0..n_models)
        .flat_map(|mi| (0..POOL).map(move |k| (mi, k)))
        .map(|(mi, k)| {
            timed(|| {
                let x = wire::decode_tensor(&fleet.frames[mi][k]).expect("request frame decodes");
                let y = wire::decode_tensor(&fleet.expected[mi][k]).expect("answer frame decodes");
                (wire::encode_tensor(&y), x)
            })
            .1
        })
        .collect();
    m.set("gateway.wire_us", median(&wire_us));

    for s in servers {
        let st = s.shutdown();
        out.check(st.ledger_balanced(), || {
            format!("peel server ledger unbalanced: {st:?}")
        });
    }
    let covered: f64 = own.iter().sum();
    out.notes.push(format!(
        "tracing overhead: traced HTTP p50 {:.1} us − untraced p50 {:.1} us = {:.1} us",
        depth[0],
        untraced_p50,
        depth[0] - untraced_p50
    ));
    out.notes.push(format!(
        "coverage: layer self times sum to {:.1} us = {:.1}% of the untraced p50",
        covered,
        100.0 * covered / untraced_p50
    ));
    match log.write("gw_edge") {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

//! End-to-end gateway tests over real sockets: endpoint behaviour,
//! byte-identity of predictions with sequential `Model::predict`, routing
//! determinism, typed overload, all-or-nothing swap, drained shutdown, and
//! the seeded hot-swap-under-load property (zero lost, byte-identical per
//! admitted version).

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use msd_gateway::http::Client;
use msd_gateway::loadgen::{run_tcp_open_loop, TcpLoadSpec, TcpRequest};
use msd_gateway::router::route;
use msd_gateway::{wire, Gateway, GatewayConfig, ModelFactory, Registry};
use msd_nn::{Ctx, DynModel, Linear, Model, ModelOutput, ParamStore, Task};
use msd_serve::ServeConfig;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

/// A linear forecaster over the flattened input — the same shape of test
/// model the serve suite uses, with a parameterised init seed so distinct
/// "versions" of the same architecture have distinct numbers.
struct Affine {
    task: Task,
    lin: Linear,
    out_channels: usize,
    in_len: usize,
}

const CHANNELS: usize = 2;
const LEN: usize = 6;
const HORIZON: usize = 4;

impl Affine {
    fn new(store: &mut ParamStore, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        Affine {
            task: Task::Forecast { horizon: HORIZON },
            lin: Linear::new(
                store,
                &mut rng,
                "affine",
                CHANNELS * LEN,
                CHANNELS * HORIZON,
            ),
            out_channels: CHANNELS,
            in_len: CHANNELS * LEN,
        }
    }
}

impl Model for Affine {
    fn name(&self) -> &str {
        "affine"
    }
    fn task(&self) -> &Task {
        &self.task
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        let b = x.shape()[0];
        let v = ctx.g.input(x.reshape(&[b, self.in_len]));
        let y = self.lin.forward(ctx, v);
        ModelOutput::pred_only(ctx.g.reshape(y, &[b, self.out_channels, HORIZON]))
    }
}

/// [`Affine`] with a per-sample delay, for queue-pressure tests.
struct SlowAffine(Affine, Duration);

impl Model for SlowAffine {
    fn name(&self) -> &str {
        "slow-affine"
    }
    fn task(&self) -> &Task {
        self.0.task()
    }
    fn forward(&self, ctx: &Ctx, x: &Tensor) -> ModelOutput {
        std::thread::sleep(self.1);
        self.0.forward(ctx, x)
    }
}

fn affine_factory(seed: u64) -> ModelFactory {
    Box::new(move || {
        let mut store = ParamStore::new();
        let model = Affine::new(&mut store, seed);
        (Box::new(model) as DynModel, store)
    })
}

fn slow_factory(seed: u64, delay: Duration) -> ModelFactory {
    Box::new(move || {
        let mut store = ParamStore::new();
        let model = SlowAffine(Affine::new(&mut store, seed), delay);
        (Box::new(model) as DynModel, store)
    })
}

/// An encoded parameter blob for the Affine architecture at `seed`.
fn params_blob(seed: u64) -> Vec<u8> {
    let mut store = ParamStore::new();
    let _ = Affine::new(&mut store, seed);
    msd_nn::store::encode(&store)
}

/// Sequential single-sample reference for the Affine version at `seed`.
fn reference_predict(seed: u64, x: &Tensor) -> Tensor {
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, seed);
    model.predict(&store, x)
}

fn sample(seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(&[1, CHANNELS, LEN], 1.0, &mut rng)
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

fn quick_cfg(replicas: usize) -> GatewayConfig {
    GatewayConfig {
        serve: ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(200),
            queue_cap: 256,
            workers: 2,
            events_path: None,
            use_plans: true,
            ..ServeConfig::default()
        },
        replicas,
        ..GatewayConfig::default()
    }
}

#[test]
fn endpoints_answer_and_predictions_are_bit_identical_to_sequential() {
    let gw = Gateway::bind("127.0.0.1:0", quick_cfg(2)).unwrap();
    gw.registry()
        .register("fc", affine_factory(11), None)
        .unwrap();
    let addr = gw.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Health and listings.
    let health = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!(health.status, 200);
    let health_body = String::from_utf8(health.body).unwrap();
    assert!(health_body.contains("\"status\":\"ok\""), "{health_body}");
    assert!(health_body.contains("\"fc\""), "{health_body}");
    let listing = client.request("GET", "/v1/models", &[], b"").unwrap();
    assert_eq!(listing.status, 200);
    let listing_body = String::from_utf8(listing.body).unwrap();
    assert!(
        listing_body.contains("{\"name\":\"fc\",\"version\":1,\"tier\":\"f32\"}"),
        "{listing_body}"
    );

    // Predictions: byte-identical to sequential predict, with the routing
    // contract visible in the replica header.
    for i in 0..16u64 {
        let x = sample(500 + i);
        let key = format!("series-{i}");
        let resp = client
            .request(
                "POST",
                "/v1/models/fc/predict",
                &[("X-Msd-Key", key.as_str())],
                &wire::encode_tensor(&x),
            )
            .unwrap();
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert_eq!(resp.header("content-type"), Some(wire::CONTENT_TYPE));
        assert_eq!(resp.header("x-msd-model-version"), Some("1"));
        let replica: usize = resp.header("x-msd-replica").unwrap().parse().unwrap();
        assert_eq!(replica, route(key.as_bytes(), 2), "routing contract");
        let y = wire::decode_tensor(&resp.body).unwrap();
        assert_bits_equal(&y, &reference_predict(11, &x), &format!("req {i}"));
    }

    // Stats expose the traffic just driven.
    let stats = client.request("GET", "/stats", &[], b"").unwrap();
    assert_eq!(stats.status, 200);
    let stats_body = String::from_utf8(stats.body).unwrap();
    assert!(stats_body.contains("\"model\":\"fc\""), "{stats_body}");
    assert!(stats_body.contains("\"submitted\":16"), "{stats_body}");

    gw.shutdown();
}

#[test]
fn error_paths_map_to_typed_statuses() {
    let gw = Gateway::bind("127.0.0.1:0", quick_cfg(1)).unwrap();
    gw.registry()
        .register("fc", affine_factory(11), None)
        .unwrap();
    let addr = gw.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let frame = wire::encode_tensor(&sample(1));

    // Unknown model.
    let r = client
        .request("POST", "/v1/models/nope/predict", &[], &frame)
        .unwrap();
    assert_eq!(r.status, 404);
    assert!(String::from_utf8(r.body).unwrap().contains("\"error\""));
    // Unknown paths and unsupported method.
    assert_eq!(
        client.request("GET", "/nope", &[], b"").unwrap().status,
        404
    );
    assert_eq!(
        client
            .request("POST", "/v1/models//predict", &[], &frame)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client.request("PUT", "/healthz", &[], b"").unwrap().status,
        405
    );
    // Bad frame bytes.
    let r = client
        .request("POST", "/v1/models/fc/predict", &[], b"garbage")
        .unwrap();
    assert_eq!(r.status, 400);
    // Wrong leading batch axis.
    let mut rng = Rng::seed_from(3);
    let batch2 = Tensor::randn(&[2, CHANNELS, LEN], 1.0, &mut rng);
    let r = client
        .request(
            "POST",
            "/v1/models/fc/predict",
            &[],
            &wire::encode_tensor(&batch2),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    // The connection stayed healthy through all of that.
    let r = client
        .request("POST", "/v1/models/fc/predict", &[], &frame)
        .unwrap();
    assert_eq!(r.status, 200);
    gw.shutdown();
}

#[test]
fn swap_is_all_or_nothing_and_versions_are_byte_accurate() {
    let gw = Gateway::bind("127.0.0.1:0", quick_cfg(2)).unwrap();
    gw.registry()
        .register("fc", affine_factory(11), None)
        .unwrap();
    let addr = gw.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let x = sample(900);
    let frame = wire::encode_tensor(&x);

    // A garbage blob is rejected and the old version keeps serving.
    let r = client
        .request("POST", "/v1/models/fc/swap", &[], b"not a param store")
        .unwrap();
    assert_eq!(r.status, 400);
    let r = client
        .request("POST", "/v1/models/fc/predict", &[], &frame)
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-msd-model-version"), Some("1"));
    assert_bits_equal(
        &wire::decode_tensor(&r.body).unwrap(),
        &reference_predict(11, &x),
        "post-failed-swap",
    );

    // Swapping an unknown model is 404.
    let r = client
        .request("POST", "/v1/models/nope/swap", &[], &params_blob(31))
        .unwrap();
    assert_eq!(r.status, 404);

    // A valid blob publishes version 3 (the failed attempt consumed 2) and
    // predictions now match the new parameters bit-for-bit.
    let r = client
        .request("POST", "/v1/models/fc/swap", &[], &params_blob(31))
        .unwrap();
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    let swap_body = String::from_utf8(r.body).unwrap();
    assert!(swap_body.contains("\"model\":\"fc\""), "{swap_body}");
    let r = client
        .request("POST", "/v1/models/fc/predict", &[], &frame)
        .unwrap();
    assert_eq!(r.status, 200);
    assert_bits_equal(
        &wire::decode_tensor(&r.body).unwrap(),
        &reference_predict(31, &x),
        "post-swap",
    );
    gw.shutdown();
}

#[test]
fn overload_answers_429_and_loses_nothing() {
    let mut cfg = quick_cfg(1);
    cfg.serve = ServeConfig {
        max_batch: 1,
        max_wait: Duration::ZERO,
        queue_cap: 2,
        workers: 1,
        events_path: None,
        use_plans: true,
        ..ServeConfig::default()
    };
    let gw = Gateway::bind("127.0.0.1:0", cfg).unwrap();
    gw.registry()
        .register("slow", slow_factory(11, Duration::from_millis(5)), None)
        .unwrap();
    let addr = gw.local_addr().to_string();

    let requests: Vec<TcpRequest> = (0..40u64)
        .map(|i| TcpRequest {
            model: "slow".into(),
            key: format!("k{i}"),
            body: wire::encode_tensor(&sample(i)),
        })
        .collect();
    // 8 concurrent connections against queue_cap 2 and one 5 ms/sample
    // worker: admission pressure is guaranteed.
    let outcome = run_tcp_open_loop(
        &addr,
        &requests,
        &TcpLoadSpec {
            rate_rps: 0.0,
            connections: 8,
            seed: 1,
            max_burst: 0,
            ..TcpLoadSpec::default()
        },
    );
    assert_eq!(outcome.lost(), 0, "no request may vanish");
    let ok = outcome.count_status(200);
    let rejected = outcome.count_status(429);
    assert_eq!(ok + rejected, 40, "only 200 and 429 expected");
    assert!(ok > 0, "some requests must get through");
    assert!(rejected > 0, "queue_cap 2 under 8 connections must shed");
    // Shed requests carry the typed JSON error.
    let shed = outcome
        .responses
        .iter()
        .flatten()
        .find(|r| r.status == 429)
        .unwrap();
    assert!(String::from_utf8(shed.body.clone())
        .unwrap()
        .contains("admission queue full"));
    gw.shutdown();
}

#[test]
fn shutdown_drains_the_in_flight_request() {
    let gw = Gateway::bind("127.0.0.1:0", quick_cfg(1)).unwrap();
    gw.registry()
        .register("slow", slow_factory(11, Duration::from_millis(80)), None)
        .unwrap();
    let addr = gw.local_addr().to_string();
    let x = sample(7);
    let handle = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).unwrap();
        client
            .request(
                "POST",
                "/v1/models/slow/predict",
                &[],
                &wire::encode_tensor(&x),
            )
            .unwrap()
    });
    // Wait (bounded) until the replica has admitted the request, then shut
    // down underneath it. A fixed sleep could lose the race on a slow host
    // and close the connection before the request was read.
    let admitted = || gw.registry().current_set("slow").unwrap().stats()[0].submitted;
    let deadline = Instant::now() + Duration::from_secs(10);
    while admitted() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    gw.shutdown();
    let resp = handle.join().unwrap();
    assert_eq!(resp.status, 200, "in-flight request must drain, not drop");
    assert_bits_equal(
        &wire::decode_tensor(&resp.body).unwrap(),
        &reference_predict(11, &sample(7)),
        "drained response",
    );
}

/// The median of five runs of `f`: one slow run on a shared host moves
/// it no more than one fast run does.
fn median_of_5(mut f: impl FnMut() -> Duration) -> Duration {
    let mut runs: Vec<Duration> = (0..5).map(|_| f()).collect();
    runs.sort();
    runs[2]
}

/// The accept thread blocks in `accept()`, so a connection made right after
/// `bind` is served at once; an accept loop that slept between polls made it
/// wait out the poll.
#[test]
fn a_client_connecting_right_after_bind_is_answered_at_once() {
    let median = median_of_5(|| {
        let gw = Gateway::bind("127.0.0.1:0", quick_cfg(1)).unwrap();
        let addr = gw.local_addr().to_string();
        std::thread::sleep(Duration::from_millis(2));
        let t0 = Instant::now();
        let mut client = Client::connect(&addr).unwrap();
        let resp = client.request("GET", "/healthz", &[], b"").unwrap();
        let took = t0.elapsed();
        assert_eq!(resp.status, 200);
        drop(client);
        gw.shutdown();
        took
    });
    assert!(
        median < Duration::from_millis(5),
        "first /healthz took {median:?} (median of 5)"
    );
}

/// Shutdown wakes the accept thread with one connection and every handler
/// by half-closing its socket: idle keep-alive clients and a half-sent head
/// release their threads at once, and the half-sent client reads a close.
#[test]
fn shutdown_is_prompt_with_idle_and_half_sent_connections() {
    let median = median_of_5(|| {
        let gw = Gateway::bind("127.0.0.1:0", quick_cfg(1)).unwrap();
        let addr = gw.local_addr().to_string();
        let idle: Vec<Client> = (0..3)
            .map(|_| {
                let mut c = Client::connect(&addr).unwrap();
                assert_eq!(c.request("GET", "/healthz", &[], b"").unwrap().status, 200);
                c
            })
            .collect();
        // One full request first, so the connection has a handler, then
        // half a head that never ends.
        let mut half = TcpStream::connect(&addr).unwrap();
        half.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        half.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = Vec::new();
        let mut buf = [0u8; 512];
        while !reply.ends_with(b"]}") {
            let n = half.read(&mut buf).unwrap();
            assert!(n > 0, "closed before answering /healthz");
            reply.extend_from_slice(&buf[..n]);
        }
        half.write_all(b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Le")
            .unwrap();
        let t0 = Instant::now();
        gw.shutdown();
        let took = t0.elapsed();
        match half.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("half-sent client read {other:?}, not a close"),
        }
        drop(idle);
        took
    });
    assert!(
        median < Duration::from_millis(5),
        "shutdown took {median:?} (median of 5)"
    );
}

/// Bound to the unspecified address, the gateway answers on loopback, and
/// shutdown's wake connection goes to loopback too: shutdown returns at
/// once with the listener closed, so the port can be bound again.
#[test]
fn a_gateway_bound_to_the_unspecified_address_answers_on_loopback_and_stops() {
    let gw = Gateway::bind("0.0.0.0:0", quick_cfg(1)).unwrap();
    let port = gw.local_addr().port();
    let mut client = Client::connect(&format!("127.0.0.1:{port}")).unwrap();
    assert_eq!(
        client.request("GET", "/healthz", &[], b"").unwrap().status,
        200
    );
    let t0 = Instant::now();
    gw.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    TcpListener::bind(("0.0.0.0", port)).expect("shutdown released the port");
}

/// Satellite 4: the seeded hot-swap property. A sustained paced load runs
/// while the model is swapped mid-flight; zero requests are lost, and every
/// response is byte-identical to sequential `Model::predict` under whichever
/// version the gateway says admitted it.
#[test]
fn hot_swap_under_sustained_load_is_lossless_and_byte_identical() {
    const SEED_V1: u64 = 11;
    const SEED_V2: u64 = 31;
    const REQUESTS: usize = 300;

    let gw = Gateway::bind("127.0.0.1:0", quick_cfg(2)).unwrap();
    gw.registry()
        .register("fc", affine_factory(SEED_V1), None)
        .unwrap();
    let addr = gw.local_addr().to_string();

    let inputs: Vec<Tensor> = (0..REQUESTS as u64).map(|i| sample(3000 + i)).collect();
    let requests: Vec<TcpRequest> = inputs
        .iter()
        .enumerate()
        .map(|(i, x)| TcpRequest {
            model: "fc".into(),
            key: format!("key-{i}"),
            body: wire::encode_tensor(x),
        })
        .collect();

    // ~1.5 s of paced load; the swap lands ~250 ms in, so both versions see
    // real traffic.
    let spec = TcpLoadSpec {
        rate_rps: 200.0,
        connections: 4,
        seed: 42,
        max_burst: 16,
        ..TcpLoadSpec::default()
    };
    let swap_addr = addr.clone();
    let swapper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        let mut client = Client::connect(&swap_addr).unwrap();
        let r = client
            .request("POST", "/v1/models/fc/swap", &[], &params_blob(SEED_V2))
            .unwrap();
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    });
    let outcome = run_tcp_open_loop(&addr, &requests, &spec);
    swapper.join().unwrap();

    assert_eq!(outcome.lost(), 0, "hot swap must not lose a single request");
    let mut seen = [0usize; 2];
    for (i, resp) in outcome.responses.iter().enumerate() {
        let resp = resp.as_ref().unwrap();
        assert_eq!(resp.status, 200, "request {i}");
        let version = resp.version.expect("version header echoed");
        let seed = match version {
            1 => SEED_V1,
            2 => SEED_V2,
            v => panic!("request {i}: impossible version {v}"),
        };
        seen[version as usize - 1] += 1;
        let replica = resp.replica.expect("replica header echoed");
        assert_eq!(
            replica,
            route(format!("key-{i}").as_bytes(), 2),
            "request {i}: routing must stay deterministic across the swap"
        );
        assert_bits_equal(
            &wire::decode_tensor(&resp.body).unwrap(),
            &reference_predict(seed, &inputs[i]),
            &format!("request {i} (version {version})"),
        );
    }
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "both versions must serve real traffic, saw {seen:?}"
    );
    gw.shutdown();
}

/// An encoded Affine parameter blob at an explicit precision tier.
fn tiered_blob(seed: u64, tier: msd_nn::PrecisionTier) -> Vec<u8> {
    let mut store = ParamStore::new();
    let _ = Affine::new(&mut store, seed);
    msd_nn::ArtifactWriter::new(tier)
        .encode(&store)
        .expect("affine weights are finite")
}

/// Sequential reference for the Affine version at `seed` served from a
/// `tier` artifact: predict on the round-tripped store for f32/f16 (plans
/// are bit-identical to predict), the compiled plan for int8 (which
/// `compile_plan` lowers; bit-identical across kernel tiers, thread
/// counts, and batch compositions).
fn tiered_reference(seed: u64, tier: msd_nn::PrecisionTier, x: &Tensor) -> Tensor {
    let mut store = ParamStore::new();
    let model = Affine::new(&mut store, seed);
    msd_nn::ArtifactReader::decode(&tiered_blob(seed, tier))
        .and_then(|r| r.load_into(&mut store))
        .unwrap();
    match tier {
        msd_nn::PrecisionTier::Int8 => {
            let plan = model.compile_plan(&store, x.shape()).unwrap();
            assert!(plan.int8_steps() > 0, "affine must lower to int8");
            model.predict_plan(&plan, &store, x, &mut msd_autograd::PlanArena::new())
        }
        _ => model.predict(&store, x),
    }
}

#[test]
fn int8_swap_on_a_tape_only_registry_fails_and_the_old_version_keeps_serving() {
    use msd_nn::PrecisionTier;

    let serve = ServeConfig {
        use_plans: false,
        ..quick_cfg(2).serve
    };
    let registry = Registry::new(serve, 2);
    registry.register("fc", affine_factory(11), None).unwrap();
    let err = registry
        .swap_tiered(
            "fc",
            &tiered_blob(31, PrecisionTier::Int8),
            Some(PrecisionTier::Int8),
        )
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert_eq!(registry.version("fc").unwrap(), 1);
    assert_eq!(registry.tier("fc").unwrap(), PrecisionTier::F32);
    let x = sample(910);
    let ok = registry.predict("fc", b"k", x.clone(), None).unwrap();
    assert_eq!((ok.version, ok.tier), (1, PrecisionTier::F32));
    assert_bits_equal(
        &ok.y,
        &reference_predict(11, &x),
        "v1 after the refused swap",
    );
    registry.shutdown();
}

#[test]
fn quantized_tiers_round_the_gateway_with_no_silent_fallback() {
    use msd_nn::PrecisionTier;

    let gw = Gateway::bind("127.0.0.1:0", quick_cfg(2)).unwrap();
    gw.registry()
        .register_tiered(
            "fc",
            affine_factory(11),
            Some(&tiered_blob(11, PrecisionTier::Int8)),
            Some(PrecisionTier::Int8),
        )
        .unwrap();
    let addr = gw.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // The listing declares the serving tier.
    let listing = client.request("GET", "/v1/models", &[], b"").unwrap();
    let listing_body = String::from_utf8(listing.body).unwrap();
    assert!(
        listing_body.contains("{\"name\":\"fc\",\"version\":1,\"tier\":\"int8\"}"),
        "{listing_body}"
    );

    // Predictions echo the tier and match the lowered-plan reference bits.
    for i in 0..6u64 {
        let x = sample(700 + i);
        let resp = client
            .request(
                "POST",
                "/v1/models/fc/predict",
                &[],
                &wire::encode_tensor(&x),
            )
            .unwrap();
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert_eq!(resp.header("x-msd-tier"), Some("int8"));
        assert_bits_equal(
            &wire::decode_tensor(&resp.body).unwrap(),
            &tiered_reference(11, PrecisionTier::Int8, &x),
            &format!("int8 req {i}"),
        );
    }

    // Stats carry the per-model tier and the per-tier aggregate.
    let stats = client.request("GET", "/stats", &[], b"").unwrap();
    let stats_body = String::from_utf8(stats.body).unwrap();
    assert!(stats_body.contains("\"tier\":\"int8\""), "{stats_body}");
    assert!(
        stats_body.contains("\"tiers\":[{\"tier\":\"int8\",\"models\":1"),
        "{stats_body}"
    );

    // An unknown tier name on swap is a typed 400 before the blob is read.
    let r = client
        .request(
            "POST",
            "/v1/models/fc/swap",
            &[("X-Msd-Tier", "bf16")],
            &tiered_blob(31, PrecisionTier::F16),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    let body = String::from_utf8(r.body).unwrap();
    assert!(body.contains("unknown tier"), "{body}");

    // A declared tier the artifact does not carry is rejected — the old
    // int8 version keeps serving, never a silent fallback.
    let r = client
        .request(
            "POST",
            "/v1/models/fc/swap",
            &[("X-Msd-Tier", "f16")],
            &params_blob(31),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    let body = String::from_utf8(r.body).unwrap();
    assert!(body.contains("precision tier mismatch"), "{body}");
    let x = sample(900);
    let r = client
        .request(
            "POST",
            "/v1/models/fc/predict",
            &[],
            &wire::encode_tensor(&x),
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-msd-tier"), Some("int8"));
    assert_eq!(r.header("x-msd-model-version"), Some("1"));

    // A matching declared tier swaps cleanly and the tier follows.
    let r = client
        .request(
            "POST",
            "/v1/models/fc/swap",
            &[("X-Msd-Tier", "f16")],
            &tiered_blob(31, PrecisionTier::F16),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    let body = String::from_utf8(r.body).unwrap();
    assert!(body.contains("\"tier\":\"f16\""), "{body}");
    let r = client
        .request(
            "POST",
            "/v1/models/fc/predict",
            &[],
            &wire::encode_tensor(&x),
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-msd-tier"), Some("f16"));
    assert_bits_equal(
        &wire::decode_tensor(&r.body).unwrap(),
        &tiered_reference(31, PrecisionTier::F16, &x),
        "post-tier-swap",
    );

    gw.shutdown();
}

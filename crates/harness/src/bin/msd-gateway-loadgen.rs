//! Open-loop TCP load generator and differential checker for a live
//! `msd-gateway` instance serving the demo fleet.
//!
//! Every run is a *differential* run, not just a throughput run: the
//! generator rebuilds the demo models locally ([`msd_harness::gwdemo`]) and
//! byte-compares each 200 response against sequential `Model::predict` for
//! the version named in the response's `X-Msd-Model-Version` header. Any
//! mismatch, any lost request (no response at all), or any status outside
//! {200, 429} exits non-zero — a latency number can never be bought with
//! wrong or dropped answers. Under an armed fault plan, `--tolerate-faults`
//! widens the accepted set to the typed degradation statuses {500, 503,
//! 504} while keeping losses and byte mismatches fatal, `--retry-budget`
//! turns on the client-side retry loop, and `--check-ledger` closes the run
//! by asserting every replica's request ledger balances via GET /stats.
//!
//! `--rates` sweeps sustained offered rates, appending one
//! RPS-vs-latency row per rate to `--out` (default
//! `target/BENCH_gateway.json`, the CI artifact). `--swap-after-ms` fires a
//! hot-swap of the first demo model to its v2 parameters mid-run; the
//! differential check then verifies *both* versions' bytes.
//!
//! ```text
//! msd-gateway --demo --addr-file target/gw.addr &
//! msd-gateway-loadgen --target "$(cat target/gw.addr)" \
//!     --requests 500 --connections 4 --swap-after-ms 150
//! ```

use std::io::Write as _;
use std::time::Duration;

use msd_gateway::http::Client;
use msd_gateway::loadgen::{run_tcp_open_loop, GatewayBenchRow, TcpLoadSpec, TcpRequest};
use msd_gateway::wire;
use msd_harness::gwdemo::{find, DEMO_MODELS};
use msd_nn::PrecisionTier;
use msd_tensor::Tensor;

fn usage() -> ! {
    eprintln!(
        "usage: msd-gateway-loadgen --target <ip:port> [options]\n\
           --target <ip:port>    gateway address (required)\n\
           --requests <n>        requests per rate, mixed across the demo fleet (default 400)\n\
           --connections <n>     concurrent keep-alive connections (default 4)\n\
           --rates <csv>         offered rates to sweep, rps; 0 = unpaced (default 0)\n\
           --seed <n>            arrival-schedule seed (default 42)\n\
           --max-burst <n>       per-connection catch-up burst cap (default 16)\n\
           --retry-budget <n>    extra attempts per request on 429/500/503/504 (default 0)\n\
           --deadline-ms <n>     send X-Msd-Deadline-Ms on every request\n\
           --tolerate-faults     accept typed fault statuses 500/503/504 after retries;\n\
                                 lost requests and byte mismatches stay fatal\n\
           --check-ledger        GET /stats after the sweep and fail unless every\n\
                                 model and replica balances completed+failed+\n\
                                 rejected+expired == submitted\n\
           --swap-after-ms <n>   hot-swap {first} to v2 this long into the first rate\n\
           --expect-tier <t>     require every 200 to carry X-Msd-Tier: <t> and check\n\
                                 bytes against the tier's reference (f32|f16|int8;\n\
                                 default f32, matching a gateway without --tier)\n\
           --out <path>          JSONL report sink (default target/BENCH_gateway.json)",
        first = DEMO_MODELS[0].name
    );
    std::process::exit(2)
}

/// Extracts every `"key":<u64>` occurrence from a JSON blob, in document
/// order. The /stats document nests replica serve-stats inside per-model
/// aggregates; each object carries each ledger key exactly once, so the
/// i-th occurrence of every key belongs to the same object.
fn json_u64s(doc: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(n) = digits.parse() {
            out.push(n);
        }
    }
    out
}

/// Fetches /stats and verifies the request ledger of every object
/// (model aggregate and individual replica) balances. Returns the number
/// of unbalanced objects, printing one line per offender.
fn check_ledger(target: &str) -> usize {
    // Under a chaos plan, /stats is one more arrival at the connection-drop
    // point, so it can land on a scheduled drop (seed 42 drops arrival 523,
    // which /stats is after exactly 23 retries). Ask again on a fresh
    // connection, as the retrying client does for model requests; what is
    // asserted about the ledger does not change.
    let resp = (0..3)
        .find_map(|_| {
            Client::connect(target)
                .and_then(|mut client| client.request("GET", "/stats", &[], &[]))
                .ok()
        })
        .expect("GET /stats failed on three connections");
    assert_eq!(resp.status, 200, "GET /stats returned {}", resp.status);
    let doc = String::from_utf8_lossy(&resp.body).into_owned();
    let submitted = json_u64s(&doc, "submitted");
    let completed = json_u64s(&doc, "completed");
    let rejected = json_u64s(&doc, "rejected");
    let failed = json_u64s(&doc, "failed");
    let expired = json_u64s(&doc, "expired");
    if submitted.is_empty()
        || [&completed, &rejected, &failed, &expired]
            .iter()
            .any(|v| v.len() != submitted.len())
    {
        eprintln!("ledger check: malformed /stats document: {doc}");
        return 1;
    }
    let mut unbalanced = 0;
    for i in 0..submitted.len() {
        let done = completed[i] + rejected[i] + failed[i] + expired[i];
        if done != submitted[i] {
            eprintln!(
                "ledger check: object {i} unbalanced: submitted={} vs \
                 completed={}+rejected={}+failed={}+expired={} = {done}",
                submitted[i], completed[i], rejected[i], failed[i], expired[i]
            );
            unbalanced += 1;
        }
    }
    if unbalanced == 0 {
        eprintln!("ledger check: all {} objects balanced", submitted.len());
    }
    unbalanced
}

fn parse<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut requests = 400usize;
    let mut connections = 4usize;
    let mut rates: Vec<f64> = vec![0.0];
    let mut seed = 42u64;
    let mut max_burst = 16usize;
    let mut retry_budget = 0u32;
    let mut deadline_ms: Option<u64> = None;
    let mut tolerate_faults = false;
    let mut ledger = false;
    let mut swap_after_ms: Option<u64> = None;
    let mut expect_tier = PrecisionTier::F32;
    let mut out = String::from("target/BENCH_gateway.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--target" => target = Some(parse(it.next())),
            "--requests" => requests = parse(it.next()),
            "--connections" => connections = parse(it.next()),
            "--rates" => {
                let csv: String = parse(it.next());
                rates = csv
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if rates.is_empty() {
                    usage();
                }
            }
            "--seed" => seed = parse(it.next()),
            "--max-burst" => max_burst = parse(it.next()),
            "--retry-budget" => retry_budget = parse(it.next()),
            "--deadline-ms" => deadline_ms = Some(parse(it.next())),
            "--tolerate-faults" => tolerate_faults = true,
            "--check-ledger" => ledger = true,
            "--swap-after-ms" => swap_after_ms = Some(parse(it.next())),
            "--expect-tier" => {
                expect_tier = it
                    .next()
                    .and_then(|s| PrecisionTier::parse(s))
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = parse(it.next()),
            _ => usage(),
        }
    }
    let target = target.unwrap_or_else(|| usage());
    // The fault plan the target gateway was started under, recorded in each
    // report row so a chaos row is never compared against a clean one.
    #[allow(clippy::disallowed_methods)] // reads MSD_CHAOS
    let fault_plan = std::env::var("MSD_CHAOS").unwrap_or_default();

    // Request i exercises demo model i % fleet with its i-th seeded input;
    // the key spreads deterministically across replicas.
    let inputs: Vec<(usize, Tensor)> = (0..requests)
        .map(|i| {
            let m = i % DEMO_MODELS.len();
            (m, DEMO_MODELS[m].input(i as u64))
        })
        .collect();
    let reqs: Vec<TcpRequest> = inputs
        .iter()
        .enumerate()
        .map(|(i, (m, x))| TcpRequest {
            model: DEMO_MODELS[*m].name.to_string(),
            key: format!("key-{i}"),
            body: wire::encode_tensor(x),
        })
        .collect();

    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut report = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .expect("open --out report file");

    let mut exit_code = 0;
    for (ri, &rate) in rates.iter().enumerate() {
        let spec = TcpLoadSpec {
            rate_rps: rate,
            connections,
            seed: seed + ri as u64,
            max_burst,
            retry_budget,
            deadline_ms,
            ..TcpLoadSpec::default()
        };
        // The swap drill runs during the first rate only; later rates keep
        // verifying against whatever version the gateway reports.
        let swapper = swap_after_ms.filter(|_| ri == 0).map(|ms| {
            let addr = target.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(ms));
                let m = DEMO_MODELS[0].name;
                let mut client = Client::connect(&addr).expect("connect for swap");
                // Swap at the expected tier and declare it, so a gateway
                // serving a quantized fleet keeps its tier across the drill
                // (and rejects the blob if the tiers ever disagree).
                let r = client
                    .request(
                        "POST",
                        &format!("/v1/models/{m}/swap"),
                        &[("X-Msd-Tier", expect_tier.as_str())],
                        &DEMO_MODELS[0].params(2, expect_tier),
                    )
                    .expect("send swap");
                assert_eq!(
                    r.status,
                    200,
                    "swap rejected: {}",
                    String::from_utf8_lossy(&r.body)
                );
                eprintln!("hot-swapped {m} to v2 at +{ms}ms");
            })
        });
        eprintln!(
            "rate {rate} rps: {requests} requests over {connections} connections -> {target}"
        );
        let outcome = run_tcp_open_loop(&target, &reqs, &spec);
        if let Some(s) = swapper {
            s.join().expect("swap thread");
        }

        // Differential check: every answered 200 must carry the exact bits
        // of sequential predict for the version that admitted it.
        let mut mismatches = 0usize;
        let mut bad_status = 0usize;
        let mut tolerated = 0usize;
        let mut versions = std::collections::BTreeMap::<(String, u32), usize>::new();
        // One reference per model and version, built on first use.
        let mut references = std::collections::HashMap::new();
        for (i, resp) in outcome.responses.iter().enumerate() {
            let Some(resp) = resp else { continue }; // counted via lost()
            match resp.status {
                200 => {
                    let (m, x) = &inputs[i];
                    let demo = find(DEMO_MODELS[*m].name).unwrap();
                    let version = resp.version.unwrap_or(0);
                    *versions
                        .entry((demo.name.to_string(), version))
                        .or_default() += 1;
                    // The gateway must declare the tier it served at, and it
                    // must be the tier this run expects — a silent fallback
                    // to another precision is as fatal as wrong bytes.
                    let got_tier = resp.tier.as_deref().unwrap_or("<missing>");
                    if got_tier != expect_tier.as_str() {
                        eprintln!(
                            "request {i}: X-Msd-Tier is {got_tier:?}, expected {:?}",
                            expect_tier.as_str()
                        );
                        mismatches += 1;
                        continue;
                    }
                    let want = references
                        .entry((*m, version))
                        .or_insert_with(|| demo.reference_tiered(version, expect_tier))
                        .predict(x);
                    let got = match wire::decode_tensor(&resp.body) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("request {i}: undecodable body: {e}");
                            mismatches += 1;
                            continue;
                        }
                    };
                    let same = got.shape() == want.shape()
                        && got
                            .data()
                            .iter()
                            .zip(want.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        eprintln!(
                            "request {i}: bytes diverge from sequential predict ({} v{version})",
                            demo.name
                        );
                        mismatches += 1;
                    }
                }
                429 => {} // shed load is a measured outcome, not an error
                500 | 503 | 504 if tolerate_faults => {
                    // Typed degradation under an armed fault plan: counted,
                    // reported, and deliberately non-fatal. Anything the
                    // gateway cannot type (or a lost response) still fails.
                    tolerated += 1;
                }
                s => {
                    eprintln!(
                        "request {i}: status {s}: {}",
                        String::from_utf8_lossy(&resp.body)
                    );
                    bad_status += 1;
                }
            }
        }
        let lost = outcome.lost();
        let row = GatewayBenchRow::from_outcome(
            &format!("demo-mix-r{rate}"),
            &spec,
            &outcome,
            &fault_plan,
        );
        let line = row.to_json();
        println!("{line}");
        writeln!(report, "{line}").expect("append report line");
        for ((model, version), n) in &versions {
            eprintln!("  {model} v{version}: {n} responses");
        }
        eprintln!(
            "  ok={} rejected={} failed={} lost={} retries={} p50={}us p99={}us achieved={:.1} rps",
            row.ok,
            row.rejected,
            row.failed,
            row.lost,
            row.retries,
            row.p50_us,
            row.p99_us,
            row.achieved_rps
        );
        if tolerated > 0 {
            eprintln!("  tolerated {tolerated} typed fault responses (--tolerate-faults)");
        }
        if lost > 0 || mismatches > 0 || bad_status > 0 {
            eprintln!(
                "FAIL at rate {rate}: lost={lost} mismatches={mismatches} bad_status={bad_status}"
            );
            exit_code = 1;
        }
    }
    if ledger && check_ledger(&target) > 0 {
        exit_code = 1;
    }
    std::process::exit(exit_code);
}

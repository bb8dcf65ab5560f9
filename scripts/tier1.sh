#!/usr/bin/env bash
# Tier-1 verification gate: the exact build + test sequence CI runs.
#
# The workspace is hermetic — no registry access is needed, so everything
# runs with --offline to catch any accidentally reintroduced dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test --workspace -q --offline

# Lint gate: the workspace is kept clippy-clean, warnings are errors. The
# root clippy.toml also bans std::env::set_var/remove_var: nothing writes
# the process environment.
# Fail fast with a clear message when the clippy component is missing —
# otherwise cargo emits a confusing "no such command" late in the run.
if ! cargo clippy --version >/dev/null 2>&1; then
  echo "error: 'cargo clippy' is not available in this toolchain." >&2
  echo "Install it with: rustup component add clippy" >&2
  exit 1
fi
cargo clippy --workspace --all-targets --offline -- -D warnings

# Format gate: the workspace is kept rustfmt-clean, so a diff shows only its
# change.
cargo fmt --all --check

# Benchmark build tripwire: msdbench/ is a workspace of its own, built against
# this workspace's public API through path dependencies, so the workspace
# build above never compiles it. Building it here (and running its
# known-answer tests, including the check that its workload catalogue equals
# BENCHMARK.json) fails a change that breaks an item the benchmark uses.
cargo test --offline --locked -q --manifest-path msdbench/Cargo.toml

# Kernel determinism gate: the oracle-differential suite sweeps every
# dispatch tier (one kernels::with_tier scope per leg) against the naive
# reference oracles; the golden-loss digests pin end-to-end training
# numerics bit-for-bit on the scalar and the detected tier. Neither may
# ever be filtered out.
cargo test -p msd-tensor --test kernels_differential -q --offline
cargo test -p msd-harness --test golden_losses -q --offline

# Run the failure-injection suite explicitly: it is the gate on the
# training runtime's divergence-recovery guarantees (NaN-safe optimiser,
# rollback/backoff, honest reporting) and must never be filtered out.
cargo test -p msd-harness --test failure_injection -q --offline

# Crash-safety gate: checkpoint/resume bit-identity and the corrupt-file
# corpus (torn writes, bit flips, stale magic) must never be filtered out.
cargo test -p msd-harness --test checkpoint_resume -q --offline

# Telemetry smoke: a seconds-long training run with an injected NaN batch;
# asserts the recovery path end-to-end and leaves a JSONL event log (CI
# uploads it as an artifact). Override the path with MSD_TELEMETRY_OUT.
TELEMETRY_OUT="${MSD_TELEMETRY_OUT:-target/telemetry-smoke.jsonl}"
rm -f "$TELEMETRY_OUT"
cargo run --release --offline -p msd-harness --bin msd-experiment -- \
  smoke --telemetry "$TELEMETRY_OUT"
test -s "$TELEMETRY_OUT" || { echo "telemetry smoke wrote no events" >&2; exit 1; }
grep -q '"event":"rollback"' "$TELEMETRY_OUT" || {
  echo "telemetry smoke recorded no recovery" >&2; exit 1;
}
# The JSONL log must read crash-tolerantly: only count *complete* lines
# (a killed run may leave one torn final line, which readers must skip).
COMPLETE_EVENTS=$(grep -c '^{.*}$' "$TELEMETRY_OUT" || true)
[ "$COMPLETE_EVENTS" -gt 0 ] || { echo "no complete telemetry events" >&2; exit 1; }
echo "telemetry smoke OK: $COMPLETE_EVENTS events in $TELEMETRY_OUT"

# Kill-and-resume smoke: run a seeded deterministic training job, kill it
# mid-epoch via fault injection, resume from the durable checkpoint, and
# require the final parameters to be byte-identical to an uninterrupted
# run of the same seed. The uninterrupted run sets MSD_KILL_AFTER=1, which
# nothing reads: training knobs enter only through msd-experiment's flags,
# so the comparison also proves the environment cannot cut a run short.
CKPT_DIR=target/ckpt-smoke
REF_PARAMS=target/ckpt-smoke-ref.params
RES_PARAMS=target/ckpt-smoke-resumed.params
rm -rf "$CKPT_DIR" "$REF_PARAMS" "$RES_PARAMS"
MSD_KILL_AFTER=1 cargo run --release --offline -p msd-harness --bin msd-experiment -- \
  ckpt-smoke --save-params "$REF_PARAMS"
cargo run --release --offline -p msd-harness --bin msd-experiment -- \
  ckpt-smoke --checkpoint-dir "$CKPT_DIR" --checkpoint-every 2 --kill-after 5
cargo run --release --offline -p msd-harness --bin msd-experiment -- \
  ckpt-smoke --checkpoint-dir "$CKPT_DIR" --resume --save-params "$RES_PARAMS" \
  | tee target/ckpt-smoke-resume.out
grep -q 'resumed=true' target/ckpt-smoke-resume.out || {
  echo "resume run did not actually resume from a checkpoint" >&2; exit 1;
}
cmp "$REF_PARAMS" "$RES_PARAMS" || {
  echo "kill-and-resume run is not bit-identical to the uninterrupted run" >&2; exit 1;
}
echo "kill-and-resume smoke OK: resumed run bit-identical"

# Serving gate: the in-process 1000-request smoke (zero lost, zero
# corrupted, every response bit-identical to sequential predict) and the
# batch-composition property test across kernel tiers. These are the
# serving runtime's contract and must never be filtered out.
cargo test -p msd-serve -q --offline
cargo test -p msd-harness --test predict_batch_bitident -q --offline

# Compiled-plan gate: every zoo model's one AOT plan, compiled at [1, C, L],
# must stay bit-identical to per-sample predict at every batch size from 1
# to 8, across batch compositions and kernel dispatch tiers — serving runs
# one plan per model for every batch by default, so this is the contract
# that makes that default safe. The suite scopes the tier itself
# (kernels::with_tier) for its reference and for every leg, and asserts
# each leg runs on the tier it names, so a scalar-pinned re-run would only
# repeat this one.
cargo test -p msd-harness --test plan_bitident -q --offline

# Quantization gate: the error-budget suite (every zoo model at f16/int8
# must hold the declared mse/smape/label-agreement budgets against the f32
# reference) and the int8-lowering bit-identity sweep (lowered plans are
# bit-identical across kernel tiers and batch compositions). The budget
# suite runs on the process tier, so it re-runs with the whole process
# pinned to the scalar tier through MSD_KERNEL_FORCE; the int8 sweep scopes
# the tier for every leg itself, like plan_bitident.
cargo test -p msd-harness --test quant_budget -q --offline
cargo test -p msd-harness --test plan_int8 -q --offline
MSD_KERNEL_FORCE=scalar cargo test -p msd-harness --test quant_budget -q --offline

# Quant bench: artifact bytes per model and per-sample serve latency per
# precision tier, every served response byte-compared against the tier's
# sequential reference first. Enforces the compression floors (f16 >= 1.9x,
# int8 >= 3.5x smaller than f32). Appends JSONL to target/BENCH_quant.json
# (CI artifact); the floors are size ratios, not timings, so no retry.
rm -f target/BENCH_quant.json
cargo run --release --offline -p msd-harness --bin msd-quant-bench -- \
  --requests 64 --out target/BENCH_quant.json
test -s target/BENCH_quant.json || { echo "quant bench wrote no report" >&2; exit 1; }
grep -q '"int8_ratio"' target/BENCH_quant.json || {
  echo "quant report missing compression ratios" >&2; exit 1;
}
echo "quant bench OK: report in target/BENCH_quant.json"

# Serving benchmark: open-loop load through msd-serve, every response
# byte-compared against sequential predict, report appended as JSONL (CI
# uploads it as an artifact). The speedup floor here is modest because CI
# runners may expose a single core, where only the batching win is
# available; on >=4 cores the same configuration clears 3x. A throughput
# floor is inherently sensitive to transient machine load, so one failure
# earns a single retry; failing twice fails the gate.
serve_bench() {
  rm -f target/BENCH_serve.json
  cargo run --release --offline -p msd-harness --bin msd-serve-bench -- \
    --requests 256 --min-speedup 1.1 --out target/BENCH_serve.json
}
serve_bench || {
  echo "serve bench below speedup floor; retrying once on a quieter machine" >&2
  serve_bench
}
test -s target/BENCH_serve.json || { echo "serve bench wrote no report" >&2; exit 1; }
grep -q '"p99_us"' target/BENCH_serve.json || {
  echo "serve report missing latency percentiles" >&2; exit 1;
}
echo "serve smoke OK: report in target/BENCH_serve.json"

# Kernel throughput bench: SIMD dispatch kernels vs their naive oracles
# (byte-compared before timing), plus epoch time and serve-path latency.
# The bench itself enforces a >=1.1x floor on the fused LayerNorm/GELU
# kernels. Like the serve bench, a throughput floor is load-sensitive, so
# one failure earns a single retry. Appends JSONL to
# target/BENCH_kernels.json (CI artifact).
kernel_bench() {
  rm -f target/BENCH_kernels.json
  cargo bench --offline -p msd-bench --bench extra_kernel_throughput
}
kernel_bench || {
  echo "kernel bench below speedup floor; retrying once on a quieter machine" >&2
  kernel_bench
}
test -s target/BENCH_kernels.json || { echo "kernel bench wrote no report" >&2; exit 1; }
grep -q '"kind":"epoch"' target/BENCH_kernels.json || {
  echo "kernel report missing epoch timing" >&2; exit 1;
}
echo "kernel bench OK: report in target/BENCH_kernels.json"

# Plan latency bench: plan-vs-tape single-sample latency per zoo model,
# byte-compared before timing. The bench enforces a 1.1x geometric-mean
# floor (and plans-never-slower per model) — the margin serving's
# plans-by-default decision is predicated on. Load-sensitive like the other
# throughput floors, so one failure earns a single retry. Appends JSONL
# rows to target/BENCH_kernels.json (CI artifact).
plan_bench() {
  cargo bench --offline -p msd-bench --bench extra_plan_latency
}
plan_bench || {
  echo "plan bench below speedup floor; retrying once on a quieter machine" >&2
  plan_bench
}
grep -q '"kind":"plan_latency"' target/BENCH_kernels.json || {
  echo "kernel report missing plan latency rows" >&2; exit 1;
}
echo "plan bench OK: rows in target/BENCH_kernels.json"

# Real-gateway smokes. `start_gateway <addr-file> <msd-gateway args...>` runs
# msd-gateway in the background (env assignments prefixed to the call reach
# the process), waits for it to publish its address, and arms an EXIT trap
# that kills it; `stop_gateway` kills and reaps it and disarms the trap.
start_gateway() {
  local addr_file=$1
  shift
  rm -f "$addr_file"
  cargo run --release --offline -p msd-harness --bin msd-gateway -- \
    --addr-file "$addr_file" "$@" &
  GW_PID=$!
  trap 'kill "$GW_PID" 2>/dev/null || true' EXIT
  for _ in $(seq 1 200); do [ -f "$addr_file" ] && break; sleep 0.1; done
  test -f "$addr_file" || { echo "gateway never published $addr_file" >&2; exit 1; }
}
stop_gateway() {
  kill "$GW_PID" 2>/dev/null || true
  wait "$GW_PID" 2>/dev/null || true
  trap - EXIT
}

# Gateway smoke: a real msd-gateway process on an ephemeral port serving the
# two-model demo fleet, then 500 mixed requests over 4 TCP connections at a
# sustained paced rate with a hot-swap landing mid-run, followed by a second
# sweep at double the rate. The load generator rebuilds the demo models in
# its own process and byte-compares every response against sequential
# predict for the version each response's header names; it exits non-zero on
# any lost request, any byte mismatch, or any status outside {200, 429}.
# Appends RPS-vs-latency rows to target/BENCH_gateway.json (CI artifact).
rm -f target/BENCH_gateway.json
start_gateway target/gw.addr --demo --replicas 2 --run-secs 120
cargo run --release --offline -p msd-harness --bin msd-gateway-loadgen -- \
  --target "$(cat target/gw.addr)" --requests 500 --connections 4 \
  --rates 800,1600 --swap-after-ms 150
stop_gateway
test -s target/BENCH_gateway.json || { echo "gateway smoke wrote no report" >&2; exit 1; }
if grep -qE '"lost":[1-9]' target/BENCH_gateway.json; then
  echo "gateway smoke lost requests" >&2; exit 1
fi
echo "gateway smoke OK: report in target/BENCH_gateway.json"

# Quantized-tier gateway smoke: the same real-process drill with the demo
# fleet published from int8 artifacts. The load generator requires every
# 200 to carry X-Msd-Tier: int8 (a silent fall back to f32 is as fatal as
# wrong bytes) and byte-compares each response against the int8 compiled-plan
# reference it computes in its own process; the mid-run hot-swap posts a v2
# int8 artifact with the tier declared in the request header.
start_gateway target/gw-int8.addr --demo --tier int8 --replicas 2 --run-secs 120
cargo run --release --offline -p msd-harness --bin msd-gateway-loadgen -- \
  --target "$(cat target/gw-int8.addr)" --requests 300 --connections 4 \
  --expect-tier int8 --swap-after-ms 150
stop_gateway
echo "int8 gateway smoke OK: every response tier-tagged and byte-checked"

# Chaos smoke: the same real-gateway drill under a seeded deterministic
# fault plan (worker panics, worker stalls, connection drops). The load
# generator retries with a budget of 3, tags every request with a deadline,
# tolerates only the *typed* degradation statuses {429, 500, 503, 504},
# and closes by asserting every replica's request ledger balances
# (completed + failed + rejected + expired == submitted) via GET /stats.
# Lost requests, byte mismatches, or an untyped status remain fatal — the
# fault plan may cost latency and retries, never answers. Fired faults are
# appended to target/chaos-events.jsonl (CI artifact); rows written by this
# sweep carry the fault plan in their "fault_plan" column so a chaos run
# can never be compared against a clean baseline by accident.
rm -f target/chaos-events.jsonl
MSD_CHAOS="seed:42,worker_panic:0.02,worker_stall:0.02,worker_stall_ms:40,conn_drop:0.02" \
MSD_CHAOS_LOG=target/chaos-events.jsonl \
start_gateway target/gw-chaos.addr --demo --replicas 2 --run-secs 120
MSD_CHAOS="seed:42,worker_panic:0.02,worker_stall:0.02,worker_stall_ms:40,conn_drop:0.02" \
cargo run --release --offline -p msd-harness --bin msd-gateway-loadgen -- \
  --target "$(cat target/gw-chaos.addr)" --requests 500 --connections 4 \
  --retry-budget 3 --deadline-ms 2000 --tolerate-faults --check-ledger
stop_gateway
test -s target/chaos-events.jsonl || {
  echo "chaos smoke fired no faults (plan not armed?)" >&2; exit 1;
}
if grep -qE '"lost":[1-9]' target/BENCH_gateway.json; then
  echo "chaos smoke lost requests" >&2; exit 1
fi
echo "chaos smoke OK: fired $(grep -c '^{.*}$' target/chaos-events.jsonl) faults, zero lost"

# Streaming gate: the stream crate's suites (ring/Welford contracts, the
# in-process replay gate, warm-retrain bit-identity) run explicitly and
# must never be filtered out.
cargo test -p msd-stream -q --offline

# Streaming replay determinism across processes: the harness bin runs the
# seeded drift scenario twice — warmup, base train, online scoring, drift
# trigger, warm retrain, hot-swap — and the two runs' score and event logs
# must be byte-identical. The bin itself exits non-zero on zero drift
# events, a missing hot-swap, any lost request, or no point-adjusted F1
# improvement after adaptation, so this gate also covers the "zero dropped
# requests" and "adaptation helps" contracts. The second run sets
# MSD_KILL_AFTER=1, which nothing reads: the byte comparison then also
# proves the replay reads no training knob from the environment.
rm -rf target/stream-run1 target/stream-run2
cargo run --release --offline -p msd-stream -- --out-dir target/stream-run1
MSD_KILL_AFTER=1 cargo run --release --offline -p msd-stream -- --out-dir target/stream-run2
cmp target/stream-run1/scores.jsonl target/stream-run2/scores.jsonl || {
  echo "streaming score logs are not byte-identical between replays" >&2; exit 1;
}
cmp target/stream-run1/events.jsonl target/stream-run2/events.jsonl || {
  echo "streaming event logs are not byte-identical between replays" >&2; exit 1;
}
grep -q '"event":"drift"' target/stream-run1/events.jsonl || {
  echo "streaming event log recorded no drift" >&2; exit 1;
}
grep -q '"event":"swap"' target/stream-run1/events.jsonl || {
  echo "streaming event log recorded no swap" >&2; exit 1;
}
cp target/stream-run1/events.jsonl target/stream-events.jsonl
echo "streaming replay OK: logs byte-identical across runs"

# Stream throughput bench: samples/sec and windows/sec through the full
# ingestion -> standardization -> gateway-scored pipeline plus score-latency
# percentiles. Appends JSONL to target/BENCH_stream.json (CI artifact);
# pure reporting, no timing floor, so no retry.
rm -f target/BENCH_stream.json
cargo bench --offline -p msd-bench --bench extra_stream_throughput
test -s target/BENCH_stream.json || { echo "stream bench wrote no report" >&2; exit 1; }
grep -q '"windows_per_sec"' target/BENCH_stream.json || {
  echo "stream report missing throughput" >&2; exit 1;
}
echo "stream bench OK: report in target/BENCH_stream.json"

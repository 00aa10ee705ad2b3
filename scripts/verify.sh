#!/usr/bin/env bash
# Tier-1 verification: everything here must pass with no network and an
# empty cargo registry (the workspace is std-only by design; see
# DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> daemonbench tests (the end-to-end benchmark builds against the workspace API)"
# daemonbench is its own package outside the workspace; testing it here
# turns an API removal in the monitor or synopsis crates that breaks
# the end-to-end benchmark into a CI failure rather than a
# benchmark-run failure.
cargo test -q --offline --manifest-path daemonbench/Cargo.toml

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ingestion throughput harness (smoke mode, incl. resize gate)"
# Smoke mode: tiny stream, one repetition; write the JSON to a scratch
# path so CI never dirties the committed BENCH_ingest.json. The harness
# exits nonzero when acceptance fails — under --smoke only the
# correctness criteria gate: exact frequent pairs under hot-pair
# splitting, under a scripted mid-stream grow + shrink of the elastic
# stage pools, and under the adaptive controller's own resizes; the
# from_disk sweep's streaming-reader event-exactness (blktrace at
# default and odd chunk sizes, columnar, CSV — all vs the
# materializing oracles) and the columnar <= 0.5x blktrace size
# ceiling; and the admission sweep's correctness half — defaulted
# config bit-exact with explicit Admission::Off, doorkeeper and
# ungated contenders at byte parity, and the doorkeeper actually
# rejecting; and the query_load sweep's correctness half — the live
# view bit-exact with a quiesced snapshot at every sampled epoch
# boundary, zero allocations on the publish and query paths, and
# tables + live-view structures at equal-memory byte parity; and the
# service sweep's correctness half — every tenant in the tenants x
# events/s capacity grid bit-exact against its offline oracle. Timing
# criteria (including adaptive convergence, the
# columnar-decode-outpaces-pipeline gate, the admission sweep's
# equal-memory recall-beats-unfiltered + throughput-holds gate, the
# query_load stage-CPU-retention and epoch-lag gates, and the service
# sweep's aggregate-throughput-retention floor) apply
# in full runs only (cargo run --release -p rtdac-bench --bin
# ingest_throughput) because a tiny stream on a shared CI core
# measures noise. set -e turns that exit into a build failure.
RTDAC_BENCH_OUT="${TMPDIR:-/tmp}/BENCH_ingest_smoke.json" \
    cargo run --release --offline -p rtdac-bench --bin ingest_throughput -- --smoke

echo "==> trace_convert transcoding smoke (synth -> rtdac -> blk -> csv)"
# The streaming transcoder across every format edge, at small scale:
# synthesize a fitted workload as columnar, transcode columnar ->
# blktrace -> CSV, and land back on columnar. Each hop decodes the
# previous hop's writer output, so one pass covers all readers and
# writers; `rtdac stats` on first and last proves the round trip parses.
SMOKE_DIR="${TMPDIR:-/tmp}/rtdac_convert_smoke"
mkdir -p "$SMOKE_DIR"
./target/release/trace_convert synth src2 "$SMOKE_DIR/a.rtdac" --requests 5000 --seed 7
./target/release/trace_convert "$SMOKE_DIR/a.rtdac" "$SMOKE_DIR/b.blk"
./target/release/trace_convert "$SMOKE_DIR/b.blk" "$SMOKE_DIR/c.csv"
./target/release/trace_convert "$SMOKE_DIR/c.csv" "$SMOKE_DIR/d.rtdac"
./target/release/rtdac stats "$SMOKE_DIR/a.rtdac" > /dev/null
./target/release/rtdac stats "$SMOKE_DIR/d.rtdac" > /dev/null
rm -rf "$SMOKE_DIR"

echo "==> offline mining throughput harness (smoke mode)"
# Same contract as above for the FIM engines: under --smoke only the
# correctness criteria gate — generic, dense, and pool-parallel miners
# must return bit-exact FimResults on all three workload shapes, the
# pair kernels identical maps, and the incremental sliding window
# identical counts. Dense-vs-generic timing gates apply in full runs
# only (cargo run --release -p rtdac-bench --bin fim_throughput).
RTDAC_BENCH_OUT="${TMPDIR:-/tmp}/BENCH_fim_smoke.json" \
    cargo run --release --offline -p rtdac-bench --bin fim_throughput -- --smoke

echo "==> concurrent evaluation runner (smoke subset)"
# Reduced experiment subset at small scale: proves the pooled runner,
# the shared ground-truth cache, and every experiment binary's report
# path stay alive. RTDAC_OUT redirects the CSVs so the smoke-scale run
# never overwrites the committed full-scale results/.
RTDAC_OUT="${TMPDIR:-/tmp}/rtdac_smoke_results" \
    cargo run --release --offline -p rtdac-bench --bin exp_all -- --smoke

echo "==> daemon service smoke (rtdacd + two tenants over loopback)"
# End-to-end wire-service check: spawn the daemon on an ephemeral
# loopback port, stream two different fitted traces into two tenants
# concurrently over the framed protocol, then diff each tenant's live
# top-k report against the offline oracle (`rtdacctl oracle` — same
# decode, same budget-derived analyzer sizing, no daemon involved).
# Bit-exact output proves the TCP framing, the blktrace wire codec,
# the tenant runtime, and the live-view query path end to end; the
# Shutdown frame then drains every tenant and the daemon must exit 0.
SVC_DIR="${TMPDIR:-/tmp}/rtdac_service_smoke"
rm -rf "$SVC_DIR"
mkdir -p "$SVC_DIR"
./target/release/rtdac synth wdev "$SVC_DIR/wdev.blk" --requests 4000 --seed 11 > /dev/null
./target/release/rtdac synth stg "$SVC_DIR/stg.blk" --requests 4000 --seed 12 > /dev/null
./target/release/rtdacd --port-file "$SVC_DIR/port" > /dev/null &
RTDACD_PID=$!
trap 'kill "$RTDACD_PID" 2> /dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s "$SVC_DIR/port" ] && break
    sleep 0.1
done
[ -s "$SVC_DIR/port" ] || { echo "rtdacd never published its port" >&2; exit 1; }
ADDR="127.0.0.1:$(tr -d '[:space:]' < "$SVC_DIR/port")"
./target/release/rtdacctl --addr "$ADDR" stream wdev "$SVC_DIR/wdev.blk" > /dev/null &
STREAM_WDEV=$!
./target/release/rtdacctl --addr "$ADDR" stream stg "$SVC_DIR/stg.blk" > /dev/null &
STREAM_STG=$!
wait "$STREAM_WDEV"
wait "$STREAM_STG"
for TENANT in wdev stg; do
    ./target/release/rtdacctl --addr "$ADDR" top "$TENANT" --k 20 > "$SVC_DIR/$TENANT.live"
    ./target/release/rtdacctl oracle "$SVC_DIR/$TENANT.blk" --k 20 > "$SVC_DIR/$TENANT.oracle"
    diff "$SVC_DIR/$TENANT.live" "$SVC_DIR/$TENANT.oracle"
done
./target/release/rtdacctl --addr "$ADDR" shutdown > /dev/null
wait "$RTDACD_PID"
trap - EXIT
rm -rf "$SVC_DIR"

echo "==> verify OK"

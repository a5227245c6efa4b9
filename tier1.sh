#!/bin/bash
# Tier-1 gate: everything a clean offline checkout must pass.
#
#   ./tier1.sh
#
# Runs entirely from vendored/path dependencies — no network access needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier1: cargo build --release =="
cargo build --release --workspace

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: allocation gate (steady-state zero-alloc emission) =="
# The PR 4 perf claim as a regression gate: a counting global allocator
# asserts the warm next+issue cycle never touches the heap.
cargo test -q --release -p lazydram-workloads --test alloc_gate

echo "== tier1: footprint gate (a map warp's heap is one batch) =="
# A counting global allocator bounds an inversek2j-shaped MapProgram's peak
# live heap, so per-warp host memory stays sized by the batch in flight.
cargo test -q --release -p lazydram-workloads --test footprint_gate

echo "== tier1: cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: rustdoc (-D warnings) =="
# Broken intra-doc links, and public docs linking to private items, fail.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier1: prof-feature build =="
# The self-profiler is compiled out by default; build (and unit-test) the
# gated implementation so it cannot rot unnoticed.
cargo build --release -p lazydram-bench --benches --features prof
cargo test -q -p lazydram-common --features prof
cargo clippy -p lazydram-common --features prof -- -D warnings
cargo clippy -p lazydram-bench --all-targets --features prof -- -D warnings

TIER1_TMP="$(mktemp -d)"
trap 'rm -rf "$TIER1_TMP"' EXIT

echo "== tier1: result-cache smoke =="
# Cross-sweep caching must be invisible in the results: the same fig04/SCP
# sweep runs cold (populating the store) and warm (served from it); stdout
# and JSONL must be byte-identical, the warm run must actually hit and must
# compute no exact-output reference (the end-of-sweep summary reports both),
# and nothing may fail. A require-mode pass proves the store alone can serve
# the whole sweep.
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$TIER1_TMP/cc.jsonl" \
LAZYDRAM_CACHE_DIR="$TIER1_TMP/cache" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > "$TIER1_TMP/cc.out"
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 \
LAZYDRAM_RESULTS="$TIER1_TMP/cw.jsonl" \
LAZYDRAM_CACHE_DIR="$TIER1_TMP/cache" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > "$TIER1_TMP/cw.out" 2> "$TIER1_TMP/cw.err"
cmp "$TIER1_TMP/cc.jsonl" "$TIER1_TMP/cw.jsonl"
cmp "$TIER1_TMP/cc.out" "$TIER1_TMP/cw.out"
grep -E 'cache: [1-9][0-9]* hits' "$TIER1_TMP/cw.err" > /dev/null || {
    echo "warm sweep reported no cache hits" >&2; cat "$TIER1_TMP/cw.err" >&2; exit 1; }
grep -E 'refs: 0 of [1-9][0-9]* computed' "$TIER1_TMP/cw.err" > /dev/null || {
    echo "warm sweep computed exact-output references" >&2; cat "$TIER1_TMP/cw.err" >&2; exit 1; }
if grep -q '"record":"failure"' "$TIER1_TMP/cw.jsonl"; then
    echo "cache smoke produced failure records" >&2; exit 1
fi
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$TIER1_TMP/cr.jsonl" \
LAZYDRAM_CACHE_DIR="$TIER1_TMP/cache" LAZYDRAM_CACHE_MODE=require \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > /dev/null
cmp "$TIER1_TMP/cc.jsonl" "$TIER1_TMP/cr.jsonl"
echo "cold + warm + require-mode sweeps byte-identical; warm run hit the store, computed no reference"

echo "== tier1: memory-backend matrix smoke =="
# The backend presets must be (a) sweepable: the fig04/SCP sweep runs
# green under every label `lazydram backends` prints (the list lives only
# in DramPreset::ALL); (b) invisible by default: an explicit
# LAZYDRAM_BACKEND=gddr5 run is byte-identical to an unset-env run;
# (c) byte-identical to the model before the backend matrix: the full
# fig04 and fig12 harnesses reproduce the stdout + JSONL captured at that
# revision (crates/bench/captures/pre_pr10/).
backends=$(./target/release/lazydram backends | tail -n +2 | awk '{print $1}')
[[ -n $backends ]] || { echo "lazydram backends listed no preset" >&2; exit 1; }
for backend in $backends; do
    LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
    LAZYDRAM_BACKEND="$backend" \
    LAZYDRAM_RESULTS="$TIER1_TMP/be_$backend.jsonl" \
        cargo bench -q -p lazydram-bench --bench fig04_delay_sweep \
        > "$TIER1_TMP/be_$backend.out"
    if grep -q '"record":"failure"' "$TIER1_TMP/be_$backend.jsonl"; then
        echo "backend $backend produced failure records" >&2; exit 1
    fi
done
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$TIER1_TMP/be_default.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep \
    > "$TIER1_TMP/be_default.out"
cmp "$TIER1_TMP/be_default.jsonl" "$TIER1_TMP/be_gddr5.jsonl"
cmp "$TIER1_TMP/be_default.out" "$TIER1_TMP/be_gddr5.out"
LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$TIER1_TMP/pre10_fig04.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep \
    > "$TIER1_TMP/pre10_fig04.out"
cmp "$TIER1_TMP/pre10_fig04.out" crates/bench/captures/pre_pr10/fig04.out
cmp "$TIER1_TMP/pre10_fig04.jsonl" crates/bench/captures/pre_pr10/fig04.jsonl
LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$TIER1_TMP/pre10_fig12.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig12_main \
    > "$TIER1_TMP/pre10_fig12.out"
cmp "$TIER1_TMP/pre10_fig12.out" crates/bench/captures/pre_pr10/fig12.out
cmp "$TIER1_TMP/pre10_fig12.jsonl" crates/bench/captures/pre_pr10/fig12.jsonl
echo "all 4 backends green; GDDR5 default byte-identical to pre-trait captures"

echo "== tier1: divergence-bisection smoke =="
# The bisection tool must find the exact first divergent cycle between two
# Static-DMS delays on SLA (every probe is a fresh run_until from cycle 0),
# and the components it lists there must be architectural: a dump carries
# no loop-mode state, so no NoC queue (rnoc, pnoc) or loop frame (mach)
# may differ merely because the two runs' SMs slept at different cycles.
cargo run -q --release -p lazydram-bench --bin dbg_diverge -- SLA 128 256 0.05 4096 \
    > "$TIER1_TMP/diverge.out"
grep -Fx "first divergent cycle: 217 (last agreeing cycle: 216)" "$TIER1_TMP/diverge.out" || {
    echo "dbg_diverge moved the first divergent cycle" >&2; cat "$TIER1_TMP/diverge.out" >&2; exit 1; }
awk '/^divergent components at cycle/ { on = 1; next } on && /^$/ { exit } on { print }' \
    "$TIER1_TMP/diverge.out" > "$TIER1_TMP/diverge.components"
if grep -E '^ *(rnoc|pnoc|mach)\[' "$TIER1_TMP/diverge.components"; then
    echo "dbg_diverge lists loop-mode state as divergent" >&2; exit 1
fi
echo "divergent components: $(xargs < "$TIER1_TMP/diverge.components")"

echo "== tier1: Fig. 3 trace replay example =="
# examples/scheduler_traces.rs replays a hand-built Fig. 3 micro-trace
# through TraceSim under FR-FCFS and DMS(256); delaying must coalesce the
# two bursts from 7 activations into 4.
cargo run -q --release --example scheduler_traces > "$TIER1_TMP/fig3.out"
for line in \
    "baseline FR-FCFS:  activations 7 (8 requests served in 269 memory cycles)" \
    "DMS(256):          activations 4 (8 requests served in 404 memory cycles)"; do
    grep -Fq "$line" "$TIER1_TMP/fig3.out" || {
        echo "scheduler_traces no longer prints: $line" >&2; cat "$TIER1_TMP/fig3.out" >&2; exit 1; }
done
echo "Fig. 3 replay: 7 activations under FR-FCFS, 4 under DMS(256)"

echo "== tier1: repository benchmark (host-independent checks) =="
# The unmodified benchmark (BENCHMARK.json, crates/bench/examples/benchmark)
# runs each workload briefly, plus one traced sla-long run that adds the
# replay and DRAM-command probes. Each run must be correct with no failed
# operation (which includes every warm fig12 cell equal to its cold
# counterpart), and its result_digest must equal the pinned one. Timing is
# not gated here: `--compare` of parent against change on one host is the
# timing gate. The one exception is the result store's order-of-magnitude
# floor, which no host blurs: a cold fig12 sweep must take at least 10x as
# long as a warm pass served from disk.
DIGESTS=crates/bench/captures/benchmark_digests.tsv
bench_check() {
    local workload=$1 trace=$2 out="$TIER1_TMP/bench_$1_$2.jsonl" want got
    bash crates/bench/examples/benchmark/run.sh --workload "$workload" --seconds 0.1 --trace "$trace" > "$out"
    grep -Eq '^\{"correct":true,"attempted":[0-9]+,"failed":0,' "$out" || {
        echo "benchmark $workload (trace $trace) is not correct or failed operations" >&2
        cat "$out" >&2; exit 1; }
    want=$(awk -F'\t' -v w="$workload" '$1 == w { print $2 }' "$DIGESTS")
    got=$(sed -n 's/.*"result_digest":"\([0-9a-f]*\)".*/\1/p' "$out")
    if [[ -z $want || $got != "$want" ]]; then
        echo "benchmark $workload (trace $trace): result_digest ${got:-missing}, pinned ${want:-missing} in $DIGESTS" >&2
        exit 1
    fi
    echo "$workload (trace $trace): correct, digest $got"
}
for workload in sla-long gemm-long fig12-cold fig12-warm; do
    bench_check "$workload" 0
done
bench_check sla-long 1
wall_s() { sed -n 's/^{"correct":.*"wall_s":{"value":\([0-9.eE+-]*\),.*/\1/p' "$TIER1_TMP/bench_$1_0.jsonl"; }
awk -v cold="$(wall_s fig12-cold)" -v warm="$(wall_s fig12-warm)" 'BEGIN {
    printf "fig12 cold %.3fs, warm %.6fs (%.0fx)\n", cold, warm, cold / warm
    if (!(cold >= 10 * warm)) { print "warm fig12 pass is not 10x faster than cold" > "/dev/stderr"; exit 1 }
}'

echo "== tier1: OK =="

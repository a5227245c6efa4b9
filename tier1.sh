#!/bin/bash
# Tier-1 gate: everything a clean offline checkout must pass.
#
#   ./tier1.sh
#
# Runs entirely from vendored/path dependencies — no network access needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier1: cargo build --release =="
cargo build --release --workspace

echo "== tier1: cargo test =="
cargo test -q --workspace

echo "== tier1: allocation gate (steady-state zero-alloc emission) =="
# The PR 4 perf claim as a regression gate: a counting global allocator
# asserts the warm next+issue cycle never touches the heap.
cargo test -q --release -p lazydram-workloads --test alloc_gate

echo "== tier1: cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: prof-feature build =="
# The self-profiler is compiled out by default; build (and unit-test) the
# gated implementation so it cannot rot unnoticed.
cargo build --release -p lazydram-bench --benches --features prof
cargo test -q -p lazydram-common --features prof
cargo clippy -p lazydram-common --features prof -- -D warnings
cargo clippy -p lazydram-bench --all-targets --features prof -- -D warnings

echo "== tier1: checkpoint crash-recovery smoke =="
# Bit-identical restore, end to end through a real harness: the same
# fig04/SCP sweep must produce byte-identical JSONL (a) plain, (b) with
# periodic checkpointing enabled, and (c) re-run against the kept final
# checkpoints (which resumes each job instead of recomputing it).
CKPT_TMP="$(mktemp -d)"
trap 'rm -rf "$CKPT_TMP"' EXIT
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/a.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > /dev/null
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/b.jsonl" \
LAZYDRAM_CHECKPOINT_DIR="$CKPT_TMP/ckpts" LAZYDRAM_CHECKPOINT_EVERY=2000 \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > /dev/null
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/c.jsonl" \
LAZYDRAM_CHECKPOINT_DIR="$CKPT_TMP/ckpts" LAZYDRAM_CHECKPOINT_EVERY=2000 \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > /dev/null
cmp "$CKPT_TMP/a.jsonl" "$CKPT_TMP/b.jsonl"
cmp "$CKPT_TMP/a.jsonl" "$CKPT_TMP/c.jsonl"
echo "checkpointed + resumed sweeps byte-identical to plain run"

echo "== tier1: result-cache smoke =="
# Cross-sweep caching must be invisible in the results: the same fig04/SCP
# sweep runs cold (populating the store) and warm (served from it); stdout
# and JSONL must be byte-identical, the warm run must actually hit and must
# compute no exact-output reference (the end-of-sweep summary reports both),
# and nothing may fail. A require-mode pass proves the store alone can serve
# the whole sweep.
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/cc.jsonl" \
LAZYDRAM_CACHE_DIR="$CKPT_TMP/cache" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > "$CKPT_TMP/cc.out"
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 \
LAZYDRAM_RESULTS="$CKPT_TMP/cw.jsonl" \
LAZYDRAM_CACHE_DIR="$CKPT_TMP/cache" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > "$CKPT_TMP/cw.out" 2> "$CKPT_TMP/cw.err"
cmp "$CKPT_TMP/cc.jsonl" "$CKPT_TMP/cw.jsonl"
cmp "$CKPT_TMP/cc.out" "$CKPT_TMP/cw.out"
grep -E 'cache: [1-9][0-9]* hits' "$CKPT_TMP/cw.err" > /dev/null || {
    echo "warm sweep reported no cache hits" >&2; cat "$CKPT_TMP/cw.err" >&2; exit 1; }
grep -E 'refs: 0 of [1-9][0-9]* computed' "$CKPT_TMP/cw.err" > /dev/null || {
    echo "warm sweep computed exact-output references" >&2; cat "$CKPT_TMP/cw.err" >&2; exit 1; }
if grep -q '"record":"failure"' "$CKPT_TMP/cw.jsonl"; then
    echo "cache smoke produced failure records" >&2; exit 1
fi
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/cr.jsonl" \
LAZYDRAM_CACHE_DIR="$CKPT_TMP/cache" LAZYDRAM_CACHE_MODE=require \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > /dev/null
cmp "$CKPT_TMP/cc.jsonl" "$CKPT_TMP/cr.jsonl"
echo "cold + warm + require-mode sweeps byte-identical; warm run hit the store, computed no reference"

echo "== tier1: memory-backend matrix smoke =="
# The MemoryBackend trait (PR 10) must be (a) sweepable: the fig04/SCP
# sweep runs green under every LAZYDRAM_BACKEND label; (b) invisible by
# default: an explicit LAZYDRAM_BACKEND=gddr5 run is byte-identical to an
# unset-env run; (c) byte-identical to the pre-trait model: the full fig04
# and fig12 harnesses reproduce the stdout + JSONL captured at the revision
# before the trait extraction (crates/bench/captures/pre_pr10/).
for backend in gddr5 hbm1 hbm2 ddr4 lpddr4 naive flex; do
    LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
    LAZYDRAM_BACKEND="$backend" \
    LAZYDRAM_RESULTS="$CKPT_TMP/be_$backend.jsonl" \
        cargo bench -q -p lazydram-bench --bench fig04_delay_sweep \
        > "$CKPT_TMP/be_$backend.out"
    if grep -q '"record":"failure"' "$CKPT_TMP/be_$backend.jsonl"; then
        echo "backend $backend produced failure records" >&2; exit 1
    fi
done
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/be_default.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep \
    > "$CKPT_TMP/be_default.out"
cmp "$CKPT_TMP/be_default.jsonl" "$CKPT_TMP/be_gddr5.jsonl"
cmp "$CKPT_TMP/be_default.out" "$CKPT_TMP/be_gddr5.out"
LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/pre10_fig04.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep \
    > "$CKPT_TMP/pre10_fig04.out"
cmp "$CKPT_TMP/pre10_fig04.out" crates/bench/captures/pre_pr10/fig04.out
cmp "$CKPT_TMP/pre10_fig04.jsonl" crates/bench/captures/pre_pr10/fig04.jsonl
LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/pre10_fig12.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig12_main \
    > "$CKPT_TMP/pre10_fig12.out"
cmp "$CKPT_TMP/pre10_fig12.out" crates/bench/captures/pre_pr10/fig12.out
cmp "$CKPT_TMP/pre10_fig12.jsonl" crates/bench/captures/pre_pr10/fig12.jsonl
echo "all 7 backends green; GDDR5 default byte-identical to pre-trait captures"

echo "== tier1: divergence-bisection smoke =="
# The bisection tool must find a concrete first divergent cycle between two
# Static-DMS delays on SLA (it exercises run_until/resume_until chaining).
cargo run -q --release -p lazydram-bench --bin dbg_diverge -- SLA 128 256 0.05 4096 \
    | grep "first divergent cycle:"

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
    local workload=$1 trace=$2 out="$CKPT_TMP/bench_$1_$2.jsonl" want got
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
wall_s() { sed -n 's/^{"correct":.*"wall_s":{"value":\([0-9.eE+-]*\),.*/\1/p' "$CKPT_TMP/bench_$1_0.jsonl"; }
awk -v cold="$(wall_s fig12-cold)" -v warm="$(wall_s fig12-warm)" 'BEGIN {
    printf "fig12 cold %.3fs, warm %.6fs (%.0fx)\n", cold, warm, cold / warm
    if (!(cold >= 10 * warm)) { print "warm fig12 pass is not 10x faster than cold" > "/dev/stderr"; exit 1 }
}'

echo "== tier1: OK =="

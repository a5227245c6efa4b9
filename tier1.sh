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

echo "== tier1: trace capture/replay smoke =="
# Capture-once-replay-many through a real harness: the same fig04/SCP sweep
# runs twice against a trace store — first in auto mode (baseline captures,
# cells replay), then in strict replay mode (store must already hold the
# trace). Both runs must be byte-identical (replay is deterministic and the
# baseline, the normalisation anchor, stays execution-driven), every cell
# must actually have replayed, and nothing may fail or drop requests
# (unserved requests fail the job, which would surface as a failure record).
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/t1.jsonl" \
LAZYDRAM_TRACE_DIR="$CKPT_TMP/traces" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > /dev/null
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/t2.jsonl" \
LAZYDRAM_TRACE_DIR="$CKPT_TMP/traces" LAZYDRAM_TRACE_MODE=replay \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > /dev/null
cmp "$CKPT_TMP/t1.jsonl" "$CKPT_TMP/t2.jsonl"
grep -q '"replayed":true' "$CKPT_TMP/t1.jsonl"
if grep -q '"record":"failure"' "$CKPT_TMP/t1.jsonl"; then
    echo "trace smoke produced failure records" >&2; exit 1
fi
ls "$CKPT_TMP/traces"/*.trace > /dev/null
echo "captured + replayed sweeps byte-identical; replay cells present"

echo "== tier1: compute-skip byte-identity smoke =="
# The analytic compute-burst fast-forward must be result-invisible: the same
# fig04/SCP sweep in the three loop modes — full skip (default), idle-only
# skip (LAZYDRAM_NO_COMPUTE_SKIP=1), naive loop (LAZYDRAM_NO_SKIP=1) — must
# produce byte-identical stdout. The JSONL rows additionally embed the
# loop-instrumentation counters (cycles_skipped / compute_cycles_skipped /
# ticks_executed), which legitimately differ between loop modes, so those
# keys are stripped before comparison; everything else must match byte for
# byte.
strip_loop_counters() {
    sed -E 's/"(cycles_skipped|compute_cycles_skipped|ticks_executed)":[0-9]+,//g' "$1"
}
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/cs_full.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > "$CKPT_TMP/cs_full.out"
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 LAZYDRAM_NO_COMPUTE_SKIP=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/cs_idle.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > "$CKPT_TMP/cs_idle.out"
LAZYDRAM_APPS=SCP LAZYDRAM_SCALE=0.05 LAZYDRAM_QUIET=1 LAZYDRAM_NO_SKIP=1 \
LAZYDRAM_RESULTS="$CKPT_TMP/cs_naive.jsonl" \
    cargo bench -q -p lazydram-bench --bench fig04_delay_sweep > "$CKPT_TMP/cs_naive.out"
cmp "$CKPT_TMP/cs_full.out" "$CKPT_TMP/cs_idle.out"
cmp "$CKPT_TMP/cs_full.out" "$CKPT_TMP/cs_naive.out"
strip_loop_counters "$CKPT_TMP/cs_full.jsonl" > "$CKPT_TMP/cs_full.norm"
strip_loop_counters "$CKPT_TMP/cs_idle.jsonl" > "$CKPT_TMP/cs_idle.norm"
strip_loop_counters "$CKPT_TMP/cs_naive.jsonl" > "$CKPT_TMP/cs_naive.norm"
cmp "$CKPT_TMP/cs_full.norm" "$CKPT_TMP/cs_idle.norm"
cmp "$CKPT_TMP/cs_full.norm" "$CKPT_TMP/cs_naive.norm"
echo "full / idle-only / naive loop modes byte-identical"

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

echo "== tier1: timed smoke sweep (BENCH_PR4.json) =="
# Per-app wall clock with profiler phase breakdown, checked against the
# pre-PR baseline (crates/bench/baselines/pre_pr9.tsv, recorded at
# LAZYDRAM_SCALE=0.2). Fails loudly when any app runs slower than 2x its
# pre-PR wall clock — an order-of-magnitude-style cap (matching perf_smoke's
# stated purpose) because host CPU steal on shared 1-vCPU containers can
# shift even min-of-5 wall clocks by 50% between back-to-back runs.
# The perf_smoke run also times the trace fast path (BENCH_PR6.json): a
# fig04-style delay sweep per app, executed vs replayed, gated on the PR 6
# acceptance floor — at least one app's sweep must replay >= 5x faster
# than execution-driven — and on a zero-unserved-requests assertion
# inside the bench.
# It then times the content-addressed result store (BENCH_PR8.json):
# the same delay sweep cold (populating a fresh store) vs warm (served
# entirely from disk by a fresh runner), asserting identical measurements
# and gating on the PR 8 acceptance floor — the warm sweep must run at
# least 10x faster than the cold one.
# Finally it distils the PR 9 trajectory (BENCH_PR9.json): per-app ratios
# vs pre_pr9.tsv, the idle/compute skip split, and the sm_issue phase
# wall clock against the pre-PR column recorded in the baseline file.
# The PR 10 gate (BENCH_PR10.json) compares the same rows against
# pre_pr10.tsv — recorded immediately before the MemoryBackend trait — with
# a tight 1.15x cap: static enum dispatch is supposed to be free.
LAZYDRAM_SCALE="${LAZYDRAM_SCALE:-0.2}" \
LAZYDRAM_BENCH_OUT="${LAZYDRAM_BENCH_OUT:-$PWD/BENCH_PR4.json}" \
LAZYDRAM_MAX_REGRESSION="${LAZYDRAM_MAX_REGRESSION:-2.0}" \
LAZYDRAM_TRACE_BENCH_OUT="${LAZYDRAM_TRACE_BENCH_OUT:-$PWD/BENCH_PR6.json}" \
LAZYDRAM_MIN_TRACE_SPEEDUP="${LAZYDRAM_MIN_TRACE_SPEEDUP:-5.0}" \
LAZYDRAM_CACHE_BENCH_OUT="${LAZYDRAM_CACHE_BENCH_OUT:-$PWD/BENCH_PR8.json}" \
LAZYDRAM_MIN_CACHE_SPEEDUP="${LAZYDRAM_MIN_CACHE_SPEEDUP:-10}" \
LAZYDRAM_PR9_BENCH_OUT="${LAZYDRAM_PR9_BENCH_OUT:-$PWD/BENCH_PR9.json}" \
LAZYDRAM_PR10_BENCH_OUT="${LAZYDRAM_PR10_BENCH_OUT:-$PWD/BENCH_PR10.json}" \
LAZYDRAM_MAX_PR10_REGRESSION="${LAZYDRAM_MAX_PR10_REGRESSION:-1.15}" \
    cargo bench -q -p lazydram-bench --bench perf_smoke --features prof

echo "== tier1: OK =="

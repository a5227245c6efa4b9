#!/bin/bash
# Prioritized reproduction sweep; tee everything into bench_output.txt.
#
# The harnesses run on the parallel sweep runner by default (LAZYDRAM_JOBS
# workers, one per core unless set). Build failures and harness panics are
# fatal and land in the log — nothing is discarded.
set -euo pipefail
cd "$(dirname "$0")"
export LAZYDRAM_SCALE=${LAZYDRAM_SCALE:-0.5}
export LAZYDRAM_JOBS=${LAZYDRAM_JOBS:-$(nproc)}
# Share one content-addressed result store across all 19 harnesses: the
# baselines (and any repeated cell) simulate once in the first harness that
# needs them and come back as cache hits everywhere else. Point
# LAZYDRAM_CACHE_DIR at a persistent directory to carry the store across
# whole sweep invocations too.
export LAZYDRAM_CACHE_DIR=${LAZYDRAM_CACHE_DIR:-$(mktemp -d /tmp/lazydram-cache.XXXXXX)}
export LAZYDRAM_CACHE_MODE=${LAZYDRAM_CACHE_MODE:-auto}

# Fail loudly (and cheaply) on compile errors before the sweep starts.
# The root binary rides along for the `lazydram cache stats` report below.
cargo build --release -p lazydram-bench --benches -p lazydram

{
echo "### lazydram reproduction sweep — LAZYDRAM_SCALE=$LAZYDRAM_SCALE, LAZYDRAM_JOBS=$LAZYDRAM_JOBS"
for b in tab01_config fig08_drop_accuracy fig12_main fig04_delay_sweep tab02_classify \
         fig02_queue_size fig13_queue_dms fig05_rbl_shift fig06_cdf fig07_case_studies \
         fig10_bwutil_ipc fig11_thrbl fig14_laplacian fig15_group4 \
         abl_baselines abl_reuse abl_window abl_timing abl_backends; do
  echo; echo "##### bench: $b"
  cargo bench -q -p lazydram-bench --bench "$b"
done
echo; echo "##### bench: micro_structs"
cargo bench -q -p lazydram-bench --bench micro_structs | head -60
echo; echo "##### result store"
LAZYDRAM_CACHE_DIR="$LAZYDRAM_CACHE_DIR" ./target/release/lazydram cache stats
echo "### sweep complete"
} > bench_output.txt 2>&1

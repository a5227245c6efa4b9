#!/bin/bash
# Time-boxed completion of the reproduction sweep (parallel runner).
set -euo pipefail
cd "$(dirname "$0")"
export LAZYDRAM_JOBS=${LAZYDRAM_JOBS:-$(nproc)}
REP_APPS="GEMM,SCP,MVT,CONS,meanfilter,LPS,RAY,blackscholes"

# Fail loudly on compile errors before the sweep starts.
cargo build --release -p lazydram-bench --benches

{
echo; echo "##### bench: fig12_main (headline, LAZYDRAM_SCALE=1.0)"
LAZYDRAM_SCALE=1.0 cargo bench -q -p lazydram-bench --bench fig12_main

for b in fig05_rbl_shift fig06_cdf fig07_case_studies fig11_thrbl fig14_laplacian fig15_group4; do
  echo; echo "##### bench: $b (LAZYDRAM_SCALE=0.5)"
  LAZYDRAM_SCALE=0.5 cargo bench -q -p lazydram-bench --bench "$b"
done

echo; echo "##### bench: fig10_bwutil_ipc (LAZYDRAM_SCALE=0.5, representative apps)"
LAZYDRAM_SCALE=0.5 LAZYDRAM_APPS="$REP_APPS" cargo bench -q -p lazydram-bench --bench fig10_bwutil_ipc

echo; echo "##### bench: tab02_classify (LAZYDRAM_SCALE=0.35, representative apps)"
LAZYDRAM_SCALE=0.35 LAZYDRAM_APPS="$REP_APPS" cargo bench -q -p lazydram-bench --bench tab02_classify

echo; echo "##### bench: fig02_queue_size (LAZYDRAM_SCALE=0.35, representative apps)"
LAZYDRAM_SCALE=0.35 LAZYDRAM_APPS="$REP_APPS" cargo bench -q -p lazydram-bench --bench fig02_queue_size

echo; echo "##### bench: fig13_queue_dms (LAZYDRAM_SCALE=0.35, representative apps)"
LAZYDRAM_SCALE=0.35 LAZYDRAM_APPS="$REP_APPS" cargo bench -q -p lazydram-bench --bench fig13_queue_dms

for b in abl_baselines abl_timing abl_backends tab01_config; do
  echo; echo "##### bench: $b (LAZYDRAM_SCALE=0.5)"
  LAZYDRAM_SCALE=0.5 cargo bench -q -p lazydram-bench --bench "$b"
done

echo; echo "##### bench: micro_structs"
cargo bench -q -p lazydram-bench --bench micro_structs | head -40
echo; echo "### sweep complete"
} >> bench_output.txt 2>&1
echo finisher-done

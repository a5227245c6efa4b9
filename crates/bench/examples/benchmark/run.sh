#!/usr/bin/env bash
# Builds the `benchmark` example of lazydram-bench twice -- plain, and with
# the simulator's `prof` profiler compiled in -- and runs the build that
# matches `--trace`:
#
#   bash crates/bench/examples/benchmark/run.sh --workload sla-long --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Builds go under $CARGO_TARGET_DIR
# (default: target), one target directory per build so that switching
# between them never recompiles.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f crates/bench/Cargo.toml ]]; then
    echo "run.sh: run this from the root of a lazydram checkout" >&2
    exit 2
fi
target=${CARGO_TARGET_DIR:-target}

trace=0
prev=
for arg in "$@"; do
    if [[ $prev == --trace ]]; then
        trace=$arg
    fi
    prev=$arg
done

build() {
    cargo build --release --quiet --offline -p lazydram-bench --example benchmark --target-dir "$target/$1" "${@:2}"
}
build benchmark
build benchmark-prof --features prof

plain="$target/benchmark/release/examples/benchmark"
if [[ $trace == 1 ]]; then
    # The traced build runs the plain one once more to measure its own
    # profiler overhead.
    exec "$target/benchmark-prof/release/examples/benchmark" "$@" --untraced-bin "$plain"
fi
exec "$plain" "$@"

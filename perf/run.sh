#!/usr/bin/env bash
# The one command of the wall-clock benchmark. Run it from anywhere; it never
# changes directory, so a relative CARGO_TARGET_DIR means what the caller
# meant.
#
#   perf/run.sh                         build, then every workload untraced and
#                                       traced (one process each), print every
#                                       metric, write perf/out/BENCH.json
#   perf/run.sh --twice                 the whole set twice on one build, then
#                                       diff the two against the bounds; exit 1
#                                       if any end-to-end metric differs by more
#                                       than its workload's bound, either way,
#                                       or an exact count differs
#   perf/run.sh --spread [SEEDS]        the driver's acceptance rule, locally:
#                                       one untraced run per workload on each of
#                                       SEEDS (default 10) seeds, then the
#                                       interquartile spread of every end-to-end
#                                       metric against its bound; exit 1 if one
#                                       is over                        (≈20 min)
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                       one run (what BENCHMARK.json's command
#                                       expands to); last stdout line is the
#                                       result object
#   perf/run.sh --smoke                 3 rounds of everything on small inputs
#   perf/run.sh --diff A.json B.json [--check]
#                                       per-metric ratio, base, over-bound flag;
#                                       --check: exit 1 if B is worse than a
#                                       bound allows or an exact count differs
#   perf/run.sh --benchmark-json        what BENCHMARK.json must contain
#
# Options for the first two forms: --seed N (default 42), --seconds S
# (default: BENCHMARK.json's run_seconds).
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
BIN="${CARGO_TARGET_DIR:-$HERE/target}/release/textjoin-perf"
WORKLOADS=(text_search single_join serve_stream trace_pipeline)

# Cargo's chatter goes to stderr: stdout carries results only.
cargo build --release --offline --manifest-path "$HERE/Cargo.toml" >&2

run_set() { # <out dir> <extra args...>
    local out="$1"
    shift
    mkdir -p "$out"
    for w in "${WORKLOADS[@]}"; do
        for trace in 0 1; do
            # The result object is for the driver; people read the table.
            "$BIN" --workload "$w" --trace "$trace" --out-dir "$out" "$@" | grep -v '^{'
        done
    done
    "$BIN" --merge "$out"
}

case "${1:-}" in
--workload)
    exec "$BIN" "$@" --out-dir "$HERE/out"
    ;;
--smoke | --diff | --benchmark-json | --merge)
    exec "$BIN" "$@"
    ;;
--spread)
    seeds="${2:-10}"
    rm -rf "$HERE/out/spread"
    for seed in $(seq 1 "$seeds"); do
        for w in "${WORKLOADS[@]}"; do
            "$BIN" --workload "$w" --seed "$seed" --trace 0 --out-dir "$HERE/out/spread/$seed" >/dev/null
        done
    done
    "$BIN" --spread "$HERE/out/spread"
    ;;
--twice)
    shift
    run_set "$HERE/out/run1" "$@"
    run_set "$HERE/out/run2" "$@"
    "$BIN" --diff "$HERE/out/run1/BENCH.json" "$HERE/out/run2/BENCH.json" --repeat
    ;;
*)
    run_set "$HERE/out" "$@"
    ;;
esac

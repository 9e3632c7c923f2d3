#!/usr/bin/env bash
# Runs the perf-trajectory microbenchmarks and records their JSON output.
#
#   bench/run_bench.sh [build_dir] [out_dir]
#
# build_dir defaults to ./build (the tier-1 configure location), out_dir to
# the repository root. Produces:
#   BENCH_overhead.json    — checked-access primitives, Standard vs FO,
#                            byte loops vs cursor/span fast path, and the
#                            FO error path (5 repetitions; the perf-smoke
#                            gate bounds invalid/valid access medians)
#   BENCH_span_path.json   — strcpy/memcpy/UTF-8 decode, byte loop vs span,
#                            under all seven policies
#   BENCH_check_cost.json  — access-resolution cost vs live-object
#                            population (Standard vs checked vs mixed
#                            spec), sequential + random axes, with
#                            page-map fast-path hit-rate counters; CI's
#                            perf-smoke gate (tools/check_perf_smoke.py)
#                            runs over this file
#   BENCH_boundless.json   — boundless OOB store scaling, flat byte-map vs
#                            paged store, on the dense-overflow /
#                            sparse-spray / unit-churn axes; the perf-smoke
#                            gate bounds the paged/flat ratio on the
#                            sparse-spray axis
#   BENCH_throughput.json  — parallel-Frontend serving throughput,
#                            requests/sec vs worker-thread count x batch
#                            size, per policy (FO vs Bounds Check vs
#                            Standard), with per-request p50/p99 latency
#                            counters; worker lanes run on the Frontend's
#                            persistent executor threads, and the
#                            pump-overhead pair (persistent vs legacy
#                            fork/join) plus the imbalanced-stream stealing
#                            pair ride along for the perf-smoke gate
#   BENCH_capacity.json    — workers-for-SLO capacity curves per policy,
#                            derived from BENCH_throughput.json by
#                            bench_capacity (rate/worker, crash rate,
#                            restart overhead, workers needed at 70%
#                            utilization per offered load)
#
# All files are google-benchmark JSON; compare runs with
# benchmark/tools/compare.py or by diffing real_time per benchmark name.
# Every file's "context" object records the machine's hardware concurrency
# (and, for the throughput bench, the worker-thread axis) so per-machine
# trajectory comparisons stay honest: a 1-core container cannot show
# multi-threaded scaling that a 4-core CI runner will.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$repo_root}"

if [[ ! -x "$build_dir/bench_overhead" ]]; then
  echo "bench binaries not found in $build_dir; configure and build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

min_time="${BENCH_MIN_TIME:-0.05}"
hw_threads="$(nproc)"

run() {
  local binary="$1" out="$2"
  shift 2
  echo "== $binary -> $out"
  "$build_dir/$binary" \
    --benchmark_format=json \
    --benchmark_min_time="$min_time" \
    "$@" \
    >"$out_dir/$out"
}

# Five interleaved repetitions: the perf-smoke error-path gate compares
# medians, and interleaving puts every benchmark's repetitions under the
# same spread of host load.
run bench_overhead BENCH_overhead.json --benchmark_context=hardware_concurrency="$hw_threads" \
  --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true
run bench_span_path BENCH_span_path.json --benchmark_context=hardware_concurrency="$hw_threads"
run bench_check_cost BENCH_check_cost.json --benchmark_context=hardware_concurrency="$hw_threads"
run bench_boundless BENCH_boundless.json --benchmark_context=hardware_concurrency="$hw_threads"
# bench_frontend_throughput bakes worker_threads_axis + hardware_concurrency
# into its JSON context itself (see its main), so direct runs are covered too.
run bench_frontend_throughput BENCH_throughput.json

# Derive the capacity curves from the throughput run (plain binary, not a
# google-benchmark harness: it reads one JSON and writes another).
echo "== bench_capacity -> BENCH_capacity.json"
"$build_dir/bench_capacity" "$out_dir/BENCH_throughput.json" "$out_dir/BENCH_capacity.json"

echo "done; wrote $out_dir/BENCH_overhead.json, $out_dir/BENCH_span_path.json,"
echo "$out_dir/BENCH_check_cost.json, $out_dir/BENCH_boundless.json,"
echo "$out_dir/BENCH_throughput.json and $out_dir/BENCH_capacity.json"

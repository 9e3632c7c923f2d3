#!/usr/bin/env python3
"""Perf-smoke gate over the perf-trajectory benchmark JSON files.

Over BENCH_check_cost.json: pairs each checked benchmark
(BM_CheckCost*FailureOblivious*) with its raw counterpart (same name with
Standard in place of FailureOblivious, same args) and fails if the
checked/raw slowdown exceeds --max-ratio. Every scalar access is
classified against its referent by id, so checked scalar reads should sit
within a small constant of raw ones; a ratio past the bound means per-access
work crept into the valid-access path.

It also pairs each BM_ResidentProbeFailureOblivious/N (reads scattered over
small blocks packed many to a page) with BM_CheckCostFailureOblivious/N
(sequential reads of one large block, same live population) under the same
--max-ratio. The check keys on the pointer's referent, not on its page, so
packing must not make a valid access dearer; past the bound, a lookup that
depends on page ownership or on the table's size crept back in.

With --boundless BENCH_boundless.json: additionally pairs each
BM_BoundlessSparseSprayPaged/N with BM_BoundlessSparseSprayFlat/N and fails
if the paged store exceeds --max-boundless-ratio times the flat baseline on
that axis. The paged store's whole point is to beat the flat byte-map on
sprayed stores; paged/flat drifting past the bound means a paged-store
regression (per-byte work crept back into the span path, or page
materialization got pathological).

With --throughput BENCH_throughput.json: additionally gates pump dispatch
overhead — BM_FrontendPumpOverheadPersistent (the parked persistent-
executor path) must beat BM_FrontendPumpOverheadLegacy (fork/join a thread
per lane per pump) by at least --min-pump-speedup on the small-batch
8-worker round-trip regime. The pair is only meaningful with real
parallelism, so when the report's context says hardware_concurrency <= 1
the gate is skipped (a 1-core container cannot show it; a multi-core CI
runner must).

With --overhead BENCH_overhead.json: additionally gates the cost of the
failure-oblivious error path. The medians over repetitions of
BM_DiscardedWrite and BM_ManufacturedRead (one invalid access each: check,
site lookup, log record, continuation) are compared with the per-byte
median of BM_ByteReads/1 (one valid checked access) and must stay within
--max-error-path-ratio. Past the bound, per-error work (string copies,
hashing, allocation) crept back into the error path. CPU time is compared
on both sides; bench/run_bench.sh records 5 interleaved repetitions.

Usage: tools/check_perf_smoke.py [BENCH_check_cost.json] [--max-ratio 6.0]
           [--boundless BENCH_boundless.json] [--max-boundless-ratio 2.0]
           [--throughput BENCH_throughput.json] [--min-pump-speedup 1.3]
           [--overhead BENCH_overhead.json] [--max-error-path-ratio 4.0]
Exit status: 0 all pairs within their bounds; 1 a pair exceeded its bound
or no pairs were found (a vacuous gate is a failing gate); 2 an input file
is missing or not a benchmark JSON report (config error, never a
traceback).
"""

import argparse
import json
import sys


def per_item_ns(entry):
    """Nanoseconds per processed item, from items_per_second."""
    ips = entry.get("items_per_second")
    if isinstance(ips, (int, float)) and ips > 0:
        return 1e9 / ips
    return None


def read_report(json_path):
    """(iteration entries, context) of a google-benchmark JSON report: the
    real runs, one per repetition, without the aggregates; or an int exit
    status on config error."""
    try:
        with open(json_path, encoding="utf-8") as f:
            report = json.load(f)
    except OSError as err:
        print(f"error: cannot read {json_path}: {err.strerror or err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: {json_path} is not valid JSON: {err}", file=sys.stderr)
        return 2

    benchmarks = report.get("benchmarks") if isinstance(report, dict) else None
    if not isinstance(benchmarks, list):
        print(f"error: {json_path} has no 'benchmarks' array "
              "(not a google-benchmark JSON report?)", file=sys.stderr)
        return 2

    context = report.get("context") if isinstance(report.get("context"), dict) else {}
    entries = [entry for entry in benchmarks
               if isinstance(entry, dict) and "name" in entry
               and entry.get("run_type", "iteration") == "iteration"]
    return entries, context


def load_runs(json_path):
    """(runs, context): real benchmark runs keyed by full name plus the
    report's context object, or an int exit status on config error."""
    loaded = read_report(json_path)
    if isinstance(loaded, int):
        return loaded
    entries, context = loaded
    runs = {}
    for entry in entries:
        ns = per_item_ns(entry)
        if ns is not None:
            runs[entry["name"]] = (ns, entry)
    return runs, context


def load_repetitions(json_path):
    """{name: [cpu ns per repetition]}, plus {name: [ns per byte]} for
    entries with a bytes_per_second rate; an int exit status on config
    error."""
    loaded = read_report(json_path)
    if isinstance(loaded, int):
        return loaded
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    per_op, per_byte = {}, {}
    for entry in loaded[0]:
        name = entry.get("run_name", entry["name"])
        cpu = entry.get("cpu_time")
        if isinstance(cpu, (int, float)) and entry.get("time_unit", "ns") in to_ns:
            per_op.setdefault(name, []).append(cpu * to_ns[entry.get("time_unit", "ns")])
        bps = entry.get("bytes_per_second")
        if isinstance(bps, (int, float)) and bps > 0:
            per_byte.setdefault(name, []).append(1e9 / bps)
    return per_op, per_byte


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def check_error_path(json_path, max_ratio):
    """(pairs, failures) for the error-path gate, or an int exit status."""
    loaded = load_repetitions(json_path)
    if isinstance(loaded, int):
        return loaded
    per_op, per_byte = loaded
    base = per_byte.get("BM_ByteReads/1")
    if not base:
        print(f"error: no BM_ByteReads/1 runs in {json_path}; error-path gate is vacuous",
              file=sys.stderr)
        return 1
    base_ns = median(base)
    pairs, failures = 0, []
    for name in ("BM_DiscardedWrite", "BM_ManufacturedRead"):
        runs = per_op.get(name)
        if not runs:
            print(f"error: no {name} runs in {json_path}; error-path gate is vacuous",
                  file=sys.stderr)
            return 1
        test_ns = median(runs)
        ratio = test_ns / base_ns if base_ns > 0 else float("inf")
        pairs += 1
        verdict = "ok" if ratio <= max_ratio else "FAIL"
        print(f"{verdict}: {name}: median {test_ns:.1f} ns ({len(runs)} reps) vs "
              f"BM_ByteReads/1 median {base_ns:.1f} ns/byte ({len(base)} reps) "
              f"-> {ratio:.2f}x (bound {max_ratio:g}x)")
        if ratio > max_ratio:
            failures.append((name, ratio))
    return pairs, failures


def hardware_concurrency(context):
    """The report's recorded core count, or None when absent/garbled."""
    value = context.get("hardware_concurrency")
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def check_pairs(runs, select, to_baseline, max_ratio, what):
    """Generic paired gate: each selected run vs its baseline counterpart.

    Returns (pairs, failures): the number of pairs checked and the list of
    (name, ratio) pairs over the bound.
    """
    failures = []
    pairs = 0
    for name, (test_ns, entry) in sorted(runs.items()):
        if not select(name):
            continue
        base_name = to_baseline(name)
        if base_name not in runs:
            print(f"warning: no {what} baseline for {name}", file=sys.stderr)
            continue
        base_ns = runs[base_name][0]
        ratio = test_ns / base_ns if base_ns > 0 else float("inf")
        pairs += 1
        hit_rate = entry.get("hit_rate")
        hit = f", hit_rate {hit_rate:.3f}" if hit_rate is not None else ""
        verdict = "ok" if ratio <= max_ratio else "FAIL"
        print(f"{verdict}: {name}: {test_ns:.1f} ns vs {base_name} {base_ns:.1f} ns "
              f"-> {ratio:.2f}x (bound {max_ratio:g}x{hit})")
        if ratio > max_ratio:
            failures.append((name, ratio))
    return pairs, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", nargs="?", default="BENCH_check_cost.json")
    parser.add_argument("--max-ratio", type=float, default=6.0,
                        help="maximum allowed checked/raw per-item time ratio")
    parser.add_argument("--boundless", metavar="BENCH_boundless.json", default=None,
                        help="also gate the paged/flat boundless sparse-spray pairs "
                             "from this report")
    parser.add_argument("--max-boundless-ratio", type=float, default=2.0,
                        help="maximum allowed paged/flat per-byte time ratio on the "
                             "sparse-spray axis")
    parser.add_argument("--throughput", metavar="BENCH_throughput.json", default=None,
                        help="also gate the persistent-executor vs legacy fork/join "
                             "pump-overhead pair from this report")
    parser.add_argument("--min-pump-speedup", type=float, default=1.3,
                        help="minimum persistent-over-legacy pump speedup on "
                             "multi-core machines (skipped at hardware_concurrency<=1)")
    parser.add_argument("--overhead", metavar="BENCH_overhead.json", default=None,
                        help="also gate the error-path cost (discarded write, "
                             "manufactured read) against a valid checked byte read")
    parser.add_argument("--max-error-path-ratio", type=float, default=4.0,
                        help="maximum allowed invalid-access / valid-byte-read median "
                             "time ratio")
    args = parser.parse_args()

    loaded = load_runs(args.json_path)
    if isinstance(loaded, int):
        return loaded
    runs, _ = loaded

    pairs, failures = check_pairs(
        runs,
        select=lambda n: n.startswith("BM_CheckCost") and "FailureOblivious" in n,
        to_baseline=lambda n: n.replace("FailureOblivious", "Standard"),
        max_ratio=args.max_ratio,
        what="raw")

    probe_pairs, probe_failures = check_pairs(
        runs,
        select=lambda n: n.startswith("BM_ResidentProbeFailureOblivious/"),
        to_baseline=lambda n: n.replace("BM_ResidentProbeFailureOblivious",
                                        "BM_CheckCostFailureOblivious"),
        max_ratio=args.max_ratio,
        what="sequential checked")
    if probe_pairs == 0:
        print("error: no resident-probe/sequential pairs found; packed-block gate is vacuous",
              file=sys.stderr)
        return 1
    pairs += probe_pairs
    failures += probe_failures

    if args.boundless is not None:
        loaded = load_runs(args.boundless)
        if isinstance(loaded, int):
            return loaded
        boundless_runs, _ = loaded
        spray_pairs, spray_failures = check_pairs(
            boundless_runs,
            select=lambda n: n.startswith("BM_BoundlessSparseSprayPaged"),
            to_baseline=lambda n: n.replace("SparseSprayPaged", "SparseSprayFlat"),
            max_ratio=args.max_boundless_ratio,
            what="flat-store")
        pairs += spray_pairs
        failures += spray_failures
        if spray_pairs == 0:
            print("error: no paged/flat sparse-spray pairs found; boundless gate is vacuous",
                  file=sys.stderr)
            return 1

    if args.throughput is not None:
        loaded = load_runs(args.throughput)
        if isinstance(loaded, int):
            return loaded
        throughput_runs, context = loaded
        cores = hardware_concurrency(context)
        if cores is not None and cores <= 1:
            # One core cannot overlap lanes: fork/join vs parked threads is
            # pure scheduler noise there, so the gate would only flake.
            print(f"skip: pump-overhead gate (hardware_concurrency={cores}; "
                  "pair needs real parallelism)")
        else:
            # persistent/legacy per-item time <= 1/speedup <=> persistent is
            # at least `speedup` times faster.
            pump_pairs, pump_failures = check_pairs(
                throughput_runs,
                select=lambda n: n.startswith("BM_FrontendPumpOverheadPersistent"),
                to_baseline=lambda n: n.replace("Persistent", "Legacy"),
                max_ratio=1.0 / args.min_pump_speedup,
                what="legacy fork/join")
            pairs += pump_pairs
            failures += pump_failures
            if pump_pairs == 0:
                print("error: no persistent/legacy pump-overhead pair found; "
                      "pump gate is vacuous", file=sys.stderr)
                return 1

    if args.overhead is not None:
        checked = check_error_path(args.overhead, args.max_error_path_ratio)
        if isinstance(checked, int):
            return checked
        pairs += checked[0]
        failures += checked[1]

    if pairs == 0:
        print("error: no checked/raw benchmark pairs found; gate is vacuous", file=sys.stderr)
        return 1
    if failures:
        print(f"\nperf smoke FAILED: {len(failures)} pair(s) over bound", file=sys.stderr)
        return 1
    print(f"\nperf smoke ok: {pairs} pair(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

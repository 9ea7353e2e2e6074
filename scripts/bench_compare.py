#!/usr/bin/env python3
"""Compare a fresh benchmark run against the committed baseline.

Reads two ``BENCH_*.json`` documents (the shape
``benchmarks/conftest.py`` writes: ``{"benchmarks": {nodeid:
{"seconds": ...}}}``), prints a per-benchmark table, and exits 1 when
any benchmark regressed beyond tolerance.

Regression policy: a benchmark regresses when its time exceeds
``baseline * (1 + --tolerance)`` AND the absolute growth exceeds
``--min-seconds`` — the noise floor keeps micro-benchmarks (a few ms,
dominated by scheduler jitter) from flapping the check. Benchmarks
present on only one side are reported but never fail the comparison
(new benchmarks have no baseline; removed ones have no run).

Per-analyzer timings (the ``analyzers`` section ``analyzer_recorder``
writes, e.g. the shared-vs-independent breakdown from
``test_bench_fused``) are compared the same way under their own, looser
knobs (``--analyzer-tolerance`` / ``--analyzer-min-seconds``): a single
analyzer's column is tens of milliseconds, so it needs a wider relative
band and a lower absolute floor than whole benchmarks to catch a real
per-analyzer regression without flapping on scheduler jitter.

CI wires this as a *non-blocking* annotation on the bench-smoke leg:
shared-runner timings are too noisy to gate merges on, but the table
in the job log makes a real regression visible the day it lands.

Usage::

    python scripts/bench_compare.py \
        --baseline BENCH_baseline.json --run BENCH_run.json \
        [--tolerance 0.35] [--min-seconds 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys


def load_benchmarks(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bench-compare: cannot read {path!r}: {exc}")
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict):
        raise SystemExit(
            f"bench-compare: {path!r} has no 'benchmarks' mapping")
    out = {}
    for nodeid, record in benchmarks.items():
        seconds = record.get("seconds") if isinstance(record, dict) else None
        if isinstance(seconds, (int, float)) and not isinstance(
                seconds, bool):
            out[nodeid] = float(seconds)
    return out


def load_analyzers(path: str) -> dict:
    """Flat ``{"<nodeid>::<analyzer>": seconds}`` map from ``analyzers``.

    The section is optional (the committed baseline may predate it);
    missing or malformed entries are skipped, mirroring
    :func:`load_benchmarks`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    analyzers = doc.get("analyzers")
    if not isinstance(analyzers, dict):
        return {}
    out = {}
    for nodeid, timings in analyzers.items():
        if not isinstance(timings, dict):
            continue
        for analyzer, seconds in timings.items():
            if isinstance(seconds, (int, float)) and not isinstance(
                    seconds, bool):
                out[f"{nodeid}::{analyzer}"] = float(seconds)
    return out


def short_name(nodeid: str) -> str:
    """``benchmarks/test_bench_x.py::test_y`` -> ``test_bench_x::test_y``."""
    name = nodeid.split("/")[-1]
    return name.replace(".py::", "::")


def compare(baseline: dict, run: dict, tolerance: float,
            min_seconds: float):
    """(table rows, regressed nodeids) for the two timing maps."""
    rows = []
    regressed = []
    for nodeid in sorted(set(baseline) | set(run)):
        base = baseline.get(nodeid)
        fresh = run.get(nodeid)
        if base is None:
            rows.append((short_name(nodeid), "-", f"{fresh:.3f}", "-",
                         "new"))
            continue
        if fresh is None:
            rows.append((short_name(nodeid), f"{base:.3f}", "-", "-",
                         "missing"))
            continue
        delta = fresh - base
        change = (fresh / base - 1.0) if base > 0 else float("inf")
        over_ratio = fresh > base * (1.0 + tolerance)
        over_floor = delta > min_seconds
        status = "REGRESSED" if (over_ratio and over_floor) else "ok"
        if status == "REGRESSED":
            regressed.append(nodeid)
        rows.append((short_name(nodeid), f"{base:.3f}", f"{fresh:.3f}",
                     f"{change:+.1%}" if base > 0 else "-",
                     status))
    return rows, regressed


def print_table(rows) -> None:
    headers = ("benchmark", "baseline(s)", "run(s)", "ratio", "status")
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff a benchmark run against the committed baseline")
    parser.add_argument("--baseline", default="BENCH_baseline.json",
                        help="committed baseline timings")
    parser.add_argument("--run", default="BENCH_run.json",
                        help="fresh run to compare (benchmarks/ output)")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed relative growth before a benchmark "
                             "counts as regressed (default: 0.35 = +35%%)")
    parser.add_argument("--min-seconds", type=float, default=0.25,
                        help="absolute-growth noise floor; smaller "
                             "slowdowns never fail (default: 0.25s)")
    parser.add_argument("--analyzer-tolerance", type=float, default=0.75,
                        help="allowed relative growth for one analyzer's "
                             "recorded timing (default: 0.75 = +75%%)")
    parser.add_argument("--analyzer-min-seconds", type=float, default=0.1,
                        help="absolute-growth noise floor for per-analyzer "
                             "timings (default: 0.1s)")
    args = parser.parse_args(argv)

    baseline = load_benchmarks(args.baseline)
    run = load_benchmarks(args.run)
    rows, regressed = compare(baseline, run, args.tolerance,
                              args.min_seconds)
    print(f"bench-compare: {args.run} vs {args.baseline} "
          f"(tolerance +{args.tolerance:.0%}, "
          f"floor {args.min_seconds:g}s)")
    print_table(rows)

    base_analyzers = load_analyzers(args.baseline)
    run_analyzers = load_analyzers(args.run)
    if base_analyzers or run_analyzers:
        analyzer_rows, analyzer_regressed = compare(
            base_analyzers, run_analyzers, args.analyzer_tolerance,
            args.analyzer_min_seconds)
        print(f"\nper-analyzer timings "
              f"(tolerance +{args.analyzer_tolerance:.0%}, "
              f"floor {args.analyzer_min_seconds:g}s)")
        print_table(analyzer_rows)
        regressed = regressed + analyzer_regressed

    if regressed:
        print(f"\nbench-compare: {len(regressed)} benchmark(s) regressed:")
        for nodeid in regressed:
            print(f"  {nodeid}")
        return 1
    print("\nbench-compare: ok — no benchmark regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

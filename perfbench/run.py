"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {cold-corpus,warm-edit,serve-mix}
        --seed N --seconds S --trace {0,1}

Human-readable lines come first: every end-to-end metric by name and
unit (the workload's own names), the input description, the output
fingerprint and the per-operation outcomes. The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. A traced run also runs the untraced window, which is how
the tracing overhead is measured.

Exits non-zero, printing no result, when the program's source tree
(``src/repro``) is not next to this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile

#: Workload name -> the benchmark module that runs it.
MODULES = {"cold-corpus": "cold", "warm-edit": "warm",
           "serve-mix": "servemix"}
WORKLOADS = tuple(MODULES)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def format_value(value: float) -> str:
    return repr(float(value))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(root, 'src')}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, root)
    from perfbench import harness

    # Only the chosen workload is imported, so a change to a surface that
    # one workload uses cannot break the others.
    module = importlib.import_module("perfbench." + MODULES[args.workload])
    work_parent = os.path.join(root, ".perfbench-work")
    os.makedirs(work_parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent)
    ctx = harness.Context(seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace), root=root, work=work)
    try:
        report = module.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in report.named.items():
        print(f"metric {name} {format_value(value)} {unit}")
    print("input " + json.dumps(report.inputs, sort_keys=True))
    for outcomes in report.outcomes:
        print(f"outcomes {outcomes.name} "
              + json.dumps(outcomes.describe(), sort_keys=True))
    print(f"fingerprint sha256:{report.fingerprint}")
    for line in report.notes:
        print(line)
    if ctx.probe.times:
        print(f"probe p50_ms {1e3 * harness.median(ctx.probe.times):.4f} "
              f"reference_ms {1e3 * harness.SpeedProbe.REFERENCE_S:.4f} "
              f"n {len(ctx.probe.times)}")

    chosen = report.gated
    if args.trace:
        from perfbench import layers

        chosen = {**layers.zero_metrics(), **report.per_layer}
        for name, (value, unit) in chosen.items():
            print(f"layer {name} {format_value(value)} {unit}")
    metrics = {name: harness.metric(value, unit)
               for name, (value, unit) in chosen.items()}
    correct = not any(reason.startswith("check:")
                      for outcomes in report.outcomes
                      for reason in outcomes.failures)
    print(harness.result_line(report.attempted, report.failed, correct,
                              metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

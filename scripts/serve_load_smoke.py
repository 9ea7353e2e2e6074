#!/usr/bin/env python3
"""The CI serve-load leg: loadgen + SLO gate against the daemon.

Trains a small model, then measures ``/analyze`` throughput end to
end, daemon by daemon:

1. an engine pool of 1 (``--pool-size 1``, one extraction at a time)
   at concurrency 8 — the baseline the sized pool must beat;
2. an engine pool sized to the host (capped at 4) at concurrency 8 —
   must reach at least twice the baseline throughput on a multi-core
   host (the pool's whole point);
3. the sized pool at concurrency 16 — the overload leg: high
   concurrency must produce bounded latency and clean 503 shedding,
   never errors, and the live daemon must then pass
   ``repro slo-check --url`` against the committed latency/shed-rate
   rules.

Both daemons run ``--no-cache`` so every request pays the real
extraction cost — a warm feature cache would hide the concurrency
model entirely. Reports land in ``loadgen-*.json`` (one per leg, CI
uploads them as artifacts) and every leg's metrics are merged into
``BENCH_run.json`` under the ``serving`` section.

Run locally from the repo root:
``PYTHONPATH=src python scripts/serve_load_smoke.py``. On a
single-core host the >= 2x scaling assertion is reported but not
enforced (there is nothing to scale onto); CI runners are multi-core,
so the gate is real where it matters.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from smokeboot import (  # noqa: E402 — sibling helper module
    DaemonError,
    boot_daemon,
    cli_env,
    kill_quietly,
    shutdown_daemon,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET_TREE = os.path.join("src", "repro", "serve")
DURATION = float(os.environ.get("SERVE_LOAD_DURATION", "8"))
WARMUP = float(os.environ.get("SERVE_LOAD_WARMUP", "2"))
POOL_SIZE = int(os.environ.get("SERVE_LOAD_POOL", str(min(4, os.cpu_count() or 1))))

SLO_RULES = {
    "slo": [
        {
            "name": "analyze-p99",
            "kind": "latency",
            "histogram": "serve.analyze.seconds",
            "stat": "p99",
            "max_seconds": 30.0,
        },
        {
            "name": "pool-shed-rate",
            "kind": "ratio_max",
            "numerator": "serve.pool.shed",
            "denominator": "serve.requests",
            "max_ratio": 0.25,
        },
        {
            "name": "loop-shed-rate",
            "kind": "ratio_max",
            "numerator": "serve.aio.shed",
            "denominator": "serve.requests",
            "max_ratio": 0.25,
        },
        {
            "name": "server-error-budget",
            "kind": "counter_max",
            "counter": "serve.errors.500",
            "max_value": 0,
        },
    ]
}


def fail(message):
    print(f"serve-load: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def step(message):
    print(f"serve-load: {message}", flush=True)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
    )


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_loadgen(base, concurrency, label, report):
    """One loadgen run against a live daemon; returns its summary."""
    result = subprocess.run(
        [
            sys.executable,
            os.path.join("scripts", "loadgen.py"),
            "--url",
            base,
            "--endpoint",
            "/analyze",
            "--payload",
            json.dumps({"path": TARGET_TREE}),
            "--concurrency",
            str(concurrency),
            "--duration",
            str(DURATION),
            "--warmup",
            str(WARMUP),
            "--report",
            report,
            "--bench-json",
            "BENCH_run.json",
            "--label",
            label,
        ],
        cwd=REPO_ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        fail(
            f"loadgen ({label}) exited {result.returncode}:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    with open(os.path.join(REPO_ROOT, report), encoding="utf-8") as f:
        summary = json.load(f)
    step(
        f"{label}: {summary['throughput_rps']:.1f} req/s, "
        f"p50 {summary['latency_ms']['p50']:.0f} ms, "
        f"p99 {summary['latency_ms']['p99']:.0f} ms, "
        f"shed {summary['shed']}, errors {summary['errors']}"
    )
    if summary["errors"]:
        fail(f"{label}: {summary['errors']} hard errors under load")
    if not summary["ok"]:
        fail(f"{label}: no successful requests at all")
    return summary


def serve_argv(model, port, pool_size):
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--model",
        model,
        "--port",
        str(port),
        "--pool-size",
        str(pool_size),
        "--no-cache",
    ]


def main():
    workdir = tempfile.mkdtemp(prefix="serve-load-")
    model = os.path.join(workdir, "model.pkl")
    slo_path = os.path.join(workdir, "slo.json")
    with open(slo_path, "w", encoding="utf-8") as handle:
        json.dump(SLO_RULES, handle)

    step("training a small model")
    train = run_cli(
        "train",
        "--apps",
        "8",
        "--folds",
        "3",
        "--seed",
        "42",
        "--out",
        model,
    )
    if train.returncode != 0:
        fail(f"train exited {train.returncode}:\n{train.stderr}")

    step("baseline: engine pool of 1, concurrency 8")
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    stderr_path = os.path.join(workdir, "pool1.stderr")
    try:
        daemon, _ = boot_daemon(
            serve_argv(model, port, 1),
            base,
            stderr_path,
            cwd=REPO_ROOT,
        )
    except DaemonError as exc:
        fail(exc.message)
    try:
        pool1_c8 = run_loadgen(
            base, 8, "analyze.pool1.c8", "loadgen-pool1-c8.json"
        )
        shutdown_daemon(daemon, stderr_path)
    except DaemonError as exc:
        fail(exc.message)
    finally:
        kill_quietly(daemon)

    step(f"engine pool of {POOL_SIZE}, concurrency 8 and 16")
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    stderr_path = os.path.join(workdir, "async.stderr")
    try:
        daemon, _ = boot_daemon(
            serve_argv(model, port, POOL_SIZE),
            base,
            stderr_path,
            cwd=REPO_ROOT,
        )
    except DaemonError as exc:
        fail(exc.message)
    try:
        async_c8 = run_loadgen(
            base, 8, "analyze.async.c8", "loadgen-async-c8.json"
        )
        async_c16 = run_loadgen(
            base, 16, "analyze.async.c16", "loadgen-async-c16.json"
        )

        step("slo-check --url against the loaded async daemon")
        check = run_cli("slo-check", "--slo", slo_path, "--url", base)
        print(check.stdout, end="")
        if check.returncode != 0:
            fail(
                f"slo-check exited {check.returncode}:\n"
                f"{check.stdout}\n{check.stderr}"
            )
        shutdown_daemon(daemon, stderr_path)
    except DaemonError as exc:
        fail(exc.message)
    finally:
        kill_quietly(daemon)

    if async_c16["shed_rate"] > 0.25:
        fail(
            f"async c16 shed rate {async_c16['shed_rate']:.2f} "
            f"exceeds 0.25"
        )
    ratio = (
        async_c8["throughput_rps"] / pool1_c8["throughput_rps"]
        if pool1_c8["throughput_rps"]
        else float("inf")
    )
    cores = os.cpu_count() or 1
    step(
        f"throughput: pool 1 {pool1_c8['throughput_rps']:.1f} req/s "
        f"vs pool {POOL_SIZE} {async_c8['throughput_rps']:.1f} req/s "
        f"({ratio:.2f}x, {cores} cores)"
    )
    if cores >= 2 and POOL_SIZE >= 2:
        if ratio < 2.0:
            fail(
                f"engine pool scaled only {ratio:.2f}x over the "
                f"pool-of-1 baseline (need >= 2x at concurrency 8)"
            )
    else:
        step("single-core host: >= 2x scaling gate reported, not enforced")

    step("PASS — load SLOs hold and the engine pool scales")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

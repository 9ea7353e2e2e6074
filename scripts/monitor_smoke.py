#!/usr/bin/env python3
"""End-to-end smoke test for the telemetry stack (CI monitor-smoke leg).

Boots a real `repro serve` subprocess with an SLO rule file and a
telemetry stream, drives traffic at it, and checks the observability
contract from the outside:

1. `/metricz` negotiates: `Accept: text/plain` serves parseable
   Prometheus text exposition; the default stays the JSON snapshot;
2. `/healthz` carries the SLO block and stays `ok` under healthy
   traffic;
3. responses echo the request's trace identity (`X-Trace-Id`,
   `traceparent`), honouring an inbound `traceparent` header;
4. the stream holds one `serve.request` span event per handled
   request, carrying every access-record field (method, endpoint,
   status, trace ID, duration, rows scored, shed flag) and the
   propagated trace ID;
5. after SIGTERM, `repro slo-check --stream` exits 0 against the
   exported healthy stream, and exits non-zero naming the breached
   rule against a synthetically degraded stream;
6. `repro monitor --stream --once` renders a dashboard frame from the
   exported stream.

Run locally from the repo root:
`PYTHONPATH=src python scripts/monitor_smoke.py`.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from smokeboot import (  # noqa: E402 — sibling helper module
    DaemonError,
    boot_daemon,
    cli_env,
    kill_quietly,
    shutdown_daemon,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET_TREE = os.path.join("src", "repro", "obs")

SLO_RULES = {
    "slo": [
        {"name": "predict-p99", "kind": "latency",
         "histogram": "serve.predict.seconds", "stat": "p99",
         "max_seconds": 30.0},
        {"name": "shed-rate", "kind": "ratio_max",
         "numerator": "serve.aio.shed", "denominator": "serve.requests",
         "max_ratio": 0.5},
        {"name": "error-budget", "kind": "counter_max",
         "counter": "serve.errors", "max_value": 100},
    ]
}


def fail(message: str) -> None:
    print(f"monitor-smoke: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def step(message: str) -> None:
    print(f"monitor-smoke: {message}", flush=True)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT, env=cli_env(), capture_output=True, text=True)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(url: str, doc=None, method: str = "GET", headers=None):
    data = json.dumps(doc).encode() if doc is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    for name, value in (headers or {}).items():
        req.add_header(name, value)
    with urllib.request.urlopen(req, timeout=15) as resp:
        return resp.status, resp.read().decode(), dict(resp.headers)


def parse_prometheus(text: str) -> dict:
    """Parse text exposition into {metric{labels}: value}; fail on noise."""
    samples = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(" ", 1)
        if len(parts) != 2:
            fail(f"unparseable exposition line {lineno}: {line!r}")
        name, value = parts
        try:
            samples[name] = float(value)
        except ValueError:
            fail(f"non-numeric sample on line {lineno}: {line!r}")
    return samples


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="monitor-smoke-")
    model = os.path.join(workdir, "model.pkl")
    slo_path = os.path.join(workdir, "slo.json")
    stream_path = os.path.join(workdir, "telemetry.jsonl")
    with open(slo_path, "w", encoding="utf-8") as handle:
        json.dump(SLO_RULES, handle)

    step("training a small model")
    train = run_cli("train", "--apps", "8", "--folds", "3",
                    "--seed", "42", "--out", model)
    if train.returncode != 0:
        fail(f"train exited {train.returncode}:\n{train.stderr}")

    port = free_port()
    base = f"http://127.0.0.1:{port}"
    stderr_path = os.path.join(workdir, "daemon.stderr")
    step(f"booting repro serve with SLO + stream on {port}")
    try:
        server, health = boot_daemon(
            [sys.executable, "-m", "repro",
             "--stream", stream_path,
             "serve", "--model", model, "--port", str(port),
             "--slo", slo_path],
            base, stderr_path, cwd=REPO_ROOT)
    except DaemonError as exc:
        fail(exc.message)
    try:
        step("driving traffic (predict + analyze)")
        _, offline, _ = request(f"{base}/analyze",
                                {"path": TARGET_TREE}, "POST")
        features = json.loads(offline)["features"]
        for _ in range(5):
            request(f"{base}/predict",
                    {"features": features, "model": "model"}, "POST")

        step("checking /healthz SLO block under healthy traffic")
        _, body, _ = request(f"{base}/healthz")
        health = json.loads(body)
        if health.get("status") != "ok":
            fail(f"health status {health.get('status')!r}, wanted 'ok'")
        slo = health.get("slo")
        if not slo or slo.get("ok") is not True or slo.get("breached"):
            fail(f"health slo block wrong: {slo!r}")
        if slo.get("rules") != len(SLO_RULES["slo"]):
            fail(f"health slo rules={slo.get('rules')}")

        step("checking /metricz content negotiation")
        _, body, headers = request(f"{base}/metricz")
        if "json" not in headers.get("Content-Type", ""):
            fail(f"default /metricz content type: {headers!r}")
        snapshot = json.loads(body)
        if snapshot["counters"].get("serve.requests", 0) < 6:
            fail("JSON snapshot missing request traffic")
        _, text, headers = request(f"{base}/metricz",
                                   headers={"Accept": "text/plain"})
        ctype = headers.get("Content-Type", "")
        if not ctype.startswith("text/plain"):
            fail(f"negotiated /metricz content type: {ctype!r}")
        samples = parse_prometheus(text)
        if samples.get("repro_serve_requests_total", 0) < 6:
            fail(f"exposition missing repro_serve_requests_total: "
                 f"{sorted(samples)[:10]}")
        if not any(name.startswith('repro_serve_predict_seconds{')
                   for name in samples):
            fail("exposition missing predict latency quantiles")

        step("checking trace propagation headers")
        inbound = "11112222333344445555666677778888"
        traceparent = f"00-{inbound}-00000000000000ff-01"
        _, _, headers = request(
            f"{base}/healthz", headers={"traceparent": traceparent})
        if headers.get("X-Trace-Id") != inbound:
            fail(f"X-Trace-Id {headers.get('X-Trace-Id')!r} does not "
                 f"honour inbound traceparent")
        if inbound not in headers.get("traceparent", ""):
            fail("response traceparent lost the inbound trace ID")
        _, _, headers = request(f"{base}/healthz")
        minted = headers.get("X-Trace-Id", "")
        if len(minted) != 32 or minted == inbound:
            fail(f"minted X-Trace-Id looks wrong: {minted!r}")

        step("sending SIGTERM")
        try:
            shutdown_daemon(server, stderr_path)
        except DaemonError as exc:
            fail(exc.message)
    finally:
        kill_quietly(server)

    step("checking the per-request span events in the stream")
    with open(stream_path, "r", encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    requests = [event["span"] for event in events
                if event["type"] == "span"
                and event["span"]["name"] == "serve.request"]
    if len(requests) < 8:
        fail(f"stream has only {len(requests)} serve.request spans")
    for span in requests:
        for key in ("trace_id", "duration"):
            if key not in span:
                fail(f"serve.request span missing {key!r}: {span}")
        for key in ("method", "endpoint", "status", "batch_size", "shed"):
            if key not in span["attrs"]:
                fail(f"serve.request span missing attr {key!r}: {span}")
    if not any(span["trace_id"] == "11112222333344445555666677778888"
               for span in requests):
        fail("stream never saw the propagated trace ID")

    step("slo-check against the exported healthy stream")
    check = run_cli("slo-check", "--slo", slo_path,
                    "--stream", stream_path)
    if check.returncode != 0:
        fail(f"healthy slo-check exited {check.returncode}:\n"
             f"{check.stdout}\n{check.stderr}")
    if "slo: ok" not in check.stdout:
        fail(f"healthy slo-check verdict missing:\n{check.stdout}")

    step("slo-check against a synthetically breached stream")
    breached_path = os.path.join(workdir, "breached.jsonl")
    with open(stream_path) as src, open(breached_path, "w") as dst:
        dst.write(src.read())
        # Far more shed requests than served ones: shed-rate must breach.
        for _ in range(50):
            dst.write(json.dumps(
                {"v": 1, "ts": time.time(), "type": "counter",
                 "name": "serve.aio.shed", "delta": 1.0}) + "\n")
    check = run_cli("slo-check", "--slo", slo_path,
                    "--stream", breached_path)
    if check.returncode == 0:
        fail(f"breached slo-check exited 0:\n{check.stdout}")
    if "shed-rate" not in check.stdout:
        fail(f"breached slo-check does not name the rule:\n{check.stdout}")

    step("rendering repro monitor --once from the stream")
    frame = run_cli("monitor", "--stream", stream_path,
                    "--slo", slo_path, "--once")
    if frame.returncode != 0:
        fail(f"monitor --once exited {frame.returncode}:\n{frame.stderr}")
    for needle in ("repro monitor", "requests", "latency", "slo: ok"):
        if needle not in frame.stdout:
            fail(f"monitor frame missing {needle!r}:\n{frame.stdout}")

    step("PASS — telemetry stack healthy end to end")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

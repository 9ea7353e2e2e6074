#!/usr/bin/env python3
"""End-to-end smoke test for the prediction daemon (the CI serve-smoke leg).

Boots a real `repro serve` subprocess against a freshly trained model,
then checks the serving contract from the outside:

1. `/healthz` answers within the boot budget and reports the same build
   identity as `repro --version`;
2. `POST /analyze` responses are byte-identical to offline
   `repro analyze --json` output (with and without a model);
3. a batched `POST /predict` returns, per instance, bytes identical to
   the `prediction` block the offline CLI computes;
4. `/metricz` shows the served traffic (request counters, predict
   latency histogram);
5. SIGTERM shuts the daemon down cleanly with exit code 0.

Any mismatch (or a non-zero server exit) fails the script. Run locally
from the repo root: `PYTHONPATH=src python scripts/serve_smoke.py`.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
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
TARGET_TREE = os.path.join("src", "repro", "serve")


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def step(message: str) -> None:
    print(f"serve-smoke: {message}", flush=True)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT, env=cli_env(), capture_output=True, text=True)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(url: str, doc=None, method: str = "GET"):
    data = json.dumps(doc).encode() if doc is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(req, timeout=15) as resp:
        return resp.status, resp.read().decode()


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="serve-smoke-")
    model = os.path.join(workdir, "model.pkl")

    step("training a small model")
    train = run_cli("train", "--apps", "8", "--folds", "3",
                    "--seed", "42", "--out", model)
    if train.returncode != 0:
        fail(f"train exited {train.returncode}:\n{train.stderr}")

    step("capturing offline analyze --json output")
    offline = run_cli("analyze", TARGET_TREE, "--json")
    if offline.returncode != 0:
        fail(f"offline analyze exited {offline.returncode}")
    offline_with_model = run_cli("analyze", TARGET_TREE, "--json",
                                 "--model", model)
    if offline_with_model.returncode != 0:
        fail(f"offline analyze --model exited "
             f"{offline_with_model.returncode}")

    version_probe = run_cli("--version")
    cli_version = version_probe.stdout.strip().split()[-1]
    if not cli_version:
        fail("repro --version printed nothing")

    port = free_port()
    base = f"http://127.0.0.1:{port}"
    stderr_path = os.path.join(workdir, "daemon.stderr")
    step(f"booting repro serve on port {port}")
    try:
        server, health = boot_daemon(
            [sys.executable, "-m", "repro", "serve", "--model", model,
             "--port", str(port)],
            base, stderr_path, cwd=REPO_ROOT)
    except DaemonError as exc:
        fail(exc.message)
    try:
        step("checking /healthz build identity")
        if health["status"] != "ok":
            fail(f"unexpected health status: {health['status']}")
        if health["version"] != cli_version:
            fail(f"/healthz version {health['version']!r} != "
                 f"`repro --version` {cli_version!r}")

        step("diffing POST /analyze against offline analyze --json")
        _, served = request(f"{base}/analyze",
                            {"path": TARGET_TREE}, "POST")
        if served != offline.stdout:
            fail("served /analyze differs from offline analyze --json")
        _, served = request(f"{base}/analyze",
                            {"path": TARGET_TREE, "model": "model"},
                            "POST")
        if served != offline_with_model.stdout:
            fail("served /analyze (model) differs from offline "
                 "analyze --json --model")

        step("diffing batched POST /predict against offline prediction")
        doc = json.loads(offline_with_model.stdout)
        features, prediction = doc["features"], doc["prediction"]
        expected = json.dumps(prediction, indent=2, sort_keys=True) + "\n"
        _, served = request(f"{base}/predict",
                            {"features": features}, "POST")
        if served != expected:
            fail("served single /predict differs from offline prediction")
        _, served = request(
            f"{base}/predict",
            {"instances": [features, features, features]}, "POST")
        batch = json.loads(served)
        for index, row in enumerate(batch["predictions"]):
            if row != prediction:
                fail(f"batched prediction {index} differs from offline")

        step("checking /metricz saw the traffic")
        _, body = request(f"{base}/metricz")
        snapshot = json.loads(body)
        if snapshot["counters"].get("serve.requests", 0) < 4:
            fail(f"serve.requests={snapshot['counters']} too low")
        if snapshot["histograms"]["serve.predict.seconds"]["count"] < 2:
            fail("predict latency histogram missing observations")

        step("sending SIGTERM and checking clean exit")
        try:
            shutdown_daemon(server, stderr_path)
        except DaemonError as exc:
            fail(exc.message)
    finally:
        kill_quietly(server)
    step("PASS — served responses byte-identical, clean shutdown")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Blue/green model hot reload on the live daemon.

The contract under test: a reload builds and validates the new store
*before* the atomic swap, so (a) concurrent requests across the swap
see zero errors and every response is byte-identical to either the
pre-swap or the post-swap snapshot — never a mix; (b) a corrupt
replacement is rejected with 400 and the old store keeps serving; and
(c) SIGHUP on a live ``repro serve`` subprocess re-scans the specs
from disk and bumps the store version without dropping the daemon.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.serve.payloads import dump_payload

from tests.serve.conftest import http as fire

SOURCE = (
    "#include <string.h>\n"
    "int handle(char *req) {\n"
    "    char buf[32];\n"
    "    strcpy(buf, req);\n"
    "    return 0;\n"
    "}\n"
)


@pytest.fixture
def tree(tmp_path):
    d = tmp_path / "app"
    d.mkdir()
    (d / "app.c").write_text(SOURCE)
    return str(d)


def server_features(server, tree):
    """A feature row computed by the live server itself."""
    status, _, body = fire(server, "POST", "/analyze", {"path": tree})
    assert status == 200
    return json.loads(body)["features"]


class TestModelsEndpoint:
    def test_get_lists_the_live_snapshot(self, tier_server):
        status, _, body = fire(tier_server, "GET", "/models")
        assert status == 200
        doc = json.loads(body)
        assert doc["version"] == 1
        assert doc["default"] == "default"
        assert doc["models"][0]["name"] == "default"

    def test_rescan_bumps_version_keeps_models(self, tier_server):
        status, _, body = fire(tier_server, "POST", "/models", {})
        assert status == 200
        doc = json.loads(body)
        assert doc["version"] == 2
        assert doc["previous_version"] == 1
        assert doc["default"] == "default"
        status, _, body = fire(tier_server, "GET", "/models")
        assert json.loads(body)["version"] == 2

    def test_bad_specs_payloads_are_rejected(self, tier_server):
        for bad in ({"models": []}, {"models": "x=y"},
                    {"models": [7]}, {"rescan": False}):
            status, _, _ = fire(tier_server, "POST", "/models", bad)
            assert status == 400

    def test_corrupt_replacement_leaves_old_store_serving(
            self, tier_server, tmp_path, tree):
        bad = tmp_path / "corrupt.pkl"
        bad.write_bytes(b"this is not a pickled model")
        status, _, body = fire(
            tier_server, "POST", "/models",
            {"models": [f"default={bad}"]})
        assert status == 400
        assert "not a readable model file" in json.loads(body)["error"]
        # old snapshot untouched: version 1, predictions still answer
        status, _, body = fire(tier_server, "GET", "/models")
        assert json.loads(body)["version"] == 1
        features = server_features(tier_server, tree)
        status, _, _ = fire(tier_server, "POST", "/predict",
                            {"features": features})
        assert status == 200

    def test_missing_file_replacement_rejected(self, tier_server):
        status, _, body = fire(
            tier_server, "POST", "/models",
            {"models": ["default=/nonexistent/model.pkl"]})
        assert status == 400
        assert "cannot read model file" in json.loads(body)["error"]


class TestSwapUnderLoad:
    def test_concurrent_requests_across_swap_zero_errors(
            self, tier_server, model_file, tree):
        """Clients hammering /predict across a blue/green swap must see
        only complete responses: every body byte-identical to the
        pre-swap snapshot's output or the post-swap one's, all 200."""
        features = server_features(tier_server, tree)
        doc = {"instances": [features]}
        status, _, pre = fire(tier_server, "POST", "/predict", doc)
        assert status == 200
        assert json.loads(pre)["model"] == "default"
        # Same underlying model file, renamed: predictions identical,
        # but the batched response's "model" field flips — a
        # byte-observable swap with zero numeric drift.
        expected_post = dump_payload({
            "model": "blue",
            "predictions": json.loads(pre)["predictions"],
        })
        results, lock, stop = [], threading.Lock(), threading.Event()

        def hammer():
            while not stop.is_set():
                result = fire(tier_server, "POST", "/predict", doc)
                with lock:
                    results.append(result)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        status, _, body = fire(
            tier_server, "POST", "/models",
            {"models": [f"blue={model_file}"]})
        assert status == 200
        assert json.loads(body)["version"] == 2
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=15)
        assert results, "hammer threads never completed a request"
        for status, _, body in results:
            assert status == 200
            assert body in (pre, expected_post)
        # the swap must actually have become visible
        status, _, body = fire(tier_server, "POST", "/predict", doc)
        assert status == 200
        assert body == expected_post


class TestSighupRescan:
    @pytest.mark.skipif(not hasattr(signal, "SIGHUP"),
                        reason="SIGHUP is POSIX-only")
    def test_sighup_rescans_specs_on_live_daemon(self, model_file,
                                                 tmp_path):
        """SIGHUP on a real `repro serve` subprocess re-reads the model
        specs from disk and bumps the store version, while the daemon
        keeps answering."""
        stderr_path = tmp_path / "daemon.stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--model", f"default={model_file}", "--port", "0",
                 "--pool-size", "1", "--no-cache"],
                stdout=subprocess.DEVNULL, stderr=stderr, env=env)
        try:
            url = self._wait_for_url(daemon, stderr_path)
            assert self._models_doc(url)["version"] == 1
            # touch the model file (same bytes) and ask for a re-scan
            os.utime(model_file)
            daemon.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if self._models_doc(url)["version"] == 2:
                    break
                time.sleep(0.2)
            else:
                pytest.fail(
                    "store version never bumped after SIGHUP; stderr:\n"
                    + stderr_path.read_text())
            assert daemon.poll() is None, "daemon died on SIGHUP"
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)

    @staticmethod
    def _wait_for_url(daemon, stderr_path, deadline_s=60.0):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            if daemon.poll() is not None:
                pytest.fail(f"daemon exited {daemon.returncode}:\n"
                            + stderr_path.read_text())
            text = stderr_path.read_text()
            if "listening on " in text:
                url = text.split("listening on ", 1)[1].split()[0]
                try:
                    with urllib.request.urlopen(url + "/healthz",
                                                timeout=5) as resp:
                        if resp.status == 200:
                            return url
                except OSError:
                    pass
            time.sleep(0.2)
        pytest.fail("daemon never came up; stderr:\n"
                    + stderr_path.read_text())

    @staticmethod
    def _models_doc(url):
        with urllib.request.urlopen(url + "/models", timeout=10) as resp:
            return json.loads(resp.read().decode("utf-8"))

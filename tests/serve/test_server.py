"""Live-socket tests: the daemon end to end over real HTTP.

The daemon here is built the way ``repro serve --pool-size 1`` builds
it, from a default engine config; ``test_aio.py`` covers the transport
with the cache switched off.

The load-bearing assertions here are the byte-identity ones — a served
``/analyze`` body must equal the offline ``repro analyze --json``
stdout byte for byte, and a served ``/predict`` must equal the
``prediction`` block the offline CLI computes. The CI serve-smoke leg
re-checks the same contract against a subprocess daemon.
"""

import json
import threading
import time

import pytest

from repro import obs, package_version
from repro.cli import main
from repro.serve import AsyncPredictionServer, handlers
from repro.serve.payloads import dump_payload

from tests.serve.conftest import http

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


def offline_json(capsys, *argv):
    """Captured stdout of an in-process `repro analyze --json` run."""
    assert main(["analyze", *argv, "--json"]) == 0
    return capsys.readouterr().out


class TestHealth:
    def test_healthz_reports_identity(self, server, client):
        status, _, body = client(server, "GET", "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["version"] == package_version()
        assert doc["models"][0]["name"] == "default"
        assert doc["engine"]["workers"] >= 1
        assert "batching" not in doc

    def test_port_zero_binds_a_real_port(self, server):
        assert server.port > 0
        assert str(server.port) in server.url


class TestByteIdentity:
    def test_analyze_matches_offline_cli(self, server, client, tree,
                                         capsys):
        offline = offline_json(capsys, tree)
        status, _, body = client(server, "POST", "/analyze", {"path": tree})
        assert status == 200
        assert body == offline

    def test_analyze_with_model_matches_offline_cli(
            self, server, client, tree, model_file, capsys):
        offline = offline_json(capsys, tree, "--model", model_file)
        status, _, body = client(server, "POST", "/analyze",
                                 {"path": tree, "model": "default"})
        assert status == 200
        assert body == offline

    def test_predict_matches_offline_prediction(
            self, server, client, tree, model_file, capsys):
        offline = json.loads(offline_json(capsys, tree, "--model",
                                          model_file))
        status, _, body = client(
            server, "POST", "/predict",
            {"features": offline["features"]})
        assert status == 200
        assert body == dump_payload(offline["prediction"])

    def test_batch_predict_rows_identical_to_single(
            self, server, client, tree, capsys):
        features = json.loads(offline_json(capsys, tree))["features"]
        _, _, single = client(server, "POST", "/predict",
                              {"features": features})
        status, _, body = client(
            server, "POST", "/predict",
            {"instances": [features, features, features]})
        assert status == 200
        predictions = json.loads(body)["predictions"]
        assert len(predictions) == 3
        assert all(p == json.loads(single) for p in predictions)

    def test_batch_analyze_rows_identical_to_single(
            self, server, client, tree, capsys):
        offline = offline_json(capsys, tree)
        status, _, body = client(server, "POST", "/analyze",
                                 {"paths": [tree, tree]})
        assert status == 200
        results = json.loads(body)["results"]
        assert [dump_payload(r) for r in results] == [offline, offline]


class TestConcurrency:
    def test_parallel_predicts_all_answer(self, server, client, tree,
                                          capsys):
        features = json.loads(offline_json(capsys, tree))["features"]
        statuses = []
        lock = threading.Lock()

        def fire():
            status, _, _ = client(server, "POST", "/predict",
                                  {"features": features})
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=fire) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert statuses == [200] * 12

    def test_metricz_sees_served_traffic(self, server, client, tree,
                                         capsys):
        features = json.loads(offline_json(capsys, tree))["features"]
        client(server, "POST", "/predict", {"features": features})
        client(server, "GET", "/healthz")
        status, _, body = client(server, "GET", "/metricz")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["counters"]["serve.requests"] >= 3
        assert snapshot["histograms"]["serve.predict.seconds"]["count"] >= 1
        assert "serve.batch_size" not in snapshot["histograms"]


class TestWedgedModel:
    """Predictions are scored on the handler thread: a wedged model
    call holds its own request only, never the daemon."""

    @pytest.fixture
    def wedged(self, server, monkeypatch):
        """``server`` whose first ``wedge_count`` scorings block until
        ``release`` is set; later scorings run normally."""
        release = threading.Event()
        entered = threading.Semaphore(0)
        state = {"left": 0}
        lock = threading.Lock()
        fast_path = handlers.prediction_payload

        def blocked(model, row):
            with lock:
                wedge = state["left"] > 0
                state["left"] -= wedge
            if wedge:
                entered.release()
                release.wait(timeout=10)
            return fast_path(model, row)

        def wedge(count):
            state["left"] = count

        monkeypatch.setattr(handlers, "prediction_payload", blocked)
        yield server, wedge, entered, release
        release.set()

    def test_wedged_prediction_blocks_only_its_own_request(
            self, wedged, tree, capsys):
        server, wedge, entered, release = wedged
        features = json.loads(offline_json(capsys, tree))["features"]
        wedge(1)
        results = {}
        holder = threading.Thread(target=lambda: results.update(
            first=http(server, "POST", "/predict", {"features": features})))
        holder.start()
        assert entered.acquire(timeout=5)
        started = time.perf_counter()
        status, _, _ = http(server, "POST", "/predict",
                            {"features": features})
        assert status == 200
        status, _, _ = http(server, "GET", "/healthz")
        assert status == 200
        # both answered while the first request is still wedged
        assert time.perf_counter() - started < 5
        assert "first" not in results
        release.set()
        holder.join(timeout=10)
        assert results["first"][0] == 200

    def test_server_survives_a_wedged_burst(self, wedged, tree, capsys):
        """After a burst of wedged predictions the daemon answers
        normally again and counts no errors."""
        server, wedge, entered, release = wedged
        features = json.loads(offline_json(capsys, tree))["features"]
        wedge(6)
        statuses = []
        threads = [
            threading.Thread(target=lambda: statuses.append(http(
                server, "POST", "/predict", {"features": features})[0]))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for _ in threads:
            assert entered.acquire(timeout=5)
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert statuses == [200] * 6
        status, _, body = http(server, "GET", "/metricz")
        assert status == 200
        counters = json.loads(body)["counters"]
        assert counters["serve.requests"] >= 7
        assert "serve.errors" not in counters


class TestLifecycle:
    def test_stop_releases_the_port(self, store):
        server = AsyncPredictionServer(store, port=0, pool_size=1)
        server.start()
        port = server.port
        server.stop()
        # the port must be immediately rebindable
        rebound = AsyncPredictionServer(store, port=port, pool_size=1)
        rebound.start()
        rebound.stop()
        obs.disable()

    def test_reuses_existing_obs_session(self, store):
        session = obs.configure()
        server = AsyncPredictionServer(store, port=0, pool_size=1)
        try:
            assert obs.active() is session
        finally:
            server.stop()
            obs.disable()

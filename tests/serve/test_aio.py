"""The daemon over real sockets: identity, keep-alive, shedding.

The load-bearing assertions are the byte-identity ones — a served
``/analyze`` body must equal the offline ``repro analyze --json``
stdout byte for byte, and a served ``/predict`` must equal the
``prediction`` block the offline CLI computes. The CI serve-smoke leg
re-checks the same contract against a subprocess daemon. The rest
covers the transport: persistent connections, strict HTTP/1.1
framing, loop-level load shedding and a clean lifecycle.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro import obs, package_version
from repro.cli import main
from repro.engine import EngineConfig
from repro.serve import AsyncPredictionServer, handlers
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


def offline_json(capsys, *argv):
    assert main(["analyze", *argv, "--json"]) == 0
    return capsys.readouterr().out


@pytest.fixture
def aserver(store):
    srv = AsyncPredictionServer(
        store, config=EngineConfig(no_cache=True), port=0, pool_size=1)
    srv.start()
    yield srv
    srv.stop()
    obs.disable()


class TestIdentity:
    def test_healthz_reports_pool_and_inflight(self, aserver):
        status, _, body = fire(aserver, "GET", "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["version"] == package_version()
        assert doc["models"][0]["name"] == "default"
        assert doc["pool"]["size"] == 1
        assert doc["inflight"] == {
            "current": 1, "max": 16, "handler_threads": 8}
        assert doc["engine"]["workers"] == 1
        assert "batching" not in doc

    def test_analyze_matches_offline_cli(self, aserver, tree, capsys):
        offline = offline_json(capsys, tree)
        status, _, body = fire(aserver, "POST", "/analyze",
                               {"path": tree})
        assert status == 200
        assert body == offline

    def test_predict_matches_offline_prediction(self, aserver, tree,
                                                model_file, capsys):
        offline = json.loads(
            offline_json(capsys, tree, "--model", model_file))
        status, _, body = fire(aserver, "POST", "/predict",
                               {"features": offline["features"]})
        assert status == 200
        assert body == dump_payload(offline["prediction"])

    def test_unknown_endpoint_and_method(self, aserver):
        status, _, _ = fire(aserver, "GET", "/nope")
        assert status == 404
        status, headers, _ = fire(aserver, "POST", "/healthz", {})
        assert status == 405
        assert headers["Allow"] == "GET"


class TestKeepAlive:
    def test_two_requests_reuse_one_connection(self, aserver):
        conn = http.client.HTTPConnection(
            aserver.host, aserver.port, timeout=15)
        try:
            conn.request("GET", "/healthz")
            first = conn.getresponse()
            body_one = first.read()
            assert first.status == 200
            assert first.headers["Connection"] == "keep-alive"
            sock_before = conn.sock
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read()) == json.loads(body_one)
            # http.client only reuses the socket when the server kept
            # the connection open; same object means true keep-alive.
            assert conn.sock is sock_before
        finally:
            conn.close()

    def test_connection_close_honoured(self, aserver):
        conn = http.client.HTTPConnection(
            aserver.host, aserver.port, timeout=15)
        try:
            conn.request("GET", "/healthz",
                         headers={"Connection": "close"})
            response = conn.getresponse()
            response.read()
            assert response.headers["Connection"] == "close"
        finally:
            conn.close()

    def test_malformed_request_line_gets_400(self, aserver):
        with socket.create_connection(
                (aserver.host, aserver.port), timeout=10) as raw:
            raw.sendall(b"NONSENSE\r\n\r\n")
            reply = raw.recv(65536)
        assert reply.startswith(b"HTTP/1.1 400 ")

    @pytest.mark.parametrize("fields, status", [
        (b"Content-Length: 3_0", 400),
        (b"Content-Length: +30", 400),
        (b"Content-Length: 0\r\nContent-Length: 30", 400),
        (b"Content-Length : 30", 400),
        (b"Transfer-Encoding: gzip\r\nContent-Length: 30", 501),
        (b"Content-Length: " + b"9" * 5000, 413),
    ], ids=["underscore", "sign", "conflicting", "space-before-colon",
            "transfer-coding", "past-int-digit-limit"])
    def test_ambiguous_body_framing_is_refused(self, aserver, fields,
                                               status):
        """RFC 9112 §6.3: framing that two parsers could read two ways
        is answered with an error and the connection is closed."""
        request = (b"GET /healthz HTTP/1.1\r\nHost: test\r\n" + fields
                   + b"\r\n\r\n" + b"x" * 30)
        with socket.create_connection(
                (aserver.host, aserver.port), timeout=10) as raw:
            raw.sendall(request)
            reply = b""
            while chunk := raw.recv(65536):  # EOF: the server closed
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"Connection: close" in reply

    def test_framing_refusal_is_counted_and_streamed(self, store,
                                                     tmp_path):
        stream = str(tmp_path / "telemetry.jsonl")
        session = obs.configure(stream_path=stream, keep_spans=False)
        srv = AsyncPredictionServer(
            store, config=EngineConfig(no_cache=True), port=0,
            pool_size=1)
        srv.start()
        try:
            with socket.create_connection(
                    (srv.host, srv.port), timeout=10) as raw:
                raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                            b"Content-Length: 0\r\nContent-Length: 30"
                            b"\r\n\r\n")
                reply = b""
                while chunk := raw.recv(65536):
                    reply += chunk
        finally:
            srv.stop()
            obs.disable()
        assert reply.startswith(b"HTTP/1.1 400 ")
        counters = session.metrics.snapshot()["counters"]
        assert counters["serve.aio.bad_request"] == 1
        assert counters["serve.errors.400"] == 1
        (refusal,) = [event for event in obs.read_events(stream)
                      if event["type"] == "event"
                      and event["name"] == "serve.aio.bad_request"]
        assert refusal["fields"] == {
            "status": 400, "reason": "conflicting Content-Length headers"}


class TestConcurrency:
    def test_parallel_predicts_all_answer(self, aserver, tree, capsys):
        features = json.loads(offline_json(capsys, tree))["features"]
        statuses, lock = [], threading.Lock()

        def one():
            status, _, _ = fire(aserver, "POST", "/predict",
                                {"features": features})
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=one) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert statuses == [200] * 12

    def test_loop_sheds_beyond_max_inflight(self, store, tree, capsys,
                                            monkeypatch, tmp_path):
        """With max_inflight=1 and a wedged model hop, the second
        request is refused at the loop with 503 + Retry-After — the
        daemon answers under overload instead of queueing silently,
        and the shed reaches the telemetry stream as an event."""
        stream = str(tmp_path / "telemetry.jsonl")
        obs.configure(stream_path=stream, keep_spans=False)
        srv = AsyncPredictionServer(
            store, config=EngineConfig(no_cache=True), port=0,
            pool_size=1, max_inflight=1)
        release = threading.Event()
        fast_path = handlers.prediction_payload

        def blocked(model, row):
            release.wait(timeout=15)
            return fast_path(model, row)

        monkeypatch.setattr(handlers, "prediction_payload", blocked)
        srv.start()
        try:
            features = json.loads(offline_json(capsys, tree))["features"]
            results = {}

            def first():
                results["first"] = fire(srv, "POST", "/predict",
                                        {"features": features})

            holder = threading.Thread(target=first)
            holder.start()
            time.sleep(0.5)  # let the first request occupy the slot
            status, headers, body = fire(srv, "POST", "/predict",
                                         {"features": features})
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert "capacity" in json.loads(body)["error"]
            release.set()
            holder.join(timeout=15)
            assert results["first"][0] == 200
            # and the daemon is healthy again afterwards
            status, _, _ = fire(srv, "GET", "/healthz")
            assert status == 200
            events = obs.read_events(stream)
            (shed,) = [event for event in events
                       if event["type"] == "event"
                       and event["name"] == "serve.aio.shed"]
            assert shed["fields"] == {"method": "POST", "path": "/predict"}
            # the shed request never reached a handler: no request span
            requests = [event for event in events
                        if event["type"] == "span"
                        and event["span"]["name"] == "serve.request"]
            assert len(requests) == 2
        finally:
            release.set()
            srv.stop()
            obs.disable()


class TestLifecycle:
    def test_stop_releases_the_port(self, store):
        srv = AsyncPredictionServer(
            store, config=EngineConfig(no_cache=True), port=0,
            pool_size=1)
        srv.start()
        port = srv.port
        srv.stop()
        rebound = AsyncPredictionServer(
            store, config=EngineConfig(no_cache=True), port=port,
            pool_size=1)
        rebound.start()
        rebound.stop()
        obs.disable()

    def test_port_zero_is_discoverable_before_start(self, store):
        srv = AsyncPredictionServer(
            store, config=EngineConfig(no_cache=True), port=0,
            pool_size=1)
        try:
            assert srv.port > 0
            assert str(srv.port) in srv.url
        finally:
            srv.stop()
            obs.disable()

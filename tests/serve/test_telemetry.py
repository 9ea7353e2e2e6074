"""Serving telemetry: /metricz negotiation, trace identity, access
records.

Transport-free where possible (handle_request with an explicit header
map); the acceptance test drives a real extraction through /analyze and
walks the streamed span tree.
"""

import json

import pytest

from repro import obs
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.serve import AsyncPredictionServer
from repro.serve.enginepool import PoolSaturated
from repro.serve.handlers import handle_request

FEATURES = {"loc.total": 120.0, "complexity.per_kloc": 4.5}

SOURCE = (
    "#include <string.h>\n"
    "int handle(char *req) {\n"
    "    char buf[32];\n"
    "    strcpy(buf, req);\n"
    "    return 0;\n"
    "}\n"
)


@pytest.fixture
def app(store):
    server = AsyncPredictionServer(store, port=0, pool_size=1)
    yield server
    server.stop()
    obs.disable()


def call(app, method, path, doc=None, headers=None):
    body = json.dumps(doc).encode() if doc is not None else b""
    return handle_request(app, method, path, body, headers=headers)


class TestMetriczNegotiation:
    def test_json_by_default(self, app):
        response = call(app, "GET", "/metricz")
        assert response.status == 200
        assert response.content_type == "application/json"
        snapshot = json.loads(response.body.decode())
        assert set(snapshot) == {
            "counters", "gauges", "histograms", "schema_version"}
        assert snapshot["counters"]["serve.requests"] >= 1

    def test_prometheus_when_text_plain_accepted(self, app):
        call(app, "GET", "/healthz")
        response = call(app, "GET", "/metricz",
                        headers={"Accept": "text/plain"})
        assert response.status == 200
        assert response.content_type == PROMETHEUS_CONTENT_TYPE
        text = response.body.decode()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total" in text

    def test_prometheus_when_openmetrics_accepted(self, app):
        response = call(
            app, "GET", "/metricz",
            headers={"Accept": "application/openmetrics-text;version=1.0"})
        assert response.content_type == PROMETHEUS_CONTENT_TYPE

    def test_json_for_other_accept_values(self, app):
        response = call(app, "GET", "/metricz",
                        headers={"Accept": "application/json"})
        assert response.content_type == "application/json"
        json.loads(response.body.decode())


class TestTraceIdentity:
    def test_response_carries_trace_headers(self, app):
        response = call(app, "GET", "/healthz")
        headers = dict(response.headers)
        trace_id = headers["X-Trace-Id"]
        assert len(trace_id) == 32
        int(trace_id, 16)
        assert obs.parse_traceparent(headers["traceparent"]) == trace_id

    def test_inbound_traceparent_is_honoured(self, app):
        trace = "11112222333344445555666677778888"
        response = call(
            app, "GET", "/healthz",
            headers={"traceparent": f"00-{trace}-00000000000000ff-01"})
        headers = dict(response.headers)
        assert headers["X-Trace-Id"] == trace
        assert obs.parse_traceparent(headers["traceparent"]) == trace

    def test_header_lookup_is_case_insensitive(self, app):
        trace = "11112222333344445555666677778888"
        response = call(
            app, "GET", "/healthz",
            headers={"Traceparent": f"00-{trace}-00000000000000ff-01"})
        assert dict(response.headers)["X-Trace-Id"] == trace

    def test_malformed_traceparent_mints_fresh_id(self, app):
        response = call(app, "GET", "/healthz",
                        headers={"traceparent": "garbage"})
        trace_id = dict(response.headers)["X-Trace-Id"]
        assert len(trace_id) == 32
        assert trace_id != "0" * 32

    def test_distinct_requests_get_distinct_traces(self, app):
        ids = {dict(call(app, "GET", "/healthz").headers)["X-Trace-Id"]
               for _ in range(5)}
        assert len(ids) == 5

    def test_error_responses_still_carry_trace_headers(self, app):
        response = call(app, "GET", "/nope")
        assert response.status == 404
        assert "X-Trace-Id" in dict(response.headers)


class TestAccessLog:
    """Under ``--stream``, each handled request's ``serve.request`` span
    event is its access record."""

    @pytest.fixture
    def streamed(self, store, tmp_path):
        """A server behind a stream session, as ``repro --stream PATH
        serve`` builds it: the CLI's session first, reused by the
        server."""
        path = str(tmp_path / "telemetry.jsonl")
        obs.configure(stream_path=path, keep_spans=False)
        server = AsyncPredictionServer(store, port=0, pool_size=1)
        yield server, path
        server.stop()
        obs.disable()

    def read_records(self, path):
        return [event for event in obs.read_events(path)
                if event["type"] == "span"
                and event["span"]["name"] == "serve.request"]

    def test_one_json_line_per_request(self, streamed):
        app, path = streamed
        call(app, "GET", "/healthz")
        response = call(app, "POST", "/predict", {"features": FEATURES})
        assert response.status == 200
        call(app, "GET", "/nope")
        events = self.read_records(path)
        attrs = [event["span"]["attrs"] for event in events]
        assert [(a["method"], a["endpoint"], a["status"])
                for a in attrs] == [
            ("GET", "/healthz", 200),
            ("POST", "/predict", 200),
            ("GET", "/nope", 404),
        ]
        for event, attr in zip(events, attrs):
            assert set(attr) == {"method", "endpoint", "status",
                                 "batch_size", "shed"}
            assert len(event["span"]["trace_id"]) == 32
            assert event["span"]["duration"] >= 0
            assert event["ts"] > 0

    def test_logs_the_request_trace_id_and_batch_size(self, streamed):
        app, path = streamed
        trace = "11112222333344445555666677778888"
        call(app, "POST", "/predict",
             {"instances": [FEATURES, FEATURES, FEATURES]},
             headers={"traceparent": f"00-{trace}-00000000000000ff-01"})
        (event,) = self.read_records(path)
        assert event["span"]["trace_id"] == trace
        assert event["span"]["attrs"]["batch_size"] == 3
        assert event["span"]["attrs"]["shed"] is False

    def test_pool_shed_is_marked_on_the_record(self, streamed, tmp_path,
                                               monkeypatch):
        app, path = streamed

        def saturated(*args, **kwargs):
            raise PoolSaturated(retry_after=2)

        monkeypatch.setattr(app.pool, "extract_one", saturated)
        tree = tmp_path / "app"
        tree.mkdir()
        (tree / "app.c").write_text(SOURCE)
        response = call(app, "POST", "/analyze", {"path": str(tree)})
        assert response.status == 503
        (event,) = self.read_records(path)
        attrs = event["span"]["attrs"]
        assert (attrs["status"], attrs["shed"], attrs["batch_size"]) == \
            (503, True, None)

    def test_no_access_log_configured_writes_nothing(self, app, tmp_path):
        call(app, "GET", "/healthz")
        assert obs.active().stream is None
        assert list(tmp_path.iterdir()) == []


class TestAnalyzeSpanTree:
    """Acceptance: one /analyze request streams one connected trace."""

    def test_spans_form_one_tree_under_the_request_trace(
            self, store, tmp_path, monkeypatch):
        # An ambient cache (CI engine leg) would answer from a prior
        # test's row for the same source, and no analyzer would run.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        stream = str(tmp_path / "telemetry.jsonl")
        obs.configure(stream_path=stream, keep_spans=False)
        server = AsyncPredictionServer(store, port=0, pool_size=1)
        try:
            tree = tmp_path / "app"
            tree.mkdir()
            (tree / "app.c").write_text(SOURCE)
            trace = "ab" * 16
            response = handle_request(
                server, "POST", "/analyze",
                json.dumps({"path": str(tree)}).encode(),
                headers={"traceparent": f"00-{trace}-00000000000000ff-01"})
            assert response.status == 200
        finally:
            server.stop()
            obs.disable()

        records = [event["span"] for event in obs.read_events(stream)
                   if event["type"] == "span"]
        assert records
        # every span carries the caller's trace ID — one trace, no strays
        assert {record["trace_id"] for record in records} == {trace}
        by_id = {record["span_id"]: record for record in records}
        roots = [r for r in records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["serve.request"]
        # every span walks parent links up to the single request root
        for record in records:
            hops, current = 0, record
            while current["parent"] is not None:
                assert current["parent"] in by_id, \
                    f"{current['name']} has a dangling parent link"
                current = by_id[current["parent"]]
                hops += 1
                assert hops < len(records)
            assert current["name"] == "serve.request"
        # the tree reaches through the engine into the analyzers
        names = {record["name"] for record in records}
        assert "engine.extract" in names
        assert any(name.startswith("analysis.") for name in names)

"""Transport-free routing/validation tests via handle_request."""

import json

import pytest

from repro import obs
from repro.serve import AsyncPredictionServer
from repro.serve import handlers
from repro.serve.handlers import HTTPError, Response, handle_request


@pytest.fixture
def app(store):
    server = AsyncPredictionServer(store, port=0, pool_size=1)
    yield server
    server.stop()
    obs.disable()


def call(app, method, path, doc=None):
    body = json.dumps(doc).encode() if doc is not None else b""
    response = handle_request(app, method, path, body)
    return response, json.loads(response.body.decode())


FEATURES = {"loc.total": 120.0, "complexity.per_kloc": 4.5}


class TestRouting:
    def test_unknown_path_404(self, app):
        response, doc = call(app, "GET", "/nope")
        assert response.status == 404
        assert "no such endpoint" in doc["error"]

    def test_wrong_method_405_with_allow(self, app):
        response, doc = call(app, "POST", "/healthz", {})
        assert response.status == 405
        assert ("Allow", "GET") in response.headers

    def test_trailing_slash_and_query_normalised(self, app):
        response, _ = call(app, "GET", "/healthz/")
        assert response.status == 200
        response, _ = call(app, "GET", "/healthz?verbose=1")
        assert response.status == 200

    def test_invalid_json_400(self, app):
        response = handle_request(app, "POST", "/predict", b"{not json")
        assert response.status == 400

    def test_non_object_body_400(self, app):
        response = handle_request(app, "POST", "/predict", b"[1, 2]")
        assert response.status == 400


class TestPredictValidation:
    def test_missing_keys_400(self, app):
        response, doc = call(app, "POST", "/predict", {})
        assert response.status == 400
        assert "'features' or 'instances'" in doc["error"]

    def test_non_numeric_feature_400(self, app):
        response, _ = call(app, "POST", "/predict",
                           {"features": {"loc.total": "many"}})
        assert response.status == 400

    def test_boolean_feature_rejected(self, app):
        response, _ = call(app, "POST", "/predict",
                           {"features": {"loc.total": True}})
        assert response.status == 400

    def test_empty_instances_400(self, app):
        response, _ = call(app, "POST", "/predict", {"instances": []})
        assert response.status == 400

    def test_unknown_model_404(self, app):
        response, doc = call(app, "POST", "/predict",
                             {"features": FEATURES, "model": "canary"})
        assert response.status == 404
        assert "unknown model" in doc["error"]

    def test_single_predict_shape(self, app):
        response, doc = call(app, "POST", "/predict", {"features": FEATURES})
        assert response.status == 200
        assert set(doc) == {"schema_version", "probabilities", "estimates",
                            "overall_risk"}
        assert doc["schema_version"] == 1

    def test_batch_predict_shape(self, app):
        response, doc = call(
            app, "POST", "/predict",
            {"instances": [FEATURES, FEATURES, FEATURES]})
        assert response.status == 200
        assert doc["model"] == "default"
        assert len(doc["predictions"]) == 3
        assert doc["predictions"][0] == doc["predictions"][2]


class TestAnalyzeValidation:
    def test_missing_path_400(self, app):
        response, doc = call(app, "POST", "/analyze", {})
        assert response.status == 400
        assert "'path' or 'paths'" in doc["error"]

    def test_empty_tree_400(self, app, tmp_path):
        response, doc = call(app, "POST", "/analyze",
                             {"path": str(tmp_path)})
        assert response.status == 400
        assert "no recognised source files" in doc["error"]

    def test_bad_dynamic_400(self, app):
        response, _ = call(app, "POST", "/analyze",
                           {"path": "x", "dynamic": "yes"})
        assert response.status == 400


class TestHeaderAliasing:
    def test_response_copies_caller_header_list(self):
        shared = [("Allow", "GET")]
        response = Response(status=405, body=b"{}", headers=shared)
        response.headers.append(("X-Trace-Id", "abc"))
        assert shared == [("Allow", "GET")]

    def test_reused_http_error_does_not_accumulate_headers(
            self, app, monkeypatch):
        """A long-lived HTTPError's header list must stay pristine.

        Regression: Response aliased the error's list, so the router's
        per-request trace headers accumulated on the exception and
        every retry answered with one more copy.
        """
        error = HTTPError(429, "slow down",
                          headers=[("Retry-After", "7")])

        def always_throttled(app_, doc, ctx):
            raise error

        monkeypatch.setitem(handlers._HANDLERS, "/healthz",
                            always_throttled)
        for _ in range(3):
            response, doc = call(app, "GET", "/healthz")
            assert response.status == 429
            retry = [v for k, v in response.headers if k == "Retry-After"]
            assert retry == ["7"]
            trace = [v for k, v in response.headers if k == "X-Trace-Id"]
            assert len(trace) == 1
        assert error.headers == [("Retry-After", "7")]


class TestTelemetry:
    def test_requests_and_errors_counted(self, app):
        obs.configure()
        call(app, "GET", "/healthz")
        call(app, "GET", "/nope")
        session = obs.active()
        counters = session.metrics.snapshot()["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.errors"] == 1
        assert counters["serve.errors.404"] == 1

    def test_endpoint_latency_histograms(self, app):
        obs.configure()
        call(app, "GET", "/healthz")
        call(app, "POST", "/predict", {"features": FEATURES})
        call(app, "GET", "/bogus")
        histograms = obs.active().metrics.snapshot()["histograms"]
        assert histograms["serve.healthz.seconds"]["count"] == 1
        assert histograms["serve.predict.seconds"]["count"] == 1
        # unknown paths share one histogram: no unbounded metric names
        assert histograms["serve.unknown.seconds"]["count"] == 1

    def test_profile_report_gains_serving_section(self, app):
        obs.configure()
        call(app, "GET", "/healthz")
        call(app, "POST", "/predict", {"features": FEATURES})
        report = obs.format_run_report(obs.active())
        assert "serving:" in report
        assert "/predict" in report
        assert "requests=2" in report


class TestExtractionFailure:
    @pytest.mark.parametrize("path", ["/analyze", "/gate"])
    def test_injected_crash_answers_extraction_failed(
            self, store, tmp_path, monkeypatch, path):
        from repro.engine.faults import FAULTS_ENV

        tree = tmp_path / "boom"
        tree.mkdir()
        (tree / "a.c").write_text("int f(void) {\n    return 0;\n}\n")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        # Set before the pool's workers start, so they inherit it.
        monkeypatch.setenv(FAULTS_ENV, "boom=crash")
        server = AsyncPredictionServer(store, port=0, pool_size=1)
        try:
            doc = ({"path": str(tree)} if path == "/analyze"
                   else {"base": str(tree), "head": str(tree)})
            response, body = call(server, "POST", path, doc)
        finally:
            server.stop()
            obs.disable()
        assert response.status == 500
        assert body["error"].startswith("extraction failed — boom")

    def test_hung_extraction_answers_timeout(self, store, tmp_path,
                                             monkeypatch):
        import time

        from repro.engine import EngineConfig
        from repro.engine.faults import FAULTS_ENV

        tree = tmp_path / "slow-app"
        tree.mkdir()
        (tree / "a.c").write_text("int f(void) {\n    return 0;\n}\n")
        monkeypatch.setenv(FAULTS_ENV, "slow-app=hang:60")
        server = AsyncPredictionServer(
            store, config=EngineConfig(no_cache=True, task_timeout=2.0),
            port=0, pool_size=1)
        try:
            start = time.monotonic()
            response, body = call(server, "POST", "/analyze",
                                  {"path": str(tree)})
            elapsed = time.monotonic() - start
        finally:
            server.stop()
            obs.disable()
        assert elapsed < 30
        assert response.status == 500
        assert body["error"] == ("extraction failed — slow-app: no result "
                                 "within 2s")

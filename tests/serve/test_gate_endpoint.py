"""``POST /gate`` and the uniform ``schema_version`` stamp.

The byte-identity contract is the headline: the daemon's ``/gate``
response body must equal ``repro gate --json`` for the same inputs,
because product surfaces (CI annotations, dashboards) diff and cache
these documents.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.serve import AsyncPredictionServer
from repro.serve.handlers import handle_request
from repro.serve.payloads import SCHEMA_VERSION

SAFE_C = (
    "#include <string.h>\n"
    "int handle(const char *req, char *out, unsigned cap) {\n"
    "    strncpy(out, req, cap - 1);\n"
    "    out[cap - 1] = 0;\n"
    "    return 0;\n"
    "}\n"
)

RISKY_C = (
    "#include <string.h>\n"
    "int handle(char *req) {\n"
    "    char buf[32];\n"
    "    strcpy(buf, req);\n"
    "    system(req);\n"
    "    return 0;\n"
    "}\n"
)


@pytest.fixture
def app(store):
    server = AsyncPredictionServer(store, port=0, pool_size=1)
    yield server
    server.stop()
    obs.disable()


@pytest.fixture
def trees(tmp_path):
    base = tmp_path / "base"
    head = tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (base / "app.c").write_text(SAFE_C)
    (head / "app.c").write_text(RISKY_C)
    return str(base), str(head)


def call(app, method, path, doc=None):
    body = json.dumps(doc).encode() if doc is not None else b""
    response = handle_request(app, method, path, body)
    return response, json.loads(response.body.decode())


class TestGateEndpoint:
    def test_breach_is_still_200(self, app, trees):
        base, head = trees
        response, doc = call(app, "POST", "/gate",
                             {"base": base, "head": head,
                              "threshold": 0.0})
        assert response.status == 200
        assert doc["breach"] is True
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["mode"] == "features"

    def test_model_mode_via_store(self, app, trees):
        base, head = trees
        response, doc = call(app, "POST", "/gate",
                             {"base": base, "head": head,
                              "model": "default", "threshold": 0.0})
        assert response.status == 200
        assert doc["mode"] == "model"
        assert doc["probability_deltas"]

    def test_get_is_405(self, app):
        response, _ = call(app, "GET", "/gate")
        assert response.status == 405

    def test_missing_specs_400(self, app):
        response, doc = call(app, "POST", "/gate", {})
        assert response.status == 400
        assert "'base' and 'head'" in doc["error"]

    def test_non_string_spec_400(self, app, trees):
        response, _ = call(app, "POST", "/gate",
                           {"base": 7, "head": trees[1]})
        assert response.status == 400

    def test_missing_directory_400(self, app, trees):
        response, doc = call(app, "POST", "/gate",
                             {"base": trees[0] + "-nope",
                              "head": trees[1]})
        assert response.status == 400
        assert "not a directory" in doc["error"]

    def test_empty_head_400(self, app, trees, tmp_path):
        empty = tmp_path / "void"
        empty.mkdir()
        response, doc = call(app, "POST", "/gate",
                             {"base": trees[0], "head": str(empty)})
        assert response.status == 400
        assert "head tree" in doc["error"]

    def test_empty_base_gates_fine(self, app, trees, tmp_path):
        empty = tmp_path / "void2"
        empty.mkdir()
        response, doc = call(app, "POST", "/gate",
                             {"base": str(empty), "head": trees[1],
                              "threshold": 0.0})
        assert response.status == 200
        assert doc["counts"]["added"] == 1

    @pytest.mark.parametrize("threshold", [
        float("nan"), float("inf"), True, "0.1", None])
    def test_bad_threshold_400(self, app, trees, threshold):
        response, doc = call(app, "POST", "/gate",
                             {"base": trees[0], "head": trees[1],
                              "threshold": threshold})
        assert response.status == 400
        assert "finite number" in doc["error"]

    def test_bad_seed_400(self, app, trees):
        response, _ = call(app, "POST", "/gate",
                           {"base": trees[0], "head": trees[1],
                            "seed": "zero"})
        assert response.status == 400

    def test_unknown_model_404(self, app, trees):
        response, _ = call(app, "POST", "/gate",
                           {"base": trees[0], "head": trees[1],
                            "model": "canary"})
        assert response.status == 404


class TestByteIdentity:
    def test_served_bytes_equal_cli_json(self, app, trees, capsys):
        from repro.cli import main

        base, head = trees
        exit_code = main(["gate", base, head, "--features-only",
                          "--threshold", "0.0", "--json"])
        cli_bytes = capsys.readouterr().out
        assert exit_code == 3  # breach
        body = json.dumps({"base": base, "head": head,
                           "threshold": 0.0}).encode()
        response = handle_request(app, "POST", "/gate", body)
        assert response.status == 200
        assert response.body.decode() == cli_bytes


class TestSchemaVersionStamp:
    """Every JSON endpoint carries the same schema_version."""

    def test_healthz(self, app):
        _, doc = call(app, "GET", "/healthz")
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_metricz_json(self, app):
        _, doc = call(app, "GET", "/metricz?format=json")
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_models(self, app):
        _, doc = call(app, "GET", "/models")
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_predict(self, app):
        _, doc = call(app, "POST", "/predict",
                      {"features": {"loc.total": 10.0}})
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_gate(self, app, trees):
        _, doc = call(app, "POST", "/gate",
                      {"base": trees[0], "head": trees[1]})
        assert doc["schema_version"] == SCHEMA_VERSION

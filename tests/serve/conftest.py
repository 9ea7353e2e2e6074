"""Serving-layer fixtures: a saved model, a store, a live server.

The server fixture binds port 0 (a free port) and runs the real
asyncio daemon in a background thread, so the suite exercises actual
sockets and concurrent handler threads — not a mocked transport.
"""

from __future__ import annotations

import json
import pickle
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.engine import EngineConfig
from repro.serve import AsyncPredictionServer, ModelStore


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, small_training):
    path = tmp_path_factory.mktemp("serve-model") / "model.pkl"
    with open(path, "wb") as handle:
        pickle.dump(small_training.model, handle)
    return str(path)


@pytest.fixture
def store(model_file):
    return ModelStore.from_specs([f"default={model_file}"])


@pytest.fixture(params=["async"])
def tier_server(model_file):
    """A live server with a fresh single-model store."""
    store = ModelStore.from_specs([f"default={model_file}"])
    srv = AsyncPredictionServer(
        store, config=EngineConfig(no_cache=True), port=0, pool_size=1)
    srv.start()
    yield srv
    srv.stop()
    obs.disable()


@pytest.fixture
def server(store):
    """The daemon as ``repro serve --pool-size 1`` builds it: a default
    :class:`EngineConfig` that defers to ``REPRO_CACHE_DIR`` and
    ``REPRO_WORKERS``, and one pooled engine."""
    srv = AsyncPredictionServer(store, port=0, pool_size=1)
    srv.start()
    yield srv
    srv.stop()
    obs.disable()


def http(server, method, path, doc=None, timeout=15):
    """One request against a live test server -> (status, headers, body)."""
    data = json.dumps(doc).encode() if doc is not None else None
    request = urllib.request.Request(
        server.url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode()


@pytest.fixture
def client():
    return http

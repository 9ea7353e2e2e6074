"""Prediction service layer: the testbed as a long-running daemon.

The paper's Figure-4 system is not a one-shot script: applications
stream in, features are extracted, and the trained model answers
CVE-hypothesis queries on demand. This package is that serving layer —
a stdlib-only asyncio HTTP daemon (no new dependencies) in front of the
trained :class:`~repro.core.model.SecurityModel` bundles and the
existing :class:`~repro.engine.ExtractionEngine`:

- :mod:`repro.serve.modelstore` — loads and validates one or more
  saved model bundles at startup (named ``NAME=PATH`` specs);
- :mod:`repro.serve.payloads` — the one place request/CLI payloads are
  built and serialised, so served responses stay byte-identical to the
  offline ``repro analyze --json`` path;
- :mod:`repro.serve.handlers` — routing, validation, and per-endpoint
  metrics (``serve.requests`` / ``serve.errors`` counters and
  ``serve.<endpoint>.seconds`` histograms in :mod:`repro.obs`);
- :mod:`repro.serve.enginepool` — N extraction engines in worker
  processes, checked out per ``/analyze`` request (the daemon's
  concurrency unit);
- :mod:`repro.serve.aio` — the daemon: keep-alive HTTP/1.1, model
  store with blue/green hot reload, health, engine-pool ``/analyze``,
  direct load shedding at the loop.

``/predict`` is scored inline on the handler thread that owns the
request, one :func:`~repro.serve.payloads.prediction_payload` per row:
scoring is ~0.1 ms of CPU, so a batching queue would only add latency.

The daemon serves ``POST /predict``, ``POST /analyze``, ``POST /gate``,
``GET /healthz``, ``GET /metricz``, and ``GET|POST /models`` (model
hot reload), and builds every response in :mod:`repro.serve.payloads`
— so served bytes are identical to the offline CLI's.

Start one from the CLI with ``repro serve --model model.pkl`` or
programmatically::

    from repro.serve import AsyncPredictionServer, ModelStore

    store = ModelStore.from_specs(["default=model.pkl"])
    server = AsyncPredictionServer(store, port=0, pool_size=4)
    server.start()
    ...                                        # server.port is bound now
    server.stop()
"""

import importlib

#: Public name -> the submodule that defines it. Imported on first access
#: (PEP 562), so ``from repro.serve.payloads import ...`` — the CLI, the
#: gate and ``repro train`` — does not load the daemon.
_EXPORTS = {
    "AsyncPredictionServer": "aio",
    "EnginePool": "enginepool",
    "ModelLoadError": "modelstore",
    "ModelStore": "modelstore",
    "PoolSaturated": "enginepool",
    "SCHEMA_VERSION": "payloads",
    "analysis_payload": "payloads",
    "dump_payload": "payloads",
    "load_model": "modelstore",
    "prediction_payload": "payloads",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

"""The prediction daemon: ThreadingHTTPServer glue around the handlers.

:class:`PredictionServer` owns the long-lived pieces — the validated
:class:`~repro.serve.modelstore.ModelStore`, one shared
:class:`~repro.engine.ExtractionEngine` handle (so the feature cache,
worker pool, and failure policies apply to served traffic exactly as
they do offline), and the :mod:`repro.obs` session ``/metricz`` reads.
Each HTTP exchange is delegated to
:func:`repro.serve.handlers.handle_request`; handler threads only touch
thread-safe state (metrics instruments, the read-only models, the
engine behind its lock).

Endpoints:

- ``GET /healthz`` — build identity (package version), loaded models,
  engine configuration.
- ``GET /metricz`` — the metrics registry snapshot as JSON.
- ``POST /predict`` — ``{"features": {...}}`` or
  ``{"instances": [{...}, ...]}``, optional ``"model": NAME``;
  scored on the handler thread, byte-identical to the offline
  prediction path.
- ``POST /analyze`` — ``{"path": DIR}`` or ``{"paths": [...]}``,
  optional ``"model"``/``"dynamic"``; extraction through the shared
  engine, byte-identical to ``repro analyze --json``.
- ``GET /models`` / ``POST /models`` — inspect the live model-store
  snapshot / hot-reload it blue/green (see
  :meth:`PredictionServer.reload_models`).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs, package_version
from repro.engine import ExtractionEngine
from repro.lang import Codebase
from repro.obs.slo import SloRule, evaluate_slos
from repro.serve.accesslog import AccessLog
from repro.serve.handlers import handle_request
from repro.serve.modelstore import ModelStore
from repro.serve.payloads import SCHEMA_VERSION


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin transport shell; all logic lives in `handlers`."""

    #: Overridden per-server by the subclass `PredictionServer` mints.
    app: "PredictionServer"
    server_version = f"repro-serve/{package_version()}"

    # Access logging would interleave with the CLI's own output; the
    # serve.* metrics are the supported observation channel.
    def log_message(self, format: str, *args) -> None:
        pass

    def _dispatch(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        headers = {key.lower(): value for key, value in self.headers.items()}
        response = handle_request(self.app, method, self.path, body,
                                  headers=headers)
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class ServingApp:
    """Transport-free application core shared by both serving tiers.

    Owns everything :func:`~repro.serve.handlers.handle_request` needs
    from its ``app`` — the model-store snapshot (and its blue/green
    reload), SLO rules, and the access log. Subclasses add a transport
    (threaded ``http.server`` or asyncio) and an extraction strategy
    (:meth:`analyze_one`).

    Args:
        store: validated model bundles (first one is the default).
        slo_rules: optional :class:`~repro.obs.slo.SloRule` sequence;
            ``/healthz`` evaluates them against the live metrics
            snapshot and reports ``status: degraded`` on any breach.
        access_log: optional path; each finished request appends one
            structured JSON line (method, path, status, duration,
            trace ID, rows scored, shed flag) there.
    """

    def __init__(
        self,
        store: ModelStore,
        slo_rules: Optional[Sequence[SloRule]] = None,
        access_log: Optional[str] = None,
    ):
        self._store = store
        self._reload_lock = threading.Lock()
        self.slo_rules = tuple(slo_rules or ())
        self.access_log = AccessLog(access_log) if access_log else None
        # /metricz needs a registry even when the CLI passed no
        # --profile/--trace; reuse an existing session rather than
        # clobbering the one main() configured.
        if not obs.is_enabled():
            obs.configure()

    # -- models: snapshot + blue/green reload --------------------------

    @property
    def store(self) -> ModelStore:
        """The live model-store snapshot (atomic reference read).

        Handlers read this exactly once per request and resolve every
        model lookup through that snapshot, so a concurrent
        :meth:`reload_models` can never mix two store versions inside
        one response.
        """
        return self._store

    def reload_models(self, specs: Optional[Sequence[str]] = None):
        """Blue/green reload: build → validate → swap atomically.

        With ``specs`` the new store is built from those ``NAME=PATH``
        specs; without, the current store's own specs are re-read from
        disk (the SIGHUP re-scan path). The new store is fully loaded
        and validated *before* the reference swap, so a corrupt
        replacement raises :class:`~repro.serve.modelstore.
        ModelLoadError` and leaves the old store serving untouched.
        Returns ``(old, new)`` store snapshots.
        """
        with self._reload_lock:
            old = self._store
            new = ModelStore.from_specs(
                list(specs) if specs is not None else old.specs,
                version=old.version + 1)
            self._store = new
        obs.incr("serve.model_reloads")
        obs.event("serve.model_reload", version=new.version,
                  previous_version=old.version, models=new.names())
        return old, new

    # -- the extraction hop -------------------------------------------

    def analyze_one(self, codebase: Codebase,
                    include_dynamic: bool = False) -> Dict[str, float]:
        """Extract one codebase for ``/analyze``.

        Each tier supplies its concurrency model: the threaded tier
        serialises behind one engine lock; the async tier checks an
        engine out of its pool.
        """
        raise NotImplementedError

    def analyze_records(
        self, codebase: Codebase
    ) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
        """Feature row plus per-file analyzer records, for ``/gate``.

        Same concurrency contract as :meth:`analyze_one`; backed by
        :meth:`~repro.engine.ExtractionEngine.extract_with_records`, so
        a warm daemon re-gates a one-file edit by recomputing one file.
        """
        raise NotImplementedError

    def engine_shape(self) -> Dict[str, object]:
        """The extraction backend's identity block for ``/healthz``."""
        raise NotImplementedError

    # -- shared lifecycle ---------------------------------------------

    def _shutdown_app(self) -> None:
        """Stop the shared app pieces (the access log)."""
        if self.access_log is not None:
            self.access_log.close()

    # -- identity -----------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` document (also handy for embedders).

        With SLO rules loaded, the document gains an ``slo`` block
        (verdict, breached rule names, rule count) evaluated against
        the live metrics snapshot, and ``status`` flips to
        ``"degraded"`` on any breach. Without rules the document has no
        ``slo`` block, and ``status`` stays ``"ok"`` unless a tier
        reports a broken backend (the async tier's engine pool).
        """
        store = self.store
        doc: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "version": package_version(),
            "models": store.describe(),
            "models_version": store.version,
            "engine": self.engine_shape(),
        }
        if self.slo_rules:
            session = obs.active()
            snapshot = (session.metrics.snapshot()
                        if session is not None else {})
            report = evaluate_slos(self.slo_rules, snapshot)
            doc["slo"] = {
                "ok": report.ok,
                "breached": report.breached,
                "rules": len(self.slo_rules),
            }
            if not report.ok:
                doc["status"] = "degraded"
        return doc


class PredictionServer(ServingApp):
    """The threaded prediction daemon (``ThreadingHTTPServer`` tier).

    One shared :class:`~repro.engine.ExtractionEngine` handle behind a
    lock — ``/analyze`` requests serialise, which is simple and
    correct but caps extraction throughput at one request at a time.
    The asyncio tier (:class:`~repro.serve.aio.AsyncPredictionServer`)
    trades the lock for an engine pool.

    Args:
        store: validated model bundles (first one is the default).
        engine: shared extraction engine handle for ``/analyze``;
            defaults to :meth:`ExtractionEngine.from_env`, so
            ``REPRO_WORKERS``/``REPRO_CACHE_DIR`` shape served traffic
            the same way they shape CLI runs.
        host/port: bind address; port 0 picks a free port (the bound
            one is on :attr:`port` after construction).

    Remaining knobs are :class:`ServingApp`'s.
    """

    def __init__(
        self,
        store: ModelStore,
        engine: Optional[ExtractionEngine] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        slo_rules: Optional[Sequence[SloRule]] = None,
        access_log: Optional[str] = None,
    ):
        super().__init__(store, slo_rules=slo_rules, access_log=access_log)
        self.engine = engine if engine is not None \
            else ExtractionEngine.from_env()
        self.engine_lock = threading.Lock()
        handler_cls = type(
            "BoundRequestHandler", (_RequestHandler,), {"app": self})
        self.httpd = ThreadingHTTPServer((host, port), handler_cls)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # -- the extraction hop -------------------------------------------

    def analyze_one(self, codebase: Codebase,
                    include_dynamic: bool = False) -> Dict[str, float]:
        with self.engine_lock:
            return self.engine.extract_one(
                codebase, include_dynamic=include_dynamic)

    def analyze_records(
        self, codebase: Codebase
    ) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
        with self.engine_lock:
            return self.engine.extract_with_records(codebase)

    def engine_shape(self) -> Dict[str, object]:
        return self.engine.describe()

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Serve in a background thread (tests and embedding)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve-http",
            daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); blocks."""
        self.httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting, close the socket and the access log."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._shutdown_app()

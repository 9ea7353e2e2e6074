"""The prediction daemon: keep-alive HTTP in front of an engine pool.

:class:`AsyncPredictionServer` owns the long-lived pieces — the
validated :class:`~repro.serve.modelstore.ModelStore` (and its
blue/green reload), the :class:`~repro.serve.enginepool.EnginePool`
that ``/analyze`` and ``/gate`` extract through, the SLO rules, and
the :mod:`repro.obs` session ``/metricz`` reads. The
event loop owns only connection plumbing — accepting sockets, parsing
HTTP/1.1 framing, writing responses, persistent connections — and
hands every parsed request to the transport-free
:func:`repro.serve.handlers.handle_request` on a bounded worker-thread
pool. Because every response is built in the payload layer, the bytes
served are identical to the offline CLI's.

The concurrency model, layer by layer:

- **Connections** are cheap: thousands can sit in keep-alive on the
  event loop without holding a thread.
- **Requests** are bounded by ``max_inflight``; beyond it the loop
  sheds directly with ``503`` + ``Retry-After`` without ever touching
  a worker thread (``serve.aio.shed``, counted and emitted as an
  event). Framing the loop refuses (400/413/431/501) never reaches a
  handler either; it is counted as ``serve.aio.bad_request`` and
  emitted as an event with its status. Every request that does reach
  a handler is one ``serve.request`` span.
- **Predictions** are scored inline on the handler thread that owns
  the request — one ``assess`` is ~0.1 ms of CPU, so no queue forms
  behind it and ``max_inflight`` is the only bound it needs.
- **Extractions** check an engine out of the
  :class:`~repro.serve.enginepool.EnginePool` — N worker *processes*,
  so ``/analyze`` throughput scales with pool size.

Model hot reload: ``POST /models`` (or a SIGHUP re-scan wired up by
the CLI) builds and validates a brand-new store, then swaps the
reference atomically — in-flight requests finish on the snapshot they
resolved at routing time, so a swap drops zero requests.
"""

from __future__ import annotations

import asyncio
import re
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Dict, Optional, Sequence

from repro import obs, package_version
from repro.engine import EngineConfig
from repro.obs.slo import SloRule, evaluate_slos
from repro.serve.enginepool import (
    DEFAULT_CHECKOUT_TIMEOUT,
    EnginePool,
)
from repro.serve.handlers import Response, handle_request
from repro.serve.modelstore import ModelStore
from repro.serve.payloads import SCHEMA_VERSION

#: Connections idle in keep-alive longer than this are closed.
KEEPALIVE_TIMEOUT = 30.0

#: Largest accepted request body (bytes). /analyze and /predict bodies
#: are small JSON documents; anything near this is a mistake or abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: StreamReader limit — also caps one header block.
_READER_LIMIT = 256 * 1024

#: RFC 9110 field-name ``token``: no whitespace, so ``Name : value``
#: and obs-fold continuation lines are rejected (RFC 9112 §5.1).
_FIELD_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")

#: RFC 9110 ``Content-Length = 1*DIGIT``: ``int()`` alone would also
#: accept a sign, underscores and surrounding whitespace.
_DIGITS = re.compile(r"[0-9]+")


class _BadRequest(Exception):
    """Malformed HTTP framing; the connection is answered and closed."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class AsyncPredictionServer:
    """The prediction daemon: keep-alive HTTP, engine pool, hot reload.

    Args:
        store: validated model bundles (first one is the default).
        config: the :class:`~repro.engine.EngineConfig` every pool slot
            builds its private engine from (cache and failure-policy
            knobs carry over; workers are forced to 1 per slot). The
            default takes its cache from ``REPRO_CACHE_DIR``, as CLI
            runs do.
        host/port: bind address; port 0 picks a free port (the bound
            one is on :attr:`port` after construction — the listening
            socket is created eagerly so embedders and tests can
            discover it before the loop runs).
        pool_size: engine slots — the concurrent ``/analyze``
            extraction bound.
        checkout_timeout: seconds an ``/analyze`` request may wait for
            a free engine before being shed.
        max_inflight: requests admitted past the loop at once; beyond
            it the loop sheds directly with 503. Defaults to twice the
            handler threads.
        slo_rules: optional :class:`~repro.obs.slo.SloRule` sequence;
            ``/healthz`` evaluates them against the live metrics
            snapshot and reports ``status: degraded`` on any breach.
    """

    def __init__(
        self,
        store: ModelStore,
        config: Optional[EngineConfig] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        pool_size: int = 2,
        checkout_timeout: float = DEFAULT_CHECKOUT_TIMEOUT,
        max_inflight: Optional[int] = None,
        slo_rules: Optional[Sequence[SloRule]] = None,
    ):
        self._store = store
        self._reload_lock = threading.Lock()
        self.slo_rules = tuple(slo_rules or ())
        # /metricz needs a registry even when the CLI passed no
        # --profile/--stream; reuse an existing session rather than
        # clobbering the one main() configured. Nothing reads this
        # session's spans back, so it keeps none (its histograms still
        # fill).
        if not obs.is_enabled():
            obs.configure(keep_spans=False)
        self.pool = EnginePool(
            config, size=pool_size, checkout_timeout=checkout_timeout)
        # Enough handlers to keep every engine busy while the rest
        # score predictions.
        self.handler_threads = 4 * self.pool.size + 4
        self.max_inflight = int(
            max_inflight if max_inflight is not None
            else 2 * self.handler_threads)
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._executor = ThreadPoolExecutor(
            max_workers=self.handler_threads,
            thread_name_prefix="repro-serve-aio")
        # Bind eagerly: `port=0` callers need the real port before the
        # loop exists, and a bind failure should raise here, not on a
        # background thread later.
        self._sock = socket.create_server(
            (host, port), backlog=128, reuse_port=False)
        self._sock.setblocking(False)
        self.host, self.port = self._sock.getsockname()[:2]
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._stopped = threading.Event()
        self._started = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._conn_tasks: "set[asyncio.Task]" = set()

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

    # -- identity -----------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` document (also handy for embedders).

        With SLO rules loaded, the document gains an ``slo`` block
        (verdict, breached rule names, rule count) evaluated against
        the live metrics snapshot. ``status`` flips to ``"degraded"``
        on any SLO breach or once the engine pool is broken.
        """
        store = self.store
        shape = self.pool.describe()
        doc: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "version": package_version(),
            "models": store.describe(),
            "models_version": store.version,
            "engine": shape["engine"],
            "pool": {key: shape[key] for key in (
                "size", "in_use", "checkout_timeout", "rebuilds_left",
                "broken")},
            "inflight": {
                "current": self._inflight,
                "max": self.max_inflight,
                "handler_threads": self.handler_threads,
            },
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
        if shape["broken"]:
            # Every /analyze and /gate now fails until a restart; a
            # probe must not keep routing traffic here.
            doc["status"] = "degraded"
        return doc

    # -- lifecycle ----------------------------------------------------

    def start(self, warm: bool = False) -> None:
        """Serve on a background thread.

        Returns once the listener is accepting. With ``warm`` the
        engine pool's worker processes are spawned and initialised
        before the listener opens, so the first requests never pay
        fork-and-import cost.
        """
        if warm:
            self.pool.prestart()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-aio", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)

    def stop(self) -> None:
        """Graceful stop: close the listener, drain, release engines.

        In-flight requests finish (their connections close after the
        final response is written); idle keep-alive connections are
        closed immediately.
        """
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:  # loop tore down between checks
                pass
            self._stopped.wait(timeout=30.0)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._executor.shutdown(wait=True)
        self.pool.close()
        try:
            self._sock.close()
        except OSError:  # already closed by the loop
            pass

    def _signal_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    # -- event loop ----------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, sock=self._sock, limit=_READER_LIMIT)
        self._started.set()
        try:
            await self._stop_requested.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Idle connections are parked awaiting their next request;
            # cancel them. Busy ones are mid-handler and protected by
            # a shield, so gathering waits for their final write.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True)
            self._stopped.set()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass  # client vanished or the server is stopping
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """One persistent connection: request after request until
        close."""
        while True:
            try:
                request = await self._read_request(reader)
            except _BadRequest as exc:
                obs.incr("serve.aio.bad_request")
                obs.event("serve.aio.bad_request", status=exc.status,
                          reason=str(exc))
                await self._write_response(
                    writer, _error_response(exc.status, str(exc)),
                    keep_alive=False)
                return
            if request is None:  # clean close or idle timeout
                return
            method, path, headers, body, client_keep_alive = request
            if not self._admit():
                obs.incr("serve.aio.shed")
                obs.event("serve.aio.shed", method=method, path=path)
                await self._write_response(
                    writer,
                    _error_response(
                        503, "server is at capacity; retry shortly",
                        headers=[("Retry-After", "1")]),
                    keep_alive=client_keep_alive)
                if not client_keep_alive:
                    return
                continue
            try:
                # Shield the handler hop: a stop() mid-request must let
                # the response finish (zero dropped requests), not
                # cancel it.
                response = await asyncio.shield(
                    asyncio.get_running_loop().run_in_executor(
                        self._executor, handle_request, self, method,
                        path, body, headers))
            finally:
                self._release()
            await self._write_response(
                writer, response, keep_alive=client_keep_alive)
            if not client_keep_alive:
                return

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean close / idle timeout.

        Returns ``(method, path, headers, body, keep_alive)``. Raises
        :class:`_BadRequest` on framing the server cannot or will not
        handle.
        """
        try:
            blob = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"),
                timeout=KEEPALIVE_TIMEOUT)
        except asyncio.TimeoutError:
            return None
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:  # clean EOF between requests
                return None
            raise _BadRequest(400, "truncated request head")
        except asyncio.LimitOverrunError:
            raise _BadRequest(431, "request header block too large")
        head = blob.decode("latin-1").split("\r\n")
        parts = head[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, f"malformed request line: {head[0]!r}")
        method, path, version = parts
        headers: Dict[str, str] = {}
        lengths = set()
        for line in head[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep or not _FIELD_NAME.fullmatch(name):
                raise _BadRequest(400, f"malformed header line: {line!r}")
            name, value = name.lower(), value.strip()
            if name == "content-length":
                lengths.add(value)
            headers[name] = value
        # RFC 9112 §6.3: the body's framing must be unambiguous, or a
        # proxy in front of us could read a different request than we do.
        if "transfer-encoding" in headers:
            raise _BadRequest(501, "transfer-coded request bodies not "
                                   "supported")
        if len(lengths) > 1:
            raise _BadRequest(400, "conflicting Content-Length headers")
        length_field = headers.get("content-length", "0")
        if not _DIGITS.fullmatch(length_field):
            raise _BadRequest(400, "bad Content-Length")
        try:
            length = int(length_field)
        except ValueError:  # more digits than int() converts
            length = MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length),
                    timeout=KEEPALIVE_TIMEOUT)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                raise _BadRequest(400, "truncated request body")
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return method, path, headers, body, keep_alive

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response,
                              keep_alive: bool) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Server: repro-serve/{package_version()}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}"
                     for name, value in response.headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + response.body)
        await writer.drain()

    # -- admission control --------------------------------------------

    def _admit(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            obs.gauge("serve.aio.inflight", self._inflight)
            return True

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            obs.gauge("serve.aio.inflight", self._inflight)


def _error_response(status: int, message: str,
                    headers: Optional[list] = None) -> Response:
    """A transport-level error the handlers never saw (framing, shed).

    Mirrors the handler layer's error document shape so clients parse
    every error the same way.
    """
    from repro.serve.payloads import dump_payload

    obs.incr("serve.errors")
    obs.incr(f"serve.errors.{status}")
    return Response(
        status=status,
        body=dump_payload({"error": message}).encode("utf-8"),
        headers=list(headers or []))

"""The asyncio serving tier: keep-alive HTTP in front of an engine pool.

:class:`AsyncPredictionServer` is the production face of the daemon.
The event loop owns only connection plumbing — accepting sockets,
parsing HTTP/1.1 framing, writing responses, persistent connections —
and hands every parsed request to the same transport-free
:func:`repro.serve.handlers.handle_request` the threaded tier uses, on
a bounded worker-thread pool. Because the handler and payload layers
are shared, every byte the async tier serves is identical to the
threaded tier and to the offline CLI.

The concurrency model, layer by layer:

- **Connections** are cheap: thousands can sit in keep-alive on the
  event loop without holding a thread.
- **Requests** are bounded by ``max_inflight``; beyond it the loop
  sheds directly with ``503`` + ``Retry-After`` without ever touching
  a worker thread (``serve.aio.shed``).
- **Predictions** are scored inline on the handler thread that owns
  the request — one ``assess`` is ~0.1 ms of CPU, so no queue forms
  behind it and ``max_inflight`` is the only bound it needs.
- **Extractions** check an engine out of the
  :class:`~repro.serve.enginepool.EnginePool` — N worker *processes*,
  so ``/analyze`` throughput scales with pool size instead of
  serialising behind the threaded tier's single engine lock.

Model hot reload is inherited from :class:`~repro.serve.server.
ServingApp`: ``POST /models`` (or a SIGHUP re-scan wired up by the
CLI) builds and validates a brand-new store, then swaps the reference
atomically — in-flight requests finish on the snapshot they resolved
at routing time, so a swap drops zero requests.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Dict, Optional, Sequence

from repro import obs, package_version
from repro.engine import EngineConfig
from repro.lang import Codebase
from repro.obs.slo import SloRule
from repro.serve.enginepool import (
    DEFAULT_CHECKOUT_TIMEOUT,
    EnginePool,
)
from repro.serve.handlers import Response, handle_request
from repro.serve.modelstore import ModelStore
from repro.serve.server import ServingApp

#: Connections idle in keep-alive longer than this are closed.
DEFAULT_KEEPALIVE_TIMEOUT = 30.0

#: Largest accepted request body (bytes). /analyze and /predict bodies
#: are small JSON documents; anything near this is a mistake or abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: StreamReader limit — also caps one header block.
_READER_LIMIT = 256 * 1024


class _BadRequest(Exception):
    """Malformed HTTP framing; the connection is answered and closed."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class AsyncPredictionServer(ServingApp):
    """The asyncio daemon: keep-alive HTTP, engine pool, hot reload.

    Args:
        store: validated model bundles (first one is the default).
        config: the :class:`~repro.engine.EngineConfig` every pool slot
            builds its private engine from (cache and failure-policy
            knobs carry over; workers are forced to 1 per slot).
        host/port: bind address; port 0 picks a free port (the bound
            one is on :attr:`port` after construction — the listening
            socket is created eagerly so embedders and tests can
            discover it before the loop runs).
        pool_size: engine slots — the concurrent ``/analyze``
            extraction bound.
        checkout_timeout: seconds an ``/analyze`` request may wait for
            a free engine before being shed.
        handler_threads: worker threads running ``handle_request``;
            defaults to ``4 * pool_size + 4`` so enough handlers exist
            to keep every engine busy while others score predictions.
        max_inflight: requests admitted past the loop at once; beyond
            it the loop sheds directly with 503. Defaults to
            ``2 * handler_threads``.
        keepalive_timeout: idle seconds before a persistent connection
            is closed.

    Remaining knobs are :class:`~repro.serve.server.ServingApp`'s.
    """

    def __init__(
        self,
        store: ModelStore,
        config: Optional[EngineConfig] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        pool_size: int = 2,
        checkout_timeout: float = DEFAULT_CHECKOUT_TIMEOUT,
        handler_threads: Optional[int] = None,
        max_inflight: Optional[int] = None,
        keepalive_timeout: float = DEFAULT_KEEPALIVE_TIMEOUT,
        slo_rules: Optional[Sequence[SloRule]] = None,
        access_log: Optional[str] = None,
    ):
        super().__init__(store, slo_rules=slo_rules, access_log=access_log)
        self.pool = EnginePool(
            config, size=pool_size, checkout_timeout=checkout_timeout)
        if handler_threads is None:
            handler_threads = 4 * pool_size + 4
        if handler_threads < 1:
            raise ValueError("handler_threads must be >= 1")
        self.handler_threads = int(handler_threads)
        self.max_inflight = int(
            max_inflight if max_inflight is not None
            else 2 * self.handler_threads)
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.keepalive_timeout = float(keepalive_timeout)
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

    # -- ServingApp contract ------------------------------------------

    def analyze_one(self, codebase: Codebase,
                    include_dynamic: bool = False) -> Dict[str, float]:
        return self.pool.extract_one(
            codebase, include_dynamic=include_dynamic)

    def analyze_records(self, codebase: Codebase):
        return self.pool.extract_with_records(codebase)

    def engine_shape(self) -> Dict[str, object]:
        return dict(self.pool.describe()["engine"])

    def health(self) -> Dict[str, object]:
        doc = super().health()
        shape = self.pool.describe()
        doc["pool"] = {key: shape[key] for key in (
            "size", "in_use", "checkout_timeout", "rebuilds_left",
            "broken")}
        if shape["broken"]:
            # Every /analyze and /gate now fails until a restart; a
            # probe must not keep routing traffic here.
            doc["status"] = "degraded"
        doc["inflight"] = {
            "current": self._inflight,
            "max": self.max_inflight,
            "handler_threads": self.handler_threads,
        }
        return doc

    # -- lifecycle ----------------------------------------------------

    def start(self, warm: bool = False) -> None:
        """Serve on a background thread (tests and embedding).

        Returns once the listener is accepting. With ``warm`` the
        engine pool's worker processes are spawned and initialised
        before the listener opens, so the first requests never pay
        fork-and-import cost.
        """
        if warm:
            self.pool.prestart()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-aio", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)

    def serve_forever(self, warm: bool = True) -> None:
        """Serve on the calling thread (the CLI path); blocks."""
        if warm:
            self.pool.prestart()
        self._run_loop()

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
        self._shutdown_app()

    def _signal_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    # -- event loop ----------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.run(self._main())

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
                await self._write_response(
                    writer, _error_response(exc.status, str(exc)),
                    keep_alive=False)
                return
            if request is None:  # clean close or idle timeout
                return
            method, path, headers, body, client_keep_alive = request
            if not self._admit():
                obs.incr("serve.aio.shed")
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
                timeout=self.keepalive_timeout)
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
        for line in head[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _BadRequest(501, "chunked request bodies not supported")
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest(400, "bad Content-Length")
        if length < 0:
            raise _BadRequest(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length),
                    timeout=self.keepalive_timeout)
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

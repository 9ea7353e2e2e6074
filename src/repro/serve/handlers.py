"""Request routing, validation, and per-endpoint metrics for the daemon.

Transport-free by design: :func:`handle_request` maps (method, path,
body bytes) to a :class:`Response`, so the whole HTTP surface is unit-
testable without sockets and the asyncio transport in
:mod:`repro.serve.aio` stays a thin shell.

Every request increments ``serve.requests`` and lands a latency
observation in ``serve.<endpoint>.seconds``; every non-2xx response
also increments ``serve.errors`` (plus ``serve.errors.<status>``).
These flow into the active :mod:`repro.obs` session, surface verbatim
on ``GET /metricz``, and show up in the ``--profile`` run report's
serving section.

Trace identity: every request gets a 128-bit trace ID — taken from an
inbound W3C ``traceparent`` header when the caller sent one, minted
otherwise — bound to the handler thread for the request's duration, so
the ``serve.request`` span, the extraction engine's spans, and even
spans grafted back from pool worker processes all stitch into one
trace. The ID is echoed on the response as ``X-Trace-Id`` and
``traceparent``.

Access records: the ``serve.request`` span carries ``method``,
``endpoint``, ``status``, ``batch_size`` (the rows one ``/predict``
scored, else None) and ``shed`` (an engine-pool refusal) as attributes,
besides its trace ID and duration, so under ``repro --stream`` its span
event is the request's access record.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.engine import ExtractionError
from repro.lang import Codebase
from repro.obs.context import (
    format_traceparent,
    new_trace_id,
    parse_traceparent,
    trace_scope,
)
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_exposition,
)
from repro.obs.spans import NULL_SPAN
from repro.serve.enginepool import PoolSaturated
from repro.serve.modelstore import ModelLoadError
from repro.serve.payloads import (
    SCHEMA_VERSION,
    analysis_payload,
    dump_payload,
    prediction_payload,
)

#: Routing table: path -> allowed methods. Anything else is 404/405.
ROUTES: Dict[str, Tuple[str, ...]] = {
    "/healthz": ("GET",),
    "/metricz": ("GET",),
    "/predict": ("POST",),
    "/analyze": ("POST",),
    "/gate": ("POST",),
    "/models": ("GET", "POST"),
}


@dataclass
class Response:
    """One finished HTTP exchange, ready for the transport to write."""

    status: int
    body: bytes
    headers: List[Tuple[str, str]] = field(default_factory=list)
    content_type: str = "application/json"

    def __post_init__(self) -> None:
        # Own the header list: the router appends trace headers to
        # every response, and a shared caller list (an HTTPError's
        # headers, a module constant) must not accumulate them.
        self.headers = list(self.headers)


@dataclass
class RequestContext:
    """Per-request facts shared between the router and the endpoints.

    ``headers`` is the inbound header map (keys lowercased); ``method`` the
    HTTP method (for endpoints accepting more than one); ``span`` the
    request's ``serve.request`` span, on which the endpoints set the
    ``batch_size`` and ``shed`` attributes of its access record.
    ``store`` is the model-store *snapshot* resolved once at routing
    time — every model lookup in the request goes through it, so a
    blue/green swap mid-request cannot mix two stores in one response.
    """

    headers: Dict[str, str] = field(default_factory=dict)
    method: str = "GET"
    store: Optional[object] = None
    span: object = NULL_SPAN


class HTTPError(Exception):
    """A request the handler rejects with a specific status and message."""

    def __init__(self, status: int, message: str,
                 headers: Optional[List[Tuple[str, str]]] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or []


def _json_response(status: int, payload,
                   headers: Optional[List[Tuple[str, str]]] = None
                   ) -> Response:
    return Response(status=status,
                    body=dump_payload(payload).encode("utf-8"),
                    headers=headers or [])


def _parse_body(body: bytes) -> dict:
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HTTPError(400, f"request body is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise HTTPError(400, "request body must be a JSON object")
    return doc


def _validate_features(features, where: str) -> Dict[str, float]:
    if not isinstance(features, dict) or not features:
        raise HTTPError(
            400, f"{where} must be a non-empty object of feature values")
    row: Dict[str, float] = {}
    for name, value in features.items():
        if not isinstance(name, str) or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            raise HTTPError(
                400,
                f"{where} must map feature names to numbers "
                f"(bad entry: {name!r})")
        row[name] = float(value)
    return row


def _select_model(ctx: RequestContext, doc: dict, required: bool):
    """The model a request names (404 on unknown), or the default.

    Resolution goes through the request's store *snapshot*
    (``ctx.store``), never back through the live server attribute — a
    hot reload between two lookups in the same request must not let the
    response mix models from two store versions.

    ``/analyze`` passes ``required=False``: without a ``model`` key it
    returns features only, byte-identical to `analyze --json` without
    ``--model``.
    """
    store = ctx.store
    name = doc.get("model")
    if name is None and not required:
        return None, None
    if name is not None and not isinstance(name, str):
        raise HTTPError(400, "'model' must be a string")
    try:
        model = store.get(name)
    except KeyError:
        raise HTTPError(
            404,
            f"unknown model {name!r}; loaded models: {store.names()}")
    return model, name or store.default_name


# -- endpoints --------------------------------------------------------


def _handle_healthz(app, doc: Optional[dict],
                    ctx: RequestContext) -> Response:
    return _json_response(200, app.health())


def _handle_metricz(app, doc: Optional[dict],
                    ctx: RequestContext) -> Response:
    session = obs.active()
    if session is None:  # pragma: no cover - server always configures obs
        raise HTTPError(503, "metrics session not configured")
    snapshot = session.metrics.snapshot()
    # Content negotiation: a Prometheus scraper (Accept: text/plain or
    # an OpenMetrics type) gets the text exposition; everything else —
    # including no Accept header at all — keeps the byte-stable JSON
    # document existing tooling parses.
    accept = ctx.headers.get("accept", "")
    if "text/plain" in accept or "openmetrics" in accept:
        return Response(
            status=200,
            body=prometheus_exposition(snapshot).encode("utf-8"),
            content_type=PROMETHEUS_CONTENT_TYPE)
    # The JSON document carries the uniform serve schema stamp (the
    # Prometheus exposition has its own format contract).
    return _json_response(
        200, {"schema_version": SCHEMA_VERSION, **snapshot})


def _handle_models(app, doc: Optional[dict],
                   ctx: RequestContext) -> Response:
    """``GET /models`` lists the live snapshot; ``POST`` hot-reloads.

    A POST body may name replacement specs (``{"models":
    ["NAME=PATH", ...]}``) or be empty / ``{"rescan": true}`` to
    re-read the specs the current store was built from (the same
    re-scan SIGHUP triggers). The reload is blue/green: the new store
    is fully built and validated first, then swapped in atomically —
    a corrupt replacement model yields 400 and the old store keeps
    serving; in-flight requests finish on the snapshot they started
    with either way.
    """
    if ctx.method == "GET":
        store = ctx.store
        return _json_response(200, {
            "schema_version": SCHEMA_VERSION,
            "version": store.version,
            "default": store.default_name,
            "models": store.describe(),
        })
    doc = doc or {}
    specs = doc.get("models")
    if specs is not None:
        if not isinstance(specs, list) or not specs or any(
                not isinstance(s, str) for s in specs):
            raise HTTPError(
                400, "'models' must be a non-empty array of NAME=PATH "
                     "specs")
    elif doc.get("rescan", True) is not True:
        raise HTTPError(400, "'rescan' must be true when no 'models' "
                             "are given")
    try:
        old, new = app.reload_models(specs)
    except ModelLoadError as exc:
        obs.incr("serve.model_reload_errors")
        raise HTTPError(400, str(exc))
    return _json_response(200, {
        "schema_version": SCHEMA_VERSION,
        "version": new.version,
        "previous_version": old.version,
        "default": new.default_name,
        "models": new.describe(),
    })


def _handle_predict(app, doc: dict, ctx: RequestContext) -> Response:
    model, model_name = _select_model(ctx, doc, required=True)
    if "instances" in doc:
        instances = doc["instances"]
        if not isinstance(instances, list) or not instances:
            raise HTTPError(400, "'instances' must be a non-empty array")
        rows = [_validate_features(inst, f"instances[{i}]")
                for i, inst in enumerate(instances)]
        batched = True
    elif "features" in doc:
        rows = [_validate_features(doc["features"], "'features'")]
        batched = False
    else:
        raise HTTPError(400, "request needs 'features' or 'instances'")
    ctx.span.set_attr("batch_size", len(rows))
    # Scored inline on the handler thread: one assess is ~0.1 ms of
    # CPU, so there is nothing for a queue to amortise or bound.
    predictions = [prediction_payload(model, row) for row in rows]
    if not batched:
        return _json_response(200, predictions[0])
    return _json_response(
        200, {"model": model_name, "predictions": predictions})


@contextmanager
def _pool_errors(ctx: RequestContext):
    """Answer the engine pool's refusals: shed is 503, failure 500."""
    try:
        yield
    except PoolSaturated as exc:
        ctx.span.set_attr("shed", True)
        raise HTTPError(
            503, str(exc),
            headers=[("Retry-After", str(exc.retry_after))])
    except ExtractionError as exc:
        raise HTTPError(500, f"extraction failed — {exc}")


def _handle_analyze(app, doc: dict, ctx: RequestContext) -> Response:
    model, _ = _select_model(ctx, doc, required=False)
    dynamic = doc.get("dynamic", False)
    if not isinstance(dynamic, bool):
        raise HTTPError(400, "'dynamic' must be a boolean")
    if "paths" in doc:
        paths = doc["paths"]
        if not isinstance(paths, list) or not paths or any(
                not isinstance(p, str) for p in paths):
            raise HTTPError(400, "'paths' must be a non-empty string array")
        batched = True
    elif "path" in doc:
        if not isinstance(doc["path"], str):
            raise HTTPError(400, "'path' must be a string")
        paths = [doc["path"]]
        batched = False
    else:
        raise HTTPError(400, "request needs 'path' or 'paths'")
    results = []
    for path in paths:
        codebase = Codebase.from_directory(path)
        if len(codebase) == 0:
            raise HTTPError(
                400, f"no recognised source files under {path!r}")
        # The request's thread-bound trace ID rides into the pool
        # worker process that runs the extraction.
        with _pool_errors(ctx):
            row = app.pool.extract_one(codebase, include_dynamic=dynamic)
        results.append(analysis_payload(codebase, row, model))
    if not batched:
        return _json_response(200, results[0])
    return _json_response(200, {"results": results})


def _handle_gate(app, doc: dict, ctx: RequestContext) -> Response:
    """``POST /gate``: risk-delta judgement between two tree specs.

    Body: ``{"base": SPEC, "head": SPEC}`` plus optional ``"model"``
    (omitted → the feature risk proxy, like ``gate --features-only``),
    ``"threshold"`` (default: the gate module's), and ``"seed"`` (for
    ``synth:NAME@K`` specs). The response is the canonical gate payload
    — byte-identical to ``repro gate --json`` for the same inputs,
    because both go through :func:`~repro.gate.report.gate_payload` and
    :func:`~repro.serve.payloads.dump_payload`. A breach is still a 200
    (the *judgement* is the payload's ``breach`` field; HTTP status
    codes stay about the request itself).
    """
    # Imported lazily: repro.gate.report imports this package's
    # payloads module, so a module-level import here would be circular.
    from repro.gate import (
        DEFAULT_THRESHOLD,
        build_gate_report,
        gate_payload,
        resolve_tree,
    )

    model, _ = _select_model(ctx, doc, required=False)
    threshold = doc.get("threshold", DEFAULT_THRESHOLD)
    if isinstance(threshold, bool) \
            or not isinstance(threshold, (int, float)) \
            or threshold != threshold or threshold in (
                float("inf"), float("-inf")):
        raise HTTPError(400, "'threshold' must be a finite number")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise HTTPError(400, "'seed' must be an integer")
    base_spec = doc.get("base")
    head_spec = doc.get("head")
    if not isinstance(base_spec, str) or not isinstance(head_spec, str):
        raise HTTPError(
            400, "request needs string 'base' and 'head' tree specs "
                 "(a directory path or synth:NAME@K)")
    try:
        base = resolve_tree(base_spec, seed=seed, allow_empty=True)
        head = resolve_tree(head_spec, seed=seed, allow_empty=True)
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, str(exc))
    if len(head) == 0:
        # An empty *base* means "everything is new" and gates fine; an
        # empty head means there is nothing to assess.
        raise HTTPError(
            400, f"no recognised source files under head tree "
                 f"{head_spec!r}")
    with _pool_errors(ctx):
        if len(base) == 0:
            row_base: Dict[str, float] = {}
            records_base: List[dict] = []
        else:
            row_base, records_base = app.pool.extract_with_records(base)
        row_head, records_head = app.pool.extract_with_records(head)
    report = build_gate_report(
        base, head, row_base, records_base, row_head, records_head,
        model=model, threshold=float(threshold))
    return _json_response(200, gate_payload(report))


_HANDLERS = {
    "/healthz": _handle_healthz,
    "/metricz": _handle_metricz,
    "/predict": _handle_predict,
    "/analyze": _handle_analyze,
    "/gate": _handle_gate,
    "/models": _handle_models,
}


def handle_request(app, method: str, path: str, body: bytes,
                   headers: Optional[Dict[str, str]] = None) -> Response:
    """Route one request and record its telemetry.

    ``app`` is the owning :class:`~repro.serve.aio.AsyncPredictionServer`
    (store, engine pool). ``headers`` is the
    inbound header map (case-insensitive; used for ``traceparent``
    propagation and ``/metricz`` content negotiation). Never raises:
    every failure mode becomes a JSON error response with the right
    status.
    """
    endpoint = path.split("?", 1)[0].rstrip("/") or "/"
    started = perf_counter()
    header_map = {key.lower(): value
                  for key, value in (headers or {}).items()}
    trace_id = (parse_traceparent(header_map.get("traceparent", ""))
                or new_trace_id())
    obs.incr("serve.requests")
    with trace_scope(trace_id):
        with obs.span("serve.request", method=method, endpoint=endpoint,
                      batch_size=None, shed=False) as request_span:
            # One store snapshot per request: a concurrent blue/green
            # model swap must never be observable *within* a response.
            ctx = RequestContext(headers=header_map, method=method,
                                 store=app.store, span=request_span)
            try:
                allowed = ROUTES.get(endpoint)
                if allowed is None:
                    raise HTTPError(404, f"no such endpoint: {endpoint}")
                if method not in allowed:
                    raise HTTPError(
                        405,
                        f"{endpoint} only accepts {', '.join(allowed)}",
                        headers=[("Allow", ", ".join(allowed))])
                doc = _parse_body(body) if method == "POST" else None
                response = _HANDLERS[endpoint](app, doc, ctx)
            except HTTPError as exc:
                response = _json_response(
                    exc.status, {"error": str(exc)}, headers=exc.headers)
            except Exception as exc:
                # the daemon must never crash on a request
                response = _json_response(
                    500,
                    {"error":
                     f"internal error: {type(exc).__name__}: {exc}"})
            request_span.set_attr("status", response.status)
    duration = perf_counter() - started
    # Unknown paths share one histogram so request noise cannot mint
    # unbounded metric names.
    label = endpoint.strip("/") if endpoint in ROUTES else "unknown"
    obs.observe(f"serve.{label}.seconds", duration)
    if response.status >= 400:
        obs.incr("serve.errors")
        obs.incr(f"serve.errors.{response.status}")
    response.headers.append(("X-Trace-Id", trace_id))
    # With tracing live the request span's real ID goes in the
    # parent-id field; disabled, any nonzero filler keeps the header
    # spec-valid (an all-zero parent-id must be rejected by parsers).
    span_id = getattr(request_span, "span_id", None) or 1
    response.headers.append(
        ("traceparent", format_traceparent(trace_id, span_id)))
    return response

"""Observability layer: tracing spans, metrics, streaming, run reports.

This package is the instrumentation substrate every perf claim in the
repo is measured against. Call sites use the module-level facade:

    from repro import obs

    with obs.span("analysis.cfg", file=path):
        ...
    obs.incr("testbed.files_analyzed", n)
    obs.observe("cv.fold_seconds", dt)
    obs.event("engine.pool_rebuild", suspects=2)

The facade is **disabled by default**: ``span`` returns a shared no-op
singleton and the metric helpers return immediately, so the instrumented
hot paths cost one global read plus a call when observability is off.
``configure()`` (the CLI's ``--profile``/``--stream`` flags, the
serving daemon, or tests) installs an :class:`ObsSession`
holding a live :class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`; ``disable()`` removes it.

Every finished span also feeds a ``span.<name>.seconds`` histogram in
the registry, so per-analyzer duration distributions come for free.

With a ``stream_path`` configured, the session additionally owns a
:class:`~repro.obs.stream.TelemetryStream` — a rotating JSONL event
stream that records finished spans, counter deltas, gauge writes,
histogram observations, and structured events as they happen, for
``repro monitor`` / ``repro slo-check`` and post-mortems. It is the
only telemetry file: its span events are the run's trace.

While a session is active, a ``gc.callbacks`` hook counts the cyclic
collector's work: ``runtime.gc.collections.gen<N>`` per generation and
``runtime.gc.pause_ms``, the summed pause in milliseconds (the mean
pause is their ratio). They are counters, so they reach
``/metricz``, the ``--profile`` report and worker grafts like any other;
the hook queues them lock-free (:meth:`MetricsRegistry.defer_incr`), so
they appear at the next snapshot and are not written to the stream.

Trace identity: spans carry the trace ID bound to the current thread
(:func:`repro.obs.context.trace_scope` — what the daemon binds per
request) or the session tracer's default (what the CLI mints per
invocation); :func:`current_trace_id` resolves that chain for callers
that need to propagate the ID across process or host boundaries.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any, Optional

from repro.obs import context
from repro.obs.context import (
    format_traceparent,
    new_trace_id,
    parse_traceparent,
    trace_scope,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    percentile,
    prometheus_exposition,
    sanitize_metric_name,
)
from repro.obs.report import (
    aggregate_spans,
    format_delta_section,
    format_error_spans,
    format_gate_section,
    format_run_report,
    format_serving_section,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span
from repro.obs.stream import (
    TELEMETRY_VERSION,
    TelemetryStream,
    read_events,
    replay_registry,
    replay_snapshot,
)
from repro.obs.tracer import Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NULL_SPAN",
    "NullSpan", "ObsSession", "PROMETHEUS_CONTENT_TYPE", "Span",
    "TELEMETRY_VERSION", "TelemetryStream", "Tracer",
    "active", "aggregate_spans", "configure", "current_trace_id",
    "disable", "event",
    "format_delta_section", "format_error_spans", "format_gate_section",
    "format_run_report", "format_serving_section", "format_traceparent",
    "gauge", "graft_spans",
    "incr", "is_enabled",
    "merge_counters", "new_trace_id", "observe", "parse_traceparent",
    "percentile", "prometheus_exposition",
    "read_events", "replay_registry", "replay_snapshot",
    "sanitize_metric_name", "span", "trace_scope",
]


class ObsSession:
    """One enabled observability window: tracer, registry, stream."""

    def __init__(self, profile: bool = False,
                 stream: Optional[TelemetryStream] = None,
                 trace_id: Optional[str] = None,
                 keep_spans: bool = True):
        self.profile = profile
        self.stream = stream
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(on_finish=self._span_finished,
                             trace_id=trace_id, keep_spans=keep_spans)

    def _span_finished(self, span: Span) -> None:
        self.metrics.histogram(f"span.{span.name}.seconds").observe(
            span.duration
        )
        if self.stream is not None:
            self.stream.emit_span(span.to_dict())

    def close(self) -> None:
        """Release the session's stream descriptor (idempotent)."""
        if self.stream is not None:
            self.stream.close()


_session: Optional[ObsSession] = None

#: perf_counter() at the start of the collection in progress. Collections
#: never overlap, so one slot serves every thread.
_gc_started = 0.0


def _on_gc(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook: collections per generation and pause time."""
    global _gc_started
    if phase == "start":
        _gc_started = perf_counter()
        return
    session = _session
    if session is not None:
        registry = session.metrics
        registry.defer_incr(
            f"runtime.gc.collections.gen{info['generation']}", 1.0)
        registry.defer_incr(
            "runtime.gc.pause_ms", (perf_counter() - _gc_started) * 1e3)


def configure(profile: bool = False,
              stream_path: Optional[str] = None,
              stream_max_bytes: Optional[int] = None,
              trace_id: Optional[str] = None,
              keep_spans: bool = True) -> ObsSession:
    """Enable observability with a fresh session (replacing any prior).

    ``stream_path`` attaches a rotating telemetry event stream,
    opened here: an OSError from opening it propagates and leaves any
    prior session in place. ``trace_id`` sets the tracer-wide default
    trace ID every span recorded outside an explicit
    :func:`trace_scope` inherits. ``keep_spans=False`` makes a session
    that keeps no finished spans: they still feed its
    ``span.<name>.seconds`` histograms and its stream, but nothing can
    report them later. A session that lives as long as a server, or a
    CLI run with no profile to print, needs nothing more.
    """
    global _session
    stream = None
    if stream_path:
        kwargs = {}
        if stream_max_bytes is not None:
            kwargs["max_bytes"] = stream_max_bytes
        stream = TelemetryStream(stream_path, **kwargs)
        stream.open()
    if _session is not None:
        _session.close()
    _session = ObsSession(profile=profile, stream=stream,
                          trace_id=trace_id, keep_spans=keep_spans)
    if _on_gc not in gc.callbacks:
        gc.callbacks.append(_on_gc)
    return _session


def disable() -> Optional[ObsSession]:
    """Disable observability; returns the session that was active."""
    global _session
    session, _session = _session, None
    if _on_gc in gc.callbacks:
        gc.callbacks.remove(_on_gc)
    if session is not None:
        session.close()
    return session


def active() -> Optional[ObsSession]:
    """The active session, or None when disabled."""
    return _session


def is_enabled() -> bool:
    return _session is not None


def current_trace_id() -> Optional[str]:
    """The trace ID spans recorded right now would carry, or None.

    Resolution order mirrors the tracer's: the current thread's
    :func:`trace_scope` binding first, then the active session
    tracer's per-invocation default.
    """
    bound = context.current_trace_id()
    if bound:
        return bound
    session = _session
    if session is not None:
        return session.tracer.trace_id
    return None


def span(name: str, **attrs: Any):
    """A tracing span context manager (no-op singleton when disabled)."""
    session = _session
    if session is None:
        return NULL_SPAN
    return session.tracer.span(name, **attrs)


def incr(name: str, amount: float = 1.0) -> None:
    """Increment a counter (no-op when disabled)."""
    session = _session
    if session is not None:
        session.metrics.counter(name).inc(amount)
        if session.stream is not None:
            session.stream.emit("counter", name=name, delta=amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    session = _session
    if session is not None:
        session.metrics.gauge(name).set(value)
        if session.stream is not None:
            session.stream.emit("gauge", name=name, value=float(value))


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    session = _session
    if session is not None:
        session.metrics.histogram(name).observe(value)
        if session.stream is not None:
            session.stream.emit("observe", name=name, value=float(value))


def event(name: str, **fields: Any) -> None:
    """Emit a structured event to the telemetry stream (else no-op).

    Events are for one-off operational facts — a shed request, a task
    retry, a pool rebuild — where a bare counter loses the context
    (which app, what attempt) an investigation needs. They only exist
    on the stream; counters remain the aggregate view.
    """
    session = _session
    if session is not None and session.stream is not None:
        session.stream.emit("event", name=name, fields=fields)


def graft_spans(records) -> None:
    """Replay span records from a worker process (no-op when disabled).

    ``records`` is a list of span records as produced by
    :meth:`~repro.obs.tracer.Tracer.records` in the worker's session.
    """
    session = _session
    if session is not None and records:
        session.tracer.graft(records)


def merge_counters(counters) -> None:
    """Fold a worker's ``{name: value}`` counter snapshot into this
    session's registry (no-op when disabled)."""
    session = _session
    if session is not None and counters:
        for name, value in counters.items():
            incr(name, value)

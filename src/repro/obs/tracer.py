"""Span-based tracer with nesting, monotonic timings, and trace IDs.

The tracer keeps an explicit stack of open spans *per thread*; a span
entered while another is open on the same thread becomes its child
(``parent_id`` links them, and the parent's ``child_time`` grows by the
child's duration on exit). Finished spans land on :attr:`Tracer.spans`
in completion order, ready for the run-report aggregator, unless the
tracer was made with ``keep_spans=False``: a session that only feeds
histograms and a stream (the daemon's, or a CLI run without
``--profile``) hands each finished span to ``on_finish`` and keeps
none, so its memory does not grow with every request.

Threading model: span *nesting* is thread-local (each thread nests its
own spans — the serving daemon's handler threads each build their own
request subtree), while span-ID allocation and the finished-span list
are guarded by one small lock so concurrent threads never corrupt
shared state. The single-threaded pipeline pays one uncontended lock
acquire per span boundary, which is noise next to the measured work.

Trace IDs: every pushed span is stamped with the current thread's
trace ID (:func:`repro.obs.context.current_trace_id` — what the daemon
binds per request) or, failing that, the tracer-wide default
:attr:`Tracer.trace_id` (what the CLI mints per invocation). Grafted
worker spans keep the trace ID they were recorded under, so a
request's spans share one ID across process boundaries.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.obs import context
from repro.obs.spans import Span


class Tracer:
    """Creates, nests, and collects :class:`~repro.obs.spans.Span`.

    Args:
        on_finish: optional callback invoked with each finished span —
            the obs session uses it to feed per-span duration
            histograms into the metrics registry (and the telemetry
            stream, when one is attached).
        trace_id: default trace ID stamped on spans recorded while no
            thread-local trace scope is bound (the CLI's per-invocation
            root ID). None leaves unscoped spans untraced.
        keep_spans: whether finished spans are kept on :attr:`spans`.
    """

    def __init__(self, on_finish: Optional[Callable[[Span], None]] = None,
                 trace_id: Optional[str] = None, keep_spans: bool = True):
        self.spans: List[Span] = []
        self.keep_spans = keep_spans
        self.trace_id = trace_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = perf_counter()
        self._next_id = 1
        self._on_finish = on_finish

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's stack of open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _collect(self, span: Span) -> None:
        if self.keep_spans:
            with self._lock:
                self.spans.append(span)
        if self._on_finish is not None:
            self._on_finish(span)

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span, to be used as a context manager."""
        return Span(self, name, attrs)

    # -- span lifecycle (called by Span.__enter__/__exit__) -----------------

    def _push(self, span: Span) -> None:
        stack = self._stack
        span.span_id = self._allocate_id()
        span.parent_id = stack[-1].span_id if stack else None
        span.trace_id = context.current_trace_id() or self.trace_id
        stack.append(span)
        span._t0 = perf_counter()
        span.start = span._t0 - self._epoch

    def _pop(self, span: Span) -> None:
        span.duration = perf_counter() - span._t0
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mismatched exit: drop abandoned children
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if stack:
            stack[-1].child_time += span.duration
        self._collect(span)

    # -- cross-process replay ----------------------------------------------

    def graft(self, records: List[Dict[str, Any]]) -> List[Span]:
        """Append pre-timed span records from another tracer.

        The parallel engine runs analyzers in worker processes, each with
        its own session; the workers ship their finished spans back as
        span records (:meth:`records`) and the parent grafts them here
        so ``--profile`` and ``--stream`` see one unified tree. Span ids
        are remapped into this tracer's id space, records whose parent is
        outside the shipment hang off the currently open span, and starts
        are shifted so the subtree sits at the current wall position.
        Parent ``child_time`` is reconstructed from the shipped tree so
        self-time accounting stays truthful. A shipped record's trace ID
        survives the graft; records shipped without one inherit the
        attach point's (so worker spans always join the request or run
        that scheduled them).
        """
        id_map: Dict[int, int] = {}
        grafted: Dict[int, Span] = {}
        stack = self._stack
        attach_parent = stack[-1] if stack else None
        inherited = None
        if attach_parent is not None:
            inherited = attach_parent.trace_id
        if inherited is None:
            inherited = context.current_trace_id() or self.trace_id
        offset = self.wall_seconds - min(
            (r["start"] for r in records), default=0.0
        )
        out: List[Span] = []
        for record in records:
            span = Span(self, record["name"], dict(record.get("attrs", {})))
            span.span_id = self._allocate_id()
            id_map[record["span_id"]] = span.span_id
            grafted[span.span_id] = span
            parent = record.get("parent")
            if parent is not None and parent in id_map:
                span.parent_id = id_map[parent]
                grafted[span.parent_id].child_time += record["duration"]
            else:
                span.parent_id = (
                    attach_parent.span_id if attach_parent else None
                )
                if attach_parent is not None:
                    attach_parent.child_time += record["duration"]
            span.trace_id = record.get("trace_id") or inherited
            span.start = record["start"] + offset
            span.duration = record["duration"]
            self._collect(span)
            out.append(span)
        return out

    # -- introspection ------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Monotonic seconds since this tracer was created."""
        return perf_counter() - self._epoch

    @property
    def open_spans(self) -> int:
        """Spans currently entered but not yet exited (this thread)."""
        return len(self._stack)

    def spans_named(self, name: str) -> List[Span]:
        """All finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def records(self) -> List[Dict[str, Any]]:
        """Finished spans as span records, ordered by start time."""
        return [s.to_dict() for s in sorted(self.spans, key=lambda s: s.start)]

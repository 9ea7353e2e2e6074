"""Span primitives: the timed unit of work the tracer records.

A :class:`Span` is a context manager handed out by
:class:`~repro.obs.tracer.Tracer`; entering starts the clock, exiting
stops it and hands the finished span back to the tracer. When tracing is
disabled the module-level :data:`NULL_SPAN` singleton stands in — it has
no state and its enter/exit are empty methods, so instrumented hot paths
pay only one attribute lookup and a call.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Span:
    """One timed operation, used as a context manager.

    Timings are monotonic (``time.perf_counter``): ``start`` is seconds
    since the owning tracer's epoch, ``duration`` is wall seconds spent
    inside the ``with`` block, and ``child_time`` accumulates the
    duration of directly nested spans so ``self_time`` isolates the time
    this span spent in its own code.
    """

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "start",
                 "duration", "attrs", "child_time", "_tracer", "_t0")

    def __init__(self, tracer, name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.trace_id: Optional[str] = None
        self.start = 0.0
        self.duration = 0.0
        self.child_time = 0.0
        self._t0 = 0.0

    @property
    def self_time(self) -> float:
        """Duration minus the time spent in directly nested spans."""
        return max(self.duration - self.child_time, 0.0)

    def set_attr(self, key: str, value: Any) -> "Span":
        """Attach one attribute; chainable."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        """The span record (one ``span`` event in the telemetry stream)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, duration={self.duration:.6f})")


class NullSpan:
    """Do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    duration = 0.0
    self_time = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> "NullSpan":
        return self


#: Shared no-op span; one instance serves every disabled call site.
NULL_SPAN = NullSpan()

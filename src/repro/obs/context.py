"""Request-scoped trace context: trace IDs and their propagation.

A *trace ID* names one logical request end to end — every span recorded
while a request is in flight carries the same 32-hex-char ID, whichever
thread or worker process records it, so a streamed trace stitches into
per-request trees instead of one undifferentiated run.

Two propagation seams live here:

- **Inbound/outbound HTTP** — :func:`parse_traceparent` /
  :func:`format_traceparent` speak the W3C ``traceparent`` header
  (``00-<32 hex trace>-<16 hex span>-<2 hex flags>``), so the daemon
  honours a caller-minted trace and callers can follow the daemon's.
- **In-process** — :func:`trace_scope` binds a trace ID to the current
  thread; :class:`~repro.obs.tracer.Tracer` stamps it on every span
  pushed while the scope is open. The binding is thread-local, so
  concurrent daemon handler threads each trace their own request.

The CLI needs neither: an observed ``repro`` run mints one root ID per
invocation and sets it as the session tracer's default, which every
span (local or grafted from a worker) inherits.
"""

from __future__ import annotations

import os
import re
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

#: ``traceparent`` shape this module accepts (version 00, the only one
#: published): version - trace-id - parent span id - flags.
_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

#: An all-zero trace ID is invalid per the W3C spec.
_ZERO_TRACE = "0" * 32

_local = threading.local()


def new_trace_id() -> str:
    """A fresh random 32-hex-char (128-bit) trace ID."""
    trace_id = os.urandom(16).hex()
    # Collision with the forbidden all-zero ID is a 2^-128 event, but
    # the spec says never emit it, so regenerate rather than hope.
    while trace_id == _ZERO_TRACE:  # pragma: no cover - astronomically rare
        trace_id = os.urandom(16).hex()
    return trace_id


def parse_traceparent(value: Optional[str]) -> Optional[str]:
    """The trace ID carried by a ``traceparent`` header, or None.

    Anything malformed (wrong version, bad lengths, uppercase hex, the
    all-zero trace) is rejected by returning None — the caller then
    mints a fresh ID, which is the failure mode the W3C spec asks for.
    """
    if not value or not isinstance(value, str):
        return None
    match = _TRACEPARENT.match(value.strip())
    if match is None:
        return None
    trace_id = match.group(1)
    if trace_id == _ZERO_TRACE or match.group(2) == "0" * 16:
        return None
    return trace_id


def format_traceparent(trace_id: str, span_id: int = 1) -> str:
    """A ``traceparent`` header value for ``trace_id``.

    ``span_id`` is the tracer's integer span ID for the request's root
    span, rendered into the 16-hex parent-id field. The default (1) is
    a filler for when tracing is disabled and no real span exists —
    spec-valid (the all-zero parent-id is forbidden), and the trace ID
    is the part callers correlate on anyway.
    """
    return f"00-{trace_id}-{span_id & (2 ** 64 - 1):016x}-01"


def current_trace_id() -> Optional[str]:
    """The trace ID bound to the current thread, or None."""
    return getattr(_local, "trace_id", None)


@contextmanager
def trace_scope(trace_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``trace_id`` to the current thread for the ``with`` body.

    Scopes nest (the previous binding is restored on exit) and binding
    None is allowed — it temporarily clears the thread's trace, which
    keeps the context manager usable unconditionally at call sites.
    """
    previous = getattr(_local, "trace_id", None)
    _local.trace_id = trace_id
    try:
        yield trace_id
    finally:
        _local.trace_id = previous

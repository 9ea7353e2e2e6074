"""The telemetry stream: a rotating JSONL event file, the only one.

The stream writes events *as they happen*, so a long-lived daemon's
telemetry is observable while it runs and survives a crash up to the
last flushed line. Every finished span is one ``span`` event, so the
stream also carries the run's whole trace, and the daemon's
``serve.request`` span events are its per-request access records.
Consumers are ``repro monitor`` (tail + render), ``repro slo-check``
(replay + evaluate), and anything that can read JSON lines.

Event schema (stable; stamped with ``telemetry_version`` so consumers
can detect shape changes):

    {"v": 1, "ts": <unix seconds>, "type": "span",
     "span": {"name": str, "span_id": int, "parent": int | null,
              "trace_id": str | null, "start": float,
              "duration": float, "attrs": {…}}}
    {"v": 1, "ts": ..., "type": "counter", "name": str, "delta": float}
    {"v": 1, "ts": ..., "type": "gauge",   "name": str, "value": float}
    {"v": 1, "ts": ..., "type": "observe", "name": str, "value": float}
    {"v": 1, "ts": ..., "type": "event",   "name": str, "fields": {…}}

In a ``span`` record, ``start`` is monotonic seconds since the
tracer's epoch, ``duration`` is seconds inside the span, ``parent``
links a nested span to its enclosing span's ``span_id``, and
``trace_id`` groups every span of one logical request (or one CLI
invocation) under a shared 32-hex-char ID. Span events land in
completion order, so a parent follows its children.

``counter`` events carry *deltas* (one per increment), not totals —
replaying a stream from any starting generation yields correct totals
for the replayed window, and concurrent increments from handler
threads serialise through the writer lock without ever publishing a
torn running total.

Durability: each event is serialised to one line and written with a
single ``os.write`` to an append-mode descriptor — the flush *is* the
write, so readers (and crash post-mortems) see whole lines only.
Size-based rotation caps the live file: when a write would push it
past ``max_bytes``, the live file rotates to ``path.1`` (older
generations shift up, the oldest falls off) before the write lands.
:func:`read_events` reassembles generations oldest-first.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Bump on any breaking change to the event shapes above.
TELEMETRY_VERSION = 1

#: Default live-file bound before rotation (64 MiB).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Default rotated generations kept next to the live file.
DEFAULT_KEEP = 3

#: Event types a valid stream may carry.
EVENT_TYPES = ("span", "counter", "gauge", "observe", "event")

#: Keys every ``span`` event's record carries.
SPAN_RECORD_KEYS = ("name", "span_id", "parent", "trace_id", "start",
                    "duration", "attrs")


def _sanitise(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def span_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """One span's record with JSON-safe attribute values."""
    record = dict(record)
    record["attrs"] = _sanitise(record.get("attrs", {}))
    return record


def rotate_files(path: str, keep: int = 3) -> None:
    """Shift ``path`` into numbered generations (``path.1`` newest).

    ``path.<keep>`` falls off the end; each younger generation moves up
    one slot; the live file becomes ``path.1``. Missing generations are
    skipped silently, so rotation is safe to call on any state.
    """
    if keep < 1:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return
    try:
        os.remove(f"{path}.{keep}")
    except FileNotFoundError:
        pass
    for gen in range(keep - 1, 0, -1):
        try:
            os.replace(f"{path}.{gen}", f"{path}.{gen + 1}")
        except FileNotFoundError:
            continue
    try:
        os.replace(path, f"{path}.1")
    except FileNotFoundError:
        pass


class TelemetryStream:
    """Append-only, size-rotated JSONL event sink (thread-safe).

    Args:
        path: live stream file; rotated generations land at
            ``path.1`` … ``path.<keep>`` beside it.
        max_bytes: rotate before the live file would exceed this.
        keep: rotated generations retained (older ones fall off).
    """

    def __init__(self, path: str, max_bytes: int = DEFAULT_MAX_BYTES,
                 keep: int = DEFAULT_KEEP):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.path = path
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._size = 0

    # -- writer -------------------------------------------------------

    def _ensure_open(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            self._size = os.fstat(self._fd).st_size
        return self._fd

    def open(self) -> None:
        """Open (or create) the live file now; raises OSError if it
        cannot be, so a caller can refuse an unwritable path up front."""
        with self._lock:
            self._ensure_open()

    def emit(self, event_type: str, **payload: Any) -> None:
        """Append one event; never raises on I/O trouble.

        Telemetry must not take the instrumented program down: an
        OSError (disk full, path removed) drops the event silently and
        the next emit retries with a fresh descriptor.
        """
        event: Dict[str, Any] = {"v": TELEMETRY_VERSION,
                                 "ts": round(time.time(), 6),
                                 "type": event_type}
        event.update(payload)
        line = (json.dumps(event, sort_keys=True, default=repr)
                + "\n").encode("utf-8")
        with self._lock:
            try:
                fd = self._ensure_open()
                if self._size and self._size + len(line) > self.max_bytes:
                    os.close(fd)
                    self._fd = None
                    rotate_files(self.path, keep=self.keep)
                    fd = self._ensure_open()
                os.write(fd, line)
                self._size += len(line)
            except OSError:
                if self._fd is not None:
                    try:
                        os.close(self._fd)
                    except OSError:  # pragma: no cover - double fault
                        pass
                    self._fd = None

    def emit_span(self, record: Dict[str, Any]) -> None:
        """Append one finished span, given as its
        :meth:`~repro.obs.spans.Span.to_dict` record."""
        self.emit("span", span=span_record(record))

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:  # pragma: no cover - already closed
                    pass
                self._fd = None


# -- reader / replay --------------------------------------------------


def stream_files(path: str, include_rotated: bool = True) -> List[str]:
    """The stream's on-disk files, oldest generation first."""
    paths = [path]
    if include_rotated:
        generation = 1
        older = []
        while os.path.exists(f"{path}.{generation}"):
            older.append(f"{path}.{generation}")
            generation += 1
        paths = list(reversed(older)) + paths
    return [part for part in paths if os.path.exists(part)]


def read_events(path: str,
                include_rotated: bool = True) -> List[Dict[str, Any]]:
    """Parse a stream back into event dicts, oldest first.

    Torn or corrupt lines (a crash mid-write on a non-POSIX filesystem,
    a truncated copy) are skipped, not fatal — a telemetry reader must
    degrade, never block an investigation.
    """
    events: List[Dict[str, Any]] = []
    for part in stream_files(path, include_rotated=include_rotated):
        with open(part, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict) and "type" in event:
                    events.append(event)
    return events


def replay_registry(events: Iterable[Dict[str, Any]]) -> MetricsRegistry:
    """Reconstruct a metrics registry from a stream's events.

    Counter deltas re-accumulate, gauges take their last write,
    ``observe`` events refill histograms, and span events refill the
    per-span-name duration histograms a live session maintains — so an
    offline replay sees the same snapshot shape (and the same SLO
    verdicts) the live ``/metricz`` endpoint serves.
    """
    registry = MetricsRegistry()
    for event in events:
        kind = event.get("type")
        try:
            # Pull every field out *before* touching the registry, so a
            # malformed event cannot mint a zero-valued instrument.
            if kind == "counter":
                name, delta = event["name"], float(event["delta"])
                registry.counter(name).inc(delta)
            elif kind == "gauge":
                name, value = event["name"], float(event["value"])
                registry.gauge(name).set(value)
            elif kind == "observe":
                name, value = event["name"], float(event["value"])
                registry.histogram(name).observe(value)
            elif kind == "span":
                span = event["span"]
                name = f"span.{span['name']}.seconds"
                duration = float(span["duration"])
                registry.histogram(name).observe(duration)
        except (KeyError, TypeError, ValueError):
            continue  # malformed event: skip, keep replaying
    return registry


def replay_snapshot(path: str,
                    include_rotated: bool = True) -> Dict[str, Dict]:
    """A registry snapshot replayed straight from a stream file."""
    return replay_registry(
        read_events(path, include_rotated=include_rotated)).snapshot()

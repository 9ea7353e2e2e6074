"""Structured access log for the prediction daemon.

One JSON object per line, one line per finished request — method,
path, status, duration, trace ID, rows scored and the shed flag —
so production traffic can be joined against traces (by ``trace_id``)
and replayed into offline analysis without parsing free-text log
formats. Enabled by ``repro serve --access-log PATH``; the default
daemon writes no access log at all.

Writes are append-only and emitted as a single ``os.write`` per line
on an ``O_APPEND`` descriptor, so concurrent handler threads (and even
multiple daemons sharing a file) never interleave partial lines. A
failed write drops that line and the log keeps going — access logging
must never take down request serving.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Optional


class AccessLog:
    """Append-only JSONL access log (thread-safe, crash-tolerant)."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._fd: Optional[int] = None

    def _ensure_fd(self) -> int:
        if self._fd is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        return self._fd

    def log(self, **fields: Any) -> None:
        """Append one request record (a ``ts`` timestamp is added)."""
        record = {"ts": round(time.time(), 6)}
        record.update(fields)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            try:
                os.write(self._ensure_fd(), line.encode("utf-8"))
            except OSError:
                # Drop the line, drop the fd; the next request retries
                # with a fresh descriptor.
                self._close_fd()

    def _close_fd(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - double-close race
                pass
            self._fd = None

    def close(self) -> None:
        """Release the descriptor (idempotent)."""
        with self._lock:
            self._close_fd()

"""Metrics registry: counters, gauges, and summary histograms.

Instruments are created lazily by name (`registry.counter("x")` is
get-or-create) so call sites never need setup code. Histograms keep raw
observations and summarise on demand with count/total/mean/min/p50/p95/
max — the shape the run report renders and `BENCH_*.json` perf claims
will cite.

Instruments are thread-safe: the serving layer records request
counters and latency observations from `ThreadingHTTPServer` handler
threads, so `Counter.inc`, `Gauge.set`, and `Histogram.observe` each
take a per-instrument lock (and the registry locks instrument
creation). The single-threaded pipeline pays one uncontended lock
acquire per record, which is noise next to the measured work.

A recorder that may run *inside* one of those critical sections — the
garbage collector's callbacks fire on whichever allocation starts a
collection, the registry's own included — must not take a lock, so it
queues its increments with :meth:`MetricsRegistry.defer_incr`; they are
applied when the registry is next read.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import Dict, List, Sequence


def _percentile_sorted(data: Sequence[float], q: float) -> float:
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    Matches numpy's default ("linear") method; implemented locally so the
    hot recording path stays allocation-free and numpy-free.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    return _percentile_sorted(sorted(values), q)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """The histogram summary shape for a plain list of observations.

    Shared by live :class:`Histogram` instruments and the telemetry
    stream replay (which reconstructs summaries offline), so both paths
    produce byte-identical snapshot documents for the same data.
    """
    if not values:
        return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    data = sorted(values)
    total = sum(data)
    return {
        "count": len(data),
        "total": total,
        "mean": total / len(data),
        "min": data[0],
        "p50": _percentile_sorted(data, 50.0),
        "p95": _percentile_sorted(data, 95.0),
        "p99": _percentile_sorted(data, 99.0),
        "max": data[-1],
    }


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins; thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.value = value


class Histogram:
    """A distribution of observations with on-demand summaries."""

    __slots__ = ("name", "values", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def summary(self) -> Dict[str, float]:
        """count/total/mean/min/p50/p95/p99/max over the observations.

        Computed under the instrument lock, so a summary taken while
        handler threads are still observing (the ``/metricz`` endpoint
        does exactly that) sees a consistent snapshot — and a hot
        writer cannot outgrow a reader that summarises concurrently.
        """
        with self._lock:
            return summarise(self.values)


class MetricsRegistry:
    """Named instruments, created on first use (creation is locked)."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._deferred: deque = deque()

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            with self._lock:
                inst = self.counters.setdefault(name, Counter(name))
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self.gauges.setdefault(name, Gauge(name))
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self.histograms.setdefault(name, Histogram(name))
        return inst

    def defer_incr(self, name: str, amount: float) -> None:
        """Queue a counter increment without taking any lock.

        ``deque.append`` is atomic, so this is safe from a callback that
        interrupted a thread holding an instrument or registry lock. The
        increment lands in the counter at the next :meth:`snapshot`.
        """
        self._deferred.append((name, amount))

    def _apply_deferred(self) -> None:
        pending = self._deferred
        while True:
            try:
                name, amount = pending.popleft()
            except IndexError:  # drained (possibly by another reader)
                return
            self.counter(name).inc(amount)

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict dump of every instrument (JSON-serialisable)."""
        self._apply_deferred()
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }


# -- Prometheus text exposition ---------------------------------------

#: Characters Prometheus allows in a metric name after the first.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Default namespace every exposed metric is prefixed with.
PROMETHEUS_PREFIX = "repro_"

#: The content type ``GET /metricz`` serves for the text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Summary quantile lines emitted per histogram (label value, summary
#: key). Emitted only when the histogram has samples — a quantile of an
#: empty distribution is undefined, not zero.
_PROM_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def sanitize_metric_name(name: str) -> str:
    """``name`` coerced into Prometheus's ``[a-zA-Z_:][a-zA-Z0-9_:]*``.

    The registry's dotted names (``serve.predict.seconds``) become
    underscore-separated; any other invalid character also maps to an
    underscore, and a leading digit gains an underscore prefix so the
    result always starts with a legal character.
    """
    out = _PROM_INVALID.sub("_", name)
    if not out:
        return "_"
    if out[0].isdigit():
        out = "_" + out
    return out


def _prom_value(value: float) -> str:
    """A float rendered the way Prometheus text format expects."""
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_exposition(snapshot: Dict[str, Dict],
                          prefix: str = PROMETHEUS_PREFIX) -> str:
    """The registry snapshot as Prometheus text exposition (v0.0.4).

    Counters expose as ``<prefix><name>_total``, gauges as-is, and
    histograms as summaries (``{quantile="…"}`` series plus ``_sum``
    and ``_count``), all under ``prefix`` with dotted registry names
    sanitised to legal Prometheus names. Deterministic: names are
    emitted in the snapshot's (sorted) order, so two expositions of the
    same snapshot are byte-identical.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = prefix + sanitize_metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = prefix + sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        metric = prefix + sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} summary")
        if summary.get("count", 0):
            for label, key in _PROM_QUANTILES:
                if key in summary:
                    lines.append(
                        f'{metric}{{quantile="{label}"}} '
                        f"{_prom_value(summary[key])}")
        lines.append(f"{metric}_sum {_prom_value(summary.get('total', 0))}")
        lines.append(f"{metric}_count {_prom_value(summary.get('count', 0))}")
    return "\n".join(lines) + "\n"

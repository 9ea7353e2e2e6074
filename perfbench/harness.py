"""Statistics, failure accounting and result printing for every workload.

Nothing here imports the program under test, so the harness tests run
without it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import resource
import statistics
from collections import Counter
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond its cut.
MIN_BEYOND = 10


def max_supported_percentile(n: int) -> int:
    """The highest whole percentile with ``MIN_BEYOND`` samples beyond it.

    With nearest-rank percentiles the ``q``-th percentile of ``n``
    sorted samples is the one at rank ``ceil(q * n / 100)``, so
    ``n - rank`` samples lie beyond it. Returns 0 when ``n`` is too
    small to support any tail at all.
    """
    if n <= MIN_BEYOND:
        return 0
    q = (100 * (n - MIN_BEYOND)) // n
    while q > 0 and n - math.ceil(q * n / 100) < MIN_BEYOND:
        q -= 1
    return q


def min_samples_for(q: int) -> int:
    """The fewest samples for which percentile ``q`` is supported."""
    n = MIN_BEYOND + 1
    while max_supported_percentile(n) < q:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


class SpeedProbe:
    """A fixed pure-Python loop that gauges the host's current speed.

    On a shared host the same work can take half again as long from one
    minute to the next, and processor time swings with wall time. The
    benchmark times this probe right before and right after every
    operation and scales the operation's time by ``REFERENCE_S`` over
    the probe time: the time the operation would have taken on a host
    where the probe takes ``REFERENCE_S``. The probe runs no code of the
    program under test, so a change to the program moves the scaled
    times exactly as it moves the raw ones.
    """

    #: Probe time on the reference host (a quiet 2-core x86-64 VM,
    #: Python 3.11): scaled times read as times on that host.
    REFERENCE_S = 0.00125

    _TEXT = ("int handle(char *req) { int n = 4; if (n > 3) "
             "{ n = n + 1; } return n; }\n") * 100

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self._pattern = re.compile(r"\w+|\S")
        self._work()  # the first run compiles and warms
        self.times: List[float] = []

    def _work(self) -> int:
        counts: Dict[str, int] = {}
        tokens = [(m.group(), m.start()) for m in
                  self._pattern.finditer(self._TEXT)]
        for text, _ in tokens:
            if text[0].isalpha():
                counts[text] = counts.get(text, 0) + 1
        return len(tokens) + len(counts) + len(self._TEXT.split("\n"))

    def measure(self) -> float:
        """One probe time, with the collector paused.

        Paused so that the probe never pays for collecting the garbage
        the program's last operation left behind: that would tie the
        probe to the program's allocations.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self._clock()
            self._work()
            elapsed = self._clock() - start
        finally:
            if enabled:
                gc.enable()
        self.times.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        """Factor that maps a time between two probes to the reference."""
        return self.REFERENCE_S / ((before + after) / 2.0)

    def around(self, fn):
        """``fn()`` between two probes: (result, seconds, scale)."""
        before = self.measure()
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        return result, elapsed, self.scale(before, self.measure())


class Outcomes:
    """Latency samples and failures for one kind of operation.

    An operation either succeeds, adding one latency sample, or fails,
    adding one failure and no sample. An output check that fails after
    the fact turns a recorded success into a failure and withdraws its
    sample, so a failed check never counts as a latency. Samples are
    host-scaled (see :class:`SpeedProbe`); the raw wall times are kept
    alongside.
    """

    def __init__(self, name: str):
        self.name = name
        self._samples: Dict[Hashable, float] = {}
        self._raw: Dict[Hashable, float] = {}
        self.failures: Counter = Counter()

    def ok(self, op: Hashable, seconds: float, scale: float = 1.0) -> None:
        if op in self._samples:
            raise ValueError(f"operation {op!r} recorded twice")
        self._samples[op] = seconds * scale
        self._raw[op] = seconds

    def fail(self, op: Hashable, reason: str) -> None:
        self._samples.pop(op, None)
        self._raw.pop(op, None)
        self.failures[reason] += 1

    def check(self, op: Hashable, passed: bool, reason: str) -> None:
        """Apply one output check to a recorded operation."""
        if not passed:
            if op not in self._samples:
                raise KeyError(f"no successful operation {op!r} to check")
            self.fail(op, reason)

    @property
    def samples(self) -> List[float]:
        return list(self._samples.values())

    def ops(self) -> List[Hashable]:
        """The operations that succeeded, in the order they ran."""
        return list(self._samples)

    def sample_of(self, op: Hashable) -> Optional[float]:
        return self._samples.get(op)

    def raw_of(self, op: Hashable) -> Optional[float]:
        return self._raw.get(op)

    @property
    def succeeded(self) -> int:
        return len(self._samples)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def attempted(self) -> int:
        return self.succeeded + self.failed

    def p50_ms(self) -> float:
        return 1e3 * median(self.samples)

    def tail_ms(self, q: int) -> float:
        return 1e3 * percentile(self.samples, q)

    def describe(self) -> Dict[str, object]:
        """Median and highest supported tail, with the sample count."""
        n = self.succeeded
        out: Dict[str, object] = {"n": n, "failed": self.failed}
        if n:
            out["p50_ms"] = round(self.p50_ms(), 3)
            out["wall_p50_ms"] = round(1e3 * median(list(self._raw.values())),
                                       3)
            q = max_supported_percentile(n)
            if q:
                out[f"p{q}_ms"] = round(self.tail_ms(q), 3)
        if self.failures:
            out["failures"] = dict(self.failures)
        return out


def named_latencies(name: str, outcomes: Outcomes,
                    wanted_q: int) -> Dict[str, tuple]:
    """``NAME_p50_ms`` and the tail nearest ``wanted_q`` the count allows."""
    out = {f"{name}_p50_ms": (outcomes.p50_ms(), "ms")}
    q = min(wanted_q, max_supported_percentile(outcomes.succeeded))
    if q:
        out[f"{name}_p{q}_ms"] = (outcomes.tail_ms(q), "ms")
    return out


def per_kloc_ms(outcomes: Outcomes, kloc_of: Dict[Hashable, float]
                ) -> List[float]:
    """Each successful operation's time per kLoC of its input, in ms."""
    return [1e3 * outcomes.sample_of(op) / kloc_of[op]
            for op in outcomes.ops()]


def latency_metrics(outcomes: Outcomes, kloc_of: Dict[Hashable, float],
                    tail_q: int) -> Dict[str, tuple]:
    """The gated latency pair: median and tail of time per kLoC."""
    values = per_kloc_ms(outcomes, kloc_of)
    return {"p50_ms_per_kloc": (median(values), "ms/kLoC"),
            "tail_ms_per_kloc": (percentile(values, tail_q), "ms/kLoC")}


class Fingerprint:
    """One sha256 over every output byte of a run, in operation order."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, data: bytes) -> None:
        self._hash.update(len(data).to_bytes(8, "big"))
        self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def canonical_bytes(obj: object) -> bytes:
    """Stable bytes for a JSON-ready value (rows, records)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def close_cache(cache) -> None:
    """Close a feature cache's backend connection, if it keeps one."""
    close = getattr(cache.backend, "close", None)
    if close is not None:
        close()


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident memory of ``pid`` and its live children."""
    total_kb = 0
    for member in [pid] + child_pids(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def process_tree_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` and its live children."""
    ticks = 0
    for member in [pid] + child_pids(pid):
        try:
            with open(f"/proc/{member}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # After the parenthesised name come state, ppid, ...; utime and
        # stime are the 14th and 15th fields of the line.
        fields = stat[stat.rfind(")") + 2:].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            children.append(int(entry))
    return children


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(attempted: int, failed: int, correct: bool,
                metrics: Dict[str, Dict[str, object]]) -> str:
    """The final stdout line the benchmark contract asks for."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


class Window:
    """The measuring window: ``seconds`` long, stretched for sample count.

    ``more(done)`` is true until the window has run for ``seconds`` and
    ``done`` reaches ``min_ops`` (the count the workload's tail
    percentile needs). ``hard_cap`` seconds end it regardless, so a run
    on a badly slowed host still exits in time.
    """

    def __init__(self, seconds: float, min_ops: int, hard_cap: float,
                 clock=None):
        self._clock = clock or perf_counter
        self.seconds = float(seconds)
        self.min_ops = int(min_ops)
        self.hard_cap = float(hard_cap)
        self.started = self._clock()

    def elapsed(self) -> float:
        return self._clock() - self.started

    def more(self, done: int) -> bool:
        elapsed = self.elapsed()
        if elapsed >= self.hard_cap:
            return False
        return elapsed < self.seconds or done < self.min_ops


def hard_cap_for(seconds: float) -> float:
    """Window cap that keeps a whole run inside its exit deadline."""
    return min(max(2.0 * seconds, seconds + 20.0), 100.0)


class Context:
    """One run's arguments plus where it may write."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 root: str, work: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root  # the checkout: holds src/ and perfbench/
        self.work = work  # a scratch directory inside the checkout
        self.probe = SpeedProbe()

    def window(self, min_ops: int) -> Window:
        return Window(self.seconds, min_ops, hard_cap_for(self.seconds))


class Report:
    """Everything one workload run produced, for printing.

    ``gated`` holds the end-to-end metrics the benchmark definition
    lists (identical names on every workload); ``named`` the
    workload's own descriptive metrics, printed only; ``per_layer`` the
    traced metrics. Each metric maps to ``(value, unit)``.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.gated: Dict[str, tuple] = {}
        self.named: Dict[str, tuple] = {}
        self.per_layer: Dict[str, tuple] = {}
        self.outcomes: List[Outcomes] = []
        self.inputs: Dict[str, object] = {}
        self.fingerprint = ""
        self.notes: List[str] = []

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def shares(counts: Dict[str, int]) -> Dict[str, float]:
    total = sum(counts.values())
    return {key: round(value / total, 4) if total else 0.0
            for key, value in sorted(counts.items())}

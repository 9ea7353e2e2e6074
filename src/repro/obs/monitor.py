"""``repro monitor``: a live terminal dashboard over telemetry.

The renderer is a pure function from snapshots to text, so the
dashboard is unit-testable without a daemon or a TTY; the loop driver
polls a snapshot source (``GET /metricz`` on a live daemon, or a
telemetry stream file replayed on every tick), derives rates from
consecutive snapshots, evaluates the optional SLO rule set, and
repaints.

Sections: request throughput and error/shed rates, per-endpoint
latency percentiles, engine and cache health, and the SLO verdict —
the four numbers the ROADMAP's serving tier is judged on.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.report import shed_total
from repro.obs.slo import SloRule, evaluate_slos

#: ANSI "clear screen, cursor home" — the repaint between frames.
_CLEAR = "\x1b[2J\x1b[H"


def _rate(current: float, previous: Optional[float],
          elapsed: Optional[float]) -> str:
    if previous is None or not elapsed or elapsed <= 0:
        return "-"
    return f"{max(current - previous, 0.0) / elapsed:.1f}/s"


def _pct(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "-"
    return f"{100.0 * numerator / denominator:.1f}%"


def render_dashboard(
    snapshot: Dict[str, Dict],
    slo_rules: Sequence[SloRule] = (),
    source: str = "",
    previous: Optional[Dict[str, Dict]] = None,
    elapsed: Optional[float] = None,
    clock: Optional[float] = None,
) -> str:
    """One dashboard frame for ``snapshot`` (pure; deterministic).

    ``previous``/``elapsed`` turn counter totals into rates (first
    frame shows "-"); ``clock`` pins the header timestamp for tests.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    prev_counters = (previous or {}).get("counters", {})
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(clock if clock is not None else time.time()))
    lines: List[str] = [f"repro monitor — {source or 'snapshot'} — {stamp}"]

    requests = counters.get("serve.requests", 0.0)
    errors = counters.get("serve.errors", 0.0)
    shed = shed_total(counters)
    lines.append(
        f"requests  total={requests:g}  "
        f"rate={_rate(requests, prev_counters.get('serve.requests'), elapsed)}"
        f"  errors={errors:g} ({_pct(errors, requests)})"
        f"  shed={shed:g} ({_pct(shed, requests)})")

    latency = [(name, summary) for name, summary in histograms.items()
               if name.startswith("serve.") and name.endswith(".seconds")]
    if latency:
        lines.append("latency (ms)        p50      p95      p99      max"
                     "        n")
        for name, summary in latency:
            endpoint = "/" + name[len("serve."):-len(".seconds")]
            lines.append(
                f"  {endpoint:16s}"
                f" {summary.get('p50', 0) * 1e3:8.2f}"
                f" {summary.get('p95', 0) * 1e3:8.2f}"
                f" {summary.get('p99', 0) * 1e3:8.2f}"
                f" {summary.get('max', 0) * 1e3:8.2f}"
                f" {summary.get('count', 0):8g}")

    extracted = counters.get("engine.extracted", 0.0)
    failures = counters.get("engine.task_failures", 0.0)
    attempts = extracted + failures
    lines.append(
        f"engine    extracted={extracted:g}"
        f"  failures={failures:g} ({_pct(failures, attempts)})"
        f"  retries={counters.get('engine.task_retries', 0):g}"
        f"  pool_rebuilds={counters.get('engine.pool_rebuilds', 0):g}")

    row_hits = counters.get("engine.cache.hits", 0.0)
    row_misses = counters.get("engine.cache.misses", 0.0)
    file_hits = counters.get("engine.cache.file_hits", 0.0)
    file_misses = counters.get("engine.cache.file_misses", 0.0)
    lines.append(
        f"cache     rows hit={_pct(row_hits, row_hits + row_misses)}"
        f" ({row_hits:g}/{row_hits + row_misses:g})"
        f"  files hit={_pct(file_hits, file_hits + file_misses)}"
        f" ({file_hits:g}/{file_hits + file_misses:g})")

    if slo_rules:
        report = evaluate_slos(slo_rules, snapshot)
        lines.append("")
        lines.append(report.describe())
    return "\n".join(lines) + "\n"


def run_monitor(
    fetch: Callable[[], Dict[str, Dict]],
    slo_rules: Sequence[SloRule] = (),
    source: str = "",
    interval: float = 2.0,
    once: bool = False,
    out=None,
    clear: bool = True,
    max_frames: Optional[int] = None,
) -> int:
    """Poll ``fetch`` and repaint the dashboard until interrupted.

    ``once`` renders a single frame without clearing the screen (the
    scriptable mode CI and tests use); ``max_frames`` bounds the loop
    for tests. A fetch failure renders as an error frame and the loop
    keeps polling — a daemon restart must not kill the monitor.
    Returns the process exit code (0; Ctrl-C counts as a clean exit).
    """
    out = out if out is not None else sys.stdout
    previous: Optional[Dict[str, Dict]] = None
    previous_at: Optional[float] = None
    frames = 0
    try:
        while True:
            try:
                snapshot = fetch()
                now = time.monotonic()
                elapsed = (now - previous_at
                           if previous_at is not None else None)
                frame = render_dashboard(
                    snapshot, slo_rules=slo_rules, source=source,
                    previous=previous, elapsed=elapsed)
                previous, previous_at = snapshot, now
            except Exception as exc:
                frame = (f"repro monitor — {source} — "
                         f"fetch failed: {type(exc).__name__}: {exc}\n")
            if once:
                out.write(frame)
                return 0
            out.write(_CLEAR if clear else "")
            out.write(frame)
            out.flush()
            frames += 1
            if max_frames is not None and frames >= max_frames:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0

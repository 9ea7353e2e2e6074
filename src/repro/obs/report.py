"""Run-report formatter: the per-phase/per-analyzer time breakdown.

Aggregates finished spans by name into calls/total/self/mean/p95/max
rows, ranks them by self-time (time in the span's own code, excluding
nested spans) so the table answers "which analyzer dominates
wall-clock", and appends the registry's counters, gauges, and non-span
histograms. This is what ``--profile`` prints after a command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.spans import Span


@dataclass
class SpanStats:
    """Aggregate timing for all spans sharing one name."""

    name: str
    calls: int
    total: float       # summed durations (includes nested spans)
    self_total: float  # summed self-times (excludes nested spans)
    mean: float
    p95: float
    max: float


def aggregate_spans(spans: Sequence[Span]) -> List[SpanStats]:
    """Per-name aggregates, ranked by self-time (descending)."""
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    stats = []
    for name, group in by_name.items():
        durations = [s.duration for s in group]
        stats.append(SpanStats(
            name=name,
            calls=len(group),
            total=sum(durations),
            self_total=sum(s.self_time for s in group),
            mean=sum(durations) / len(group),
            p95=percentile(durations, 95.0),
            max=max(durations),
        ))
    stats.sort(key=lambda s: (-s.self_total, s.name))
    return stats


def format_span_table(spans: Sequence[Span]) -> str:
    """The per-phase/per-analyzer breakdown table."""
    stats = aggregate_spans(spans)
    if not stats:
        return "  (no spans recorded)"
    grand_self = sum(s.self_total for s in stats) or 1.0
    header = (f"  {'span':40s} {'calls':>6s} {'total s':>9s} {'self s':>9s}"
              f" {'mean ms':>9s} {'p95 ms':>9s} {'max ms':>9s} {'self%':>6s}")
    lines = [header]
    for s in stats:
        lines.append(
            f"  {s.name:40s} {s.calls:6d} {s.total:9.3f} {s.self_total:9.3f}"
            f" {s.mean * 1e3:9.2f} {s.p95 * 1e3:9.2f} {s.max * 1e3:9.2f}"
            f" {100.0 * s.self_total / grand_self:5.1f}%"
        )
    return "\n".join(lines)


def format_metrics(registry: MetricsRegistry) -> str:
    """Counters, gauges, and non-span histograms as report lines."""
    lines: List[str] = []
    snap = registry.snapshot()
    for name, value in snap["counters"].items():
        lines.append(f"  counter  {name:38s} {value:12g}")
    for name, value in snap["gauges"].items():
        lines.append(f"  gauge    {name:38s} {value:12g}")
    for name, summary in snap["histograms"].items():
        if name.startswith("span."):
            continue  # already covered by the span table
        lines.append(
            f"  histogram {name:37s} n={summary['count']:<5d}"
            f" mean={summary['mean']:.4g} p50={summary['p50']:.4g}"
            f" p95={summary['p95']:.4g} max={summary['max']:.4g}"
        )
    return "\n".join(lines) if lines else "  (no metrics recorded)"


def format_error_spans(spans: Sequence[Span]) -> str:
    """One line per span that finished with an ``error`` attribute.

    Spans record the exception type on abnormal exit (and the engine
    stamps failure kinds such as ``TaskTimeout`` on its per-app spans),
    so this section is the ``--profile`` view of what failed and where.
    Returns "" when no span errored, so reports of clean runs are
    unchanged.
    """
    lines = []
    for span in spans:
        if "error" not in span.attrs:
            continue
        detail = " ".join(
            f"{key}={span.attrs[key]}" for key in sorted(span.attrs)
            if key != "error"
        )
        lines.append(
            f"  {span.name:40s} {span.attrs['error']:<24s} {detail}".rstrip())
    return "\n".join(lines)


def shed_total(counters: Dict[str, float]) -> float:
    """Every ``serve.*.shed`` refusal: loop admission, engine pool."""
    return sum(value for name, value in counters.items()
               if name.startswith("serve.") and name.endswith(".shed"))


def format_serving_section(registry: MetricsRegistry) -> str:
    """Request/error/shed totals plus per-endpoint latency lines.

    Summarises the ``serve.*`` instruments the prediction daemon
    records (``serve.requests``/``serve.errors`` counters, every
    ``serve.*.shed`` refusal counter summed, ``serve.<endpoint>.seconds``
    histograms).
    Returns "" when the session saw no served traffic, so offline runs'
    reports are unchanged.
    """
    snap = registry.snapshot()
    if not any(name.startswith("serve.")
               for section in ("counters", "histograms")
               for name in snap[section]):
        return ""
    counters = snap["counters"]
    requests = counters.get("serve.requests", 0)
    errors = counters.get("serve.errors", 0)
    shed = shed_total(counters)
    lines = [f"  requests={requests:g} errors={errors:g} shed={shed:g}"]
    for name, summary in snap["histograms"].items():
        if not (name.startswith("serve.") and name.endswith(".seconds")):
            continue
        endpoint = name[len("serve."):-len(".seconds")]
        lines.append(
            f"  /{endpoint:12s} n={summary['count']:<5d}"
            f" mean={summary['mean'] * 1e3:.2f}ms"
            f" p50={summary['p50'] * 1e3:.2f}ms"
            f" p95={summary['p95'] * 1e3:.2f}ms"
            f" max={summary['max'] * 1e3:.2f}ms"
        )
    return "\n".join(lines)


def format_delta_section(registry: MetricsRegistry) -> str:
    """File-granular cache effectiveness for incremental extraction.

    Summarises the ``engine.cache.file_*`` counters (per-file record
    hits/misses/stores) and the ``engine.delta.*`` classification the
    scheduler derives from the per-app manifest (changed / added /
    removed / unchanged files). Returns "" when the session never took
    the incremental path, so cold and uncached runs' reports are
    unchanged.
    """
    counters = registry.snapshot()["counters"]
    if not any(name.startswith("engine.cache.file_")
               or name.startswith("engine.delta.")
               for name in counters):
        return ""
    file_hits = counters.get("engine.cache.file_hits", 0)
    file_misses = counters.get("engine.cache.file_misses", 0)
    file_stores = counters.get("engine.cache.file_stores", 0)
    probed = file_hits + file_misses
    reuse = 100.0 * file_hits / probed if probed else 0.0
    lines = [
        f"  file records: hits={file_hits:g} misses={file_misses:g}"
        f" stores={file_stores:g} reuse={reuse:.1f}%"
    ]
    classified = {
        kind: counters.get(f"engine.delta.files_{kind}", 0)
        for kind in ("changed", "added", "removed", "unchanged")
    }
    if any(classified.values()):
        lines.append(
            "  files vs last run: " + " ".join(
                f"{kind}={value:g}"
                for kind, value in classified.items()))
    return "\n".join(lines)


def format_gate_section(registry: MetricsRegistry) -> str:
    """Risk-gate activity: runs, breaches, watch re-assessments.

    Summarises the ``gate.*`` counters :func:`repro.gate.delta.
    build_gate_report` records and the ``watch.*`` counters the tree
    watcher adds on top. Returns "" when the session ran no gates, so
    non-gate runs' reports are unchanged.
    """
    counters = registry.snapshot()["counters"]
    if not any(name.startswith("gate.") or name.startswith("watch.")
               for name in counters):
        return ""
    runs = counters.get("gate.runs", 0)
    breaches = counters.get("gate.breaches", 0)
    lines = [f"  gates={runs:g} breaches={breaches:g}"]
    reassessments = counters.get("watch.reassessments", 0)
    if reassessments:
        recomputed = counters.get("watch.files_recomputed", 0)
        lines.append(
            f"  watch: reassessments={reassessments:g}"
            f" files_recomputed={recomputed:g}")
    return "\n".join(lines)


def format_run_report(session, title: str = "repro telemetry") -> str:
    """The full ``--profile`` report for one obs session."""
    tracer = session.tracer
    lines = [
        f"{title} — {len(tracer.spans)} spans,"
        f" {tracer.wall_seconds:.3f}s since start",
        "",
        "per-phase / per-analyzer breakdown (ranked by self-time):",
        format_span_table(tracer.spans),
        "",
        "metrics:",
        format_metrics(session.metrics),
    ]
    delta = format_delta_section(session.metrics)
    if delta:
        lines.extend(["", "delta:", delta])
    gate = format_gate_section(session.metrics)
    if gate:
        lines.extend(["", "gate:", gate])
    serving = format_serving_section(session.metrics)
    if serving:
        lines.extend(["", "serving:", serving])
    errors = format_error_spans(tracer.spans)
    if errors:
        lines.extend(["", "errors:", errors])
    return "\n".join(lines)

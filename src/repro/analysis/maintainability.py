"""Maintainability Index — the classic composite of the §3 metrics.

MI = 171 - 5.2*ln(Halstead volume) - 0.23*(cyclomatic) - 16.2*ln(LoC),
optionally with the comment bonus, normalised to [0, 100] as popularised
by Visual Studio. It is the original "weighted aggregation of multiple
metrics" — a fixed-weight ancestor of the paper's learned model, and a
useful single-number feature/baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.analysis import cyclomatic, halstead, loc
from repro.analysis.artifact import artifact_for
from repro.lang.sourcefile import Codebase, SourceFile


@dataclass(frozen=True)
class MaintainabilityReport:
    """MI for one scope (function, file, or codebase)."""

    name: str
    raw_mi: float  # the classic unbounded value
    comment_bonus: float

    @property
    def mi(self) -> float:
        """Normalised MI in [0, 100] (Visual Studio convention)."""
        value = (self.raw_mi + self.comment_bonus) * 100.0 / 171.0
        return max(0.0, min(100.0, value))

    @property
    def band(self) -> str:
        """Green (>= 20), yellow (>= 10), red — the common traffic light."""
        if self.mi >= 20.0:
            return "GREEN"
        if self.mi >= 10.0:
            return "YELLOW"
        return "RED"


def _raw_mi(volume: float, complexity: float, lines: float) -> float:
    safe_volume = max(volume, 1.0)
    safe_lines = max(lines, 1.0)
    return (
        171.0
        - 5.2 * math.log(safe_volume)
        - 0.23 * complexity
        - 16.2 * math.log(safe_lines)
    )


def _comment_bonus(comment_ratio: float) -> float:
    # 50 * sin(sqrt(2.4 * perCM)) — the classic (rarely loved) term.
    return 50.0 * math.sin(math.sqrt(2.4 * max(comment_ratio, 0.0)))


def measure_file(source: SourceFile) -> MaintainabilityReport:
    """MI for one file."""
    counts = loc.count_file(source)
    volume = halstead.measure_file(source).volume
    complexity = cyclomatic.file_complexity(source)
    return MaintainabilityReport(
        name=source.path,
        raw_mi=_raw_mi(volume, complexity, counts.code),
        comment_bonus=_comment_bonus(counts.comment_ratio),
    )


def measure_functions(source: SourceFile) -> List[MaintainabilityReport]:
    """Per-function MI reports for one file."""
    reports = []
    columns = source.columns
    for func in artifact_for(source).functions:
        lo, hi = func.body_start, func.body_end
        volume = halstead.measure_columns(
            columns.kinds[lo:hi], columns.texts[lo:hi]).volume
        complexity = cyclomatic.function_complexity(func, source)
        reports.append(
            MaintainabilityReport(
                name=f"{source.path}:{func.name}",
                raw_mi=_raw_mi(volume, complexity, func.length),
                comment_bonus=0.0,
            )
        )
    return reports


def report_from_aggregates(
    name: str,
    volume: float,
    complexity: float,
    code_lines: float,
    comment_ratio: float,
) -> MaintainabilityReport:
    """Build an MI report from already-aggregated inputs.

    The incremental-extraction merge phase computes Halstead volume,
    cyclomatic complexity, and line counts from summed per-file records;
    feeding them through the same formulas here yields the exact floats
    :func:`measure_codebase` would have produced on the full tree.
    """
    return MaintainabilityReport(
        name=name,
        raw_mi=_raw_mi(volume, complexity, code_lines),
        comment_bonus=_comment_bonus(comment_ratio),
    )


def measure_codebase(codebase: Codebase) -> MaintainabilityReport:
    """MI over a whole codebase (aggregated inputs, single formula)."""
    counts = loc.count_codebase(codebase)
    volume = halstead.measure_codebase(codebase).volume
    complexity = cyclomatic.codebase_complexity(codebase)
    return MaintainabilityReport(
        name=codebase.name,
        raw_mi=_raw_mi(volume, complexity, counts.code),
        comment_bonus=_comment_bonus(counts.comment_ratio),
    )


def worst_functions(codebase: Codebase, k: int = 10) -> List[MaintainabilityReport]:
    """The k least-maintainable functions across a codebase."""
    reports: List[MaintainabilityReport] = []
    for source in codebase:
        reports.extend(measure_functions(source))
    reports.sort(key=lambda r: r.mi)
    return reports[:k]

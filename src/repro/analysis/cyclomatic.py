"""McCabe cyclomatic complexity [47].

The complexity of a function is 1 plus the number of decision points in its
body: branching keywords, loop keywords, ``case`` labels, short-circuit
boolean operators, and the ternary operator (per language, the decision
token set lives on the :class:`~repro.lang.languages.LanguageSpec`).
A file's complexity is the sum over its functions plus 1 for any residual
top-level decision tokens; a codebase's complexity is the sum over files —
the same whole-program figure the paper plots in Figure 3.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.artifact import artifact_for
from repro.lang.parser import FunctionInfo
from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import Token, TokenKind


@dataclass(frozen=True)
class ComplexityReport:
    """Cyclomatic complexity of one function."""

    name: str
    start_line: int
    complexity: int


def decision_count(tokens: Iterable[Token], decision_tokens) -> int:
    """Number of decision points in a ``Token`` stream."""
    tokens = list(tokens)
    return decisions_in([t.kind for t in tokens], [t.text for t in tokens],
                        0, len(tokens), decision_tokens)


def decisions_in(kinds: Sequence[TokenKind], texts: Sequence[str], lo: int,
                 hi: int, decision_tokens) -> int:
    """Number of decision points among the column tokens ``lo:hi``."""
    keyword = TokenKind.KEYWORD
    operator = TokenKind.OPERATOR
    # KEYWORD/OPERATOR tokens are code by definition, so the kind test
    # alone also rejects every non-code token.
    return sum(1 for kind, text in zip(kinds[lo:hi], texts[lo:hi])
               if text in decision_tokens
               and (kind is keyword or kind is operator))


def function_complexity(func: FunctionInfo, source: SourceFile) -> int:
    """McCabe complexity of one function: decisions in its body + 1."""
    columns = source.columns
    return decisions_in(columns.kinds, columns.texts, func.body_start,
                        func.body_end, source.spec.decision_tokens) + 1


def file_complexities(source: SourceFile) -> List[ComplexityReport]:
    """Per-function complexity reports for a file, in source order."""
    return file_summary(source)[1]


def _decision_sites(source: SourceFile) -> List[int]:
    """Column indices of the file's decision tokens, ascending.

    Found in one pass, so counting the decisions in any token range is
    two bisections, however many function bodies nest around them.
    """
    columns = source.columns
    kinds = columns.kinds
    decision_tokens = source.spec.decision_tokens
    keyword = TokenKind.KEYWORD
    operator = TokenKind.OPERATOR
    return [i for i, text in enumerate(columns.texts)
            if text in decision_tokens
            and (kinds[i] is keyword or kinds[i] is operator)]


def _stray_decisions(source: SourceFile, functions: List[FunctionInfo],
                     sites: List[int]) -> int:
    """Decision tokens on lines outside every function's line extent.

    The extents are merged into disjoint line ranges. Tokens come in
    line order, so each range is one run of token indices (two
    bisections), and the decisions between runs are counted in
    ``sites`` (:func:`_decision_sites`).
    """
    lines = source.columns.lines
    ranges: List[List[int]] = []
    for lo, hi in sorted((f.start_line, f.end_line) for f in functions):
        if ranges and lo <= ranges[-1][1]:
            ranges[-1][1] = max(ranges[-1][1], hi)
        else:
            ranges.append([lo, hi])
    stray = 0
    gap_start = 0
    for lo, hi in ranges:
        inside = bisect_left(lines, lo, gap_start)
        stray += bisect_left(sites, inside) - bisect_left(sites, gap_start)
        gap_start = bisect_right(lines, hi, inside)
    return stray + len(sites) - bisect_left(sites, gap_start)


def file_complexity(source: SourceFile) -> int:
    """Total file complexity: sum over functions, min 1 for non-empty files.

    Decision tokens outside any recovered function (e.g. top-level Python
    code, macros) are counted once more so they are not silently dropped.
    """
    return file_summary(source)[0]


def file_summary(source: SourceFile) -> Tuple[int, List[ComplexityReport]]:
    """(file total, per-function reports), computing each complexity once."""
    functions = artifact_for(source).functions
    sites = _decision_sites(source)
    complexities = [
        bisect_left(sites, f.body_end) - bisect_left(sites, f.body_start) + 1
        for f in functions
    ]
    reports = [
        ComplexityReport(f.name, f.start_line, c)
        for f, c in zip(functions, complexities)
    ]
    reports.sort(key=lambda r: r.start_line)
    total = sum(complexities) + _stray_decisions(source, functions, sites)
    return total, reports


def codebase_complexity(codebase: Codebase) -> int:
    """Whole-program cyclomatic complexity (Figure 3's x-axis)."""
    return sum(file_complexity(source) for source in codebase)


def complexity_distribution(codebase: Codebase) -> Dict[str, float]:
    """Summary statistics of per-function complexity across a codebase.

    Returns mean/max/p90 and the share of functions exceeding McCabe's
    classic threshold of 10 — all of which feed the core feature vector.
    """
    return distribution_from_values(
        r.complexity for source in codebase for r in file_complexities(source))


def distribution_from_values(values: Iterable[int]) -> Dict[str, float]:
    """The :func:`complexity_distribution` statistics from raw values.

    Split out so the incremental-extraction merge phase can rebuild the
    distribution from concatenated per-file value lists and land on the
    exact floats a whole-codebase pass computes.
    """
    values = list(values)
    if not values:
        return {"mean": 0.0, "max": 0.0, "p90": 0.0, "over_10": 0.0}
    values.sort()
    mean = sum(values) / len(values)
    p90 = values[min(len(values) - 1, int(0.9 * len(values)))]
    over = sum(1 for v in values if v > 10) / len(values)
    return {"mean": mean, "max": float(values[-1]), "p90": float(p90), "over_10": over}

"""Identifier-quality metrics.

The code-smell literature the paper cites (§3) treats naming quality as a
bad-practice signal: single-letter names outside loop counters, cryptic
abbreviations, and low vocabulary diversity correlate with hard-to-review
code. These metrics quantify the identifier population of a codebase.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Counter as CounterT

from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import TokenKind

#: Names conventionally fine as single letters (loop counters etc.).
_CONVENTIONAL_SHORT = frozenset({"i", "j", "k", "n", "m", "x", "y", "z", "_"})


@dataclass(frozen=True)
class IdentifierMetrics:
    """Identifier-population statistics for a file or codebase."""

    n_occurrences: int
    n_distinct: int
    mean_length: float
    short_name_fraction: float  # 1-2 chars, excluding conventional counters
    numeric_suffix_fraction: float  # data2, buf3, ...: copy-paste smell
    entropy: float  # Shannon entropy of the identifier distribution (bits)

    @property
    def vocabulary_richness(self) -> float:
        """Distinct / total occurrences (type-token ratio)."""
        return self.n_distinct / self.n_occurrences if self.n_occurrences else 0.0


def _has_numeric_suffix(name: str) -> bool:
    return len(name) > 1 and name[-1].isdigit() and not name.isdigit()


def metrics_from_counts(counts) -> IdentifierMetrics:
    """Identifier metrics from a counter/mapping of identifier occurrences.

    The float sums follow the mapping's iteration order, so a merged
    counter must list its keys in the order a whole-codebase scan would
    (see :func:`file_counts`).
    """
    total = sum(counts.values())
    if total == 0:
        return IdentifierMetrics(0, 0, 0.0, 0.0, 0.0, 0.0)
    distinct = len(counts)
    mean_length = sum(len(name) * c for name, c in counts.items()) / total
    short = sum(
        c
        for name, c in counts.items()
        if len(name) <= 2 and name not in _CONVENTIONAL_SHORT
    )
    numeric = sum(c for name, c in counts.items() if _has_numeric_suffix(name))
    entropy = 0.0
    for c in counts.values():
        p = c / total
        entropy -= p * math.log2(p)
    return IdentifierMetrics(
        n_occurrences=total,
        n_distinct=distinct,
        mean_length=mean_length,
        short_name_fraction=short / total,
        numeric_suffix_fraction=numeric / total,
        entropy=entropy,
    )


def file_counts(source: SourceFile) -> CounterT[str]:
    """The identifier counter of one file, in first-occurrence order.

    Insertion order is part of the contract: merging per-file counters
    in path order recreates the codebase counter's key order exactly,
    which the float-summed statistics of :func:`metrics_from_counts`
    depend on for bit-identical results.
    """
    columns = source.columns
    ident = TokenKind.IDENT
    return Counter(text for kind, text in zip(columns.kinds, columns.texts)
                   if kind is ident)


def measure_file(source: SourceFile) -> IdentifierMetrics:
    """Identifier metrics for one file."""
    return metrics_from_counts(file_counts(source))


def measure_codebase(codebase: Codebase) -> IdentifierMetrics:
    """Identifier metrics over a whole codebase.

    Per-file counters are merged in path order (see :func:`file_counts`).
    """
    counts: CounterT[str] = Counter()
    for source in codebase:
        counts.update(file_counts(source))
    return metrics_from_counts(counts)

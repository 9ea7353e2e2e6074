"""Halstead complexity measures [37].

Halstead's software-science metrics derive from four token counts:
distinct operators (n1), distinct operands (n2), total operators (N1), and
total operands (N2). From these we compute vocabulary, length, volume,
difficulty, effort, estimated time, and Halstead's famous "delivered bugs"
estimate B = V / 3000 — one of the earliest attempts at exactly the kind of
defect prediction the paper generalises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import OPERAND_KINDS, OPERATOR_KINDS, Token, TokenKind


@dataclass(frozen=True)
class HalsteadMetrics:
    """The full Halstead measure set for a token stream."""

    distinct_operators: int
    distinct_operands: int
    total_operators: int
    total_operands: int

    @property
    def vocabulary(self) -> int:
        """n = n1 + n2."""
        return self.distinct_operators + self.distinct_operands

    @property
    def length(self) -> int:
        """N = N1 + N2."""
        return self.total_operators + self.total_operands

    @property
    def estimated_length(self) -> float:
        """N^ = n1*log2(n1) + n2*log2(n2)."""
        n1, n2 = self.distinct_operators, self.distinct_operands
        est = 0.0
        if n1 > 0:
            est += n1 * math.log2(n1)
        if n2 > 0:
            est += n2 * math.log2(n2)
        return est

    @property
    def volume(self) -> float:
        """V = N * log2(n)."""
        if self.vocabulary == 0:
            return 0.0
        return self.length * math.log2(self.vocabulary)

    @property
    def difficulty(self) -> float:
        """D = (n1/2) * (N2/n2)."""
        if self.distinct_operands == 0:
            return 0.0
        return (self.distinct_operators / 2.0) * (
            self.total_operands / self.distinct_operands
        )

    @property
    def effort(self) -> float:
        """E = D * V."""
        return self.difficulty * self.volume

    @property
    def time_seconds(self) -> float:
        """T = E / 18 (Stroud number)."""
        return self.effort / 18.0

    @property
    def estimated_bugs(self) -> float:
        """B = V / 3000 — Halstead's delivered-bug estimate."""
        return self.volume / 3000.0

    def __add__(self, other: "HalsteadMetrics") -> "HalsteadMetrics":
        """Aggregate two measures.

        Distinct counts are not additive in general; summing them gives the
        standard per-file-summed approximation used by metric suites like
        CCCC when reporting project totals.
        """
        return HalsteadMetrics(
            distinct_operators=self.distinct_operators + other.distinct_operators,
            distinct_operands=self.distinct_operands + other.distinct_operands,
            total_operators=self.total_operators + other.total_operators,
            total_operands=self.total_operands + other.total_operands,
        )


_EMPTY = HalsteadMetrics(0, 0, 0, 0)


def measure_tokens(tokens: Iterable[Token]) -> HalsteadMetrics:
    """Compute Halstead counts over a ``Token`` stream."""
    tokens = list(tokens)
    return measure_columns([t.kind for t in tokens], [t.text for t in tokens])


def measure_columns(kinds: Sequence[TokenKind], texts: Sequence[str]
                    ) -> HalsteadMetrics:
    """Compute Halstead counts over parallel kind/text columns.

    Keywords, operators, and punctuation are operators; identifiers and
    literals are operands. Comments/newlines are ignored.
    """
    operators: set = set()
    operands: set = set()
    n_operators = 0
    n_operands = 0
    for kind, text in zip(kinds, texts):
        if kind in OPERATOR_KINDS:
            operators.add(text)
            n_operators += 1
        elif kind in OPERAND_KINDS:
            operands.add(text)
            n_operands += 1
    return HalsteadMetrics(
        distinct_operators=len(operators),
        distinct_operands=len(operands),
        total_operators=n_operators,
        total_operands=n_operands,
    )


def measure_file(source: SourceFile) -> HalsteadMetrics:
    """Halstead measures for one source file."""
    columns = source.columns
    return measure_columns(columns.kinds, columns.texts)


def measure_codebase(codebase: Codebase) -> HalsteadMetrics:
    """Per-file-summed Halstead measures for a whole codebase."""
    total = _EMPTY
    for source in codebase:
        total = total + measure_file(source)
    return total

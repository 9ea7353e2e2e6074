"""Line-of-code counting (a ``cloc`` equivalent).

The paper computes LoC with cloc [29] and uses it both as the x-axis of
Figure 2 and as a core feature of the prediction model. This module
classifies every physical line of a file as code, comment, or blank using
the code-token columns and their comment side list (so string literals
containing ``//`` are not miscounted as comments), and aggregates per
file, per language, and per codebase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.lang.sourcefile import Codebase, SourceFile


@dataclass(frozen=True)
class LineCounts:
    """Classified line counts for a file, language, or whole codebase."""

    code: int = 0
    comment: int = 0
    blank: int = 0
    preproc: int = 0

    @property
    def total(self) -> int:
        """Total physical lines."""
        return self.code + self.comment + self.blank

    @property
    def comment_ratio(self) -> float:
        """Comment lines as a fraction of comment+code lines."""
        denom = self.code + self.comment
        return self.comment / denom if denom else 0.0

    def __add__(self, other: "LineCounts") -> "LineCounts":
        return LineCounts(
            code=self.code + other.code,
            comment=self.comment + other.comment,
            blank=self.blank + other.blank,
            preproc=self.preproc + other.preproc,
        )


def count_file(source: SourceFile) -> LineCounts:
    """Classify each physical line of ``source``.

    A line containing any code token is a code line (even if it also holds
    a trailing comment, matching cloc's convention); a line containing only
    comment tokens is a comment line; otherwise it is blank. Preprocessor
    lines are counted as code and also tallied separately.
    """
    n_lines = len(source.lines)
    columns = source.columns

    def spanned(marks) -> set:
        """Lines ``line .. line + text.count("\n")`` of each mark."""
        covered: set = set()
        for line, text in marks:
            covered.update(range(line, line + text.count("\n") + 1))
        return covered

    def clipped(lines: set) -> set:
        """``lines`` within the file's physical lines (all are >= 1)."""
        if max(lines, default=0) <= n_lines:
            return lines
        return {ln for ln in lines if ln <= n_lines}

    # Every code token marks its start line; only strings and directives
    # can run on to later lines (the side lists hold those).
    is_preproc = clipped(spanned(columns.directives))
    has_code = clipped(set(columns.lines)
                       | spanned(columns.multiline_strings)) | is_preproc
    comment_only = clipped(spanned(columns.comments)) - has_code
    code, comment = len(has_code), len(comment_only)
    return LineCounts(code=code, comment=comment,
                      blank=n_lines - code - comment, preproc=len(is_preproc))


def count_codebase(codebase: Codebase) -> LineCounts:
    """Aggregate line counts over every file in ``codebase``."""
    total = LineCounts()
    for source in codebase:
        total = total + count_file(source)
    return total


def count_by_language(codebase: Codebase) -> Dict[str, LineCounts]:
    """Per-language aggregate line counts, keyed by language name."""
    per_lang: Dict[str, LineCounts] = {}
    for source in codebase:
        counts = count_file(source)
        per_lang[source.language] = per_lang.get(source.language, LineCounts()) + counts
    return per_lang


def kloc(codebase: Codebase) -> float:
    """Thousands of code lines — the unit of Figure 2's x-axis."""
    return count_codebase(codebase).code / 1000.0

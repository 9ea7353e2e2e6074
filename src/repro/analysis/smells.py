"""Code-smell counts [45, 46, 49, 55, 58, 64, 65, 68].

"Symptoms or patterns of bad coding practice" (§3): long methods, long
parameter lists, deep nesting, god files, magic numbers, commented-out
code, TODO markers, duplicated line windows, and over-long lines. The
feature vector only consumes per-kind counts, so :func:`file_counts`
computes exactly those in one sweep per view (function table, code-token
columns, comments, lines) and never builds a per-hit object.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.artifact import artifact_for
from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import TokenKind

# -- thresholds (classic values from the smell literature) -------------------
LONG_METHOD_LINES = 60
LONG_PARAMETER_LIST = 5
DEEP_NESTING = 4
GOD_FILE_LINES = 1000
LONG_LINE_COLUMNS = 120
DUPLICATE_WINDOW = 6

#: The smell kinds, in the order every count dict lists them.
ALL_DETECTORS = (
    "long-method",           # function longer than LONG_METHOD_LINES lines
    "long-parameter-list",   # more than LONG_PARAMETER_LIST parameters
    "deep-nesting",          # nested deeper than DEEP_NESTING levels
    "god-file",              # file longer than GOD_FILE_LINES lines
    "magic-number",          # numeric literal not in _TRIVIAL_NUMBERS
    "todo-comment",          # comment holding one of _TODO_MARKERS
    "commented-out-code",    # comment whose body reads like a statement
    "long-line",             # line longer than LONG_LINE_COLUMNS columns
    "duplicate-code",        # repeat of an earlier DUPLICATE_WINDOW window
)

#: Magic-number check: every NUMBER token counts unless its text, with
#: trailing integer/float suffixes (``uUlLfF``) stripped, is one of these.
#: Declarations are not exempt. A sign is its own operator token, so
#: ``-1`` is trivial as its ``1``; ``0x10`` and ``1e2`` are magic.
_TRIVIAL_NUMBERS = frozenset({"0", "1", "2", "0.0", "1.0", "10", "100"})
_TODO_MARKERS = ("TODO", "FIXME", "XXX", "HACK")
_CODE_PREFIXES = ("if (", "for (", "while (", "return ")


def file_counts(source: SourceFile) -> Dict[str, int]:
    """Per-kind smell counts for one file, keyed in ``ALL_DETECTORS`` order."""
    functions = artifact_for(source).functions

    # Magic numbers from the code tokens; TODO markers and commented-out
    # code from the comments. A comment is disabled code when its body —
    # one leading line-comment marker and any trailing ``*/`` removed — is
    # longer than four characters and ends in ';' or '{' or opens with a
    # control keyword.
    columns = source.columns
    number = TokenKind.NUMBER
    magic = sum(1 for kind, text in zip(columns.kinds, columns.texts)
                if kind is number
                and text.rstrip("uUlLfF") not in _TRIVIAL_NUMBERS)
    line_markers = source.spec.line_comment
    todo = commented = 0
    for _, body in columns.comments:
        upper = body.upper()
        if any(marker in upper for marker in _TODO_MARKERS):
            todo += 1
        for marker in line_markers:
            if body.startswith(marker):
                body = body[len(marker):]
                break
        body = body.strip().rstrip("*/").strip()
        if len(body) > 4 and (body.endswith((";", "{"))
                              or body.startswith(_CODE_PREFIXES)):
            commented += 1

    # Duplicate windows of DUPLICATE_WINDOW non-blank stripped lines:
    # every window after the first of its kind is a repeat, so the count
    # is the number of windows less the number of distinct ones.
    lines = source.lines
    meaningful = list(filter(None, map(str.strip, lines)))
    windows = len(meaningful) - DUPLICATE_WINDOW + 1
    duplicates = 0
    if windows > 1:
        shifted = [meaningful[k:] for k in range(DUPLICATE_WINDOW)]
        duplicates = windows - len(set(zip(*shifted)))

    return {
        "long-method": sum(
            1 for f in functions if f.length > LONG_METHOD_LINES),
        "long-parameter-list": sum(
            1 for f in functions if f.param_count > LONG_PARAMETER_LIST),
        "deep-nesting": sum(
            1 for f in functions if f.max_nesting > DEEP_NESTING),
        "god-file": int(len(lines) > GOD_FILE_LINES),
        "magic-number": magic,
        "todo-comment": todo,
        "commented-out-code": commented,
        "long-line": sum(
            1 for line in lines if len(line) > LONG_LINE_COLUMNS),
        "duplicate-code": duplicates,
    }


def smell_counts(codebase: Codebase) -> Dict[str, int]:
    """Per-kind smell counts summed over ``codebase``."""
    counts = dict.fromkeys(ALL_DETECTORS, 0)
    for source in codebase:
        for kind, n in file_counts(source).items():
            counts[kind] += n
    return counts

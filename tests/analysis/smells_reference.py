"""Test-only reference copy of the per-hit smell detectors.

The product computes smell counts in one sweep
(:func:`repro.analysis.smells.file_counts`). These are the earlier
per-detector functions, kept verbatim so tests can pin the listing
behaviour (``detail`` strings, sort order) and check the counting sweep
against an independent implementation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.analysis.smells import (
    DEEP_NESTING,
    DUPLICATE_WINDOW,
    GOD_FILE_LINES,
    LONG_LINE_COLUMNS,
    LONG_METHOD_LINES,
    LONG_PARAMETER_LIST,
)
from repro.lang.parser import extract_functions
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import TokenKind


@dataclass(frozen=True)
class Smell:
    """One detected code smell."""

    kind: str
    path: str
    line: int
    detail: str


def long_methods(source: SourceFile, functions=None) -> List[Smell]:
    """Functions longer than LONG_METHOD_LINES physical lines."""
    if functions is None:
        functions = extract_functions(source)
    return [
        Smell("long-method", source.path, f.start_line,
              f"{f.name} is {f.length} lines")
        for f in functions
        if f.length > LONG_METHOD_LINES
    ]


def long_parameter_lists(source: SourceFile, functions=None) -> List[Smell]:
    """Functions with more than LONG_PARAMETER_LIST parameters."""
    if functions is None:
        functions = extract_functions(source)
    return [
        Smell("long-parameter-list", source.path, f.start_line,
              f"{f.name} takes {f.param_count} parameters")
        for f in functions
        if f.param_count > LONG_PARAMETER_LIST
    ]


def deep_nesting(source: SourceFile, functions=None) -> List[Smell]:
    """Functions nested deeper than DEEP_NESTING levels."""
    if functions is None:
        functions = extract_functions(source)
    return [
        Smell("deep-nesting", source.path, f.start_line,
              f"{f.name} nests {f.max_nesting} levels")
        for f in functions
        if f.max_nesting > DEEP_NESTING
    ]


def god_files(source: SourceFile) -> List[Smell]:
    """Files longer than GOD_FILE_LINES physical lines."""
    n = len(source.lines)
    if n > GOD_FILE_LINES:
        return [Smell("god-file", source.path, 1, f"file is {n} lines")]
    return []


def magic_numbers(source: SourceFile) -> List[Smell]:
    """Numeric literals other than 0/1/2 outside of declarations."""
    smells = []
    trivial = {"0", "1", "2", "0.0", "1.0", "-1", "10", "100"}
    for tok in source.tokens:
        if tok.kind != TokenKind.NUMBER:
            continue
        norm = tok.text.rstrip("uUlLfF")
        if norm in trivial:
            continue
        smells.append(
            Smell("magic-number", source.path, tok.line, f"literal {tok.text}")
        )
    return smells


def todo_comments(source: SourceFile) -> List[Smell]:
    """TODO/FIXME/XXX/HACK markers in comments."""
    markers = ("TODO", "FIXME", "XXX", "HACK")
    smells = []
    for tok in source.tokens:
        if tok.kind != TokenKind.COMMENT:
            continue
        upper = tok.text.upper()
        for marker in markers:
            if marker in upper:
                smells.append(
                    Smell("todo-comment", source.path, tok.line, marker)
                )
                break
    return smells


def commented_out_code(source: SourceFile) -> List[Smell]:
    """Comments that look like disabled code (end in ';' or contain '=')."""
    smells = []
    for tok in source.tokens:
        if tok.kind != TokenKind.COMMENT:
            continue
        body = tok.text
        for marker in source.spec.line_comment:
            if body.startswith(marker):
                body = body[len(marker):]
                break
        body = body.strip().rstrip("*/").strip()
        looks_like_code = (
            body.endswith(";")
            or body.endswith("{")
            or body.startswith(("if (", "for (", "while (", "return "))
        )
        if looks_like_code and len(body) > 4:
            smells.append(
                Smell("commented-out-code", source.path, tok.line, body[:40])
            )
    return smells


def long_lines(source: SourceFile) -> List[Smell]:
    """Physical lines longer than LONG_LINE_COLUMNS columns."""
    return [
        Smell("long-line", source.path, i + 1, f"{len(line)} columns")
        for i, line in enumerate(source.lines)
        if len(line) > LONG_LINE_COLUMNS
    ]


def duplicate_code(source: SourceFile) -> List[Smell]:
    """Repeated windows of DUPLICATE_WINDOW consecutive non-blank lines."""
    lines = [ln.strip() for ln in source.lines]
    meaningful = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    seen: Dict[str, int] = {}
    smells = []
    for start in range(len(meaningful) - DUPLICATE_WINDOW + 1):
        window = meaningful[start : start + DUPLICATE_WINDOW]
        digest = hashlib.sha1(
            "\n".join(ln for _, ln in window).encode()
        ).hexdigest()
        first = seen.setdefault(digest, window[0][0])
        if first != window[0][0]:
            smells.append(
                Smell("duplicate-code", source.path, window[0][0],
                      f"duplicates lines starting at {first}")
            )
    return smells


ALL_DETECTORS: Dict[str, Callable[[SourceFile], List[Smell]]] = {
    "long-method": long_methods,
    "long-parameter-list": long_parameter_lists,
    "deep-nesting": deep_nesting,
    "god-file": god_files,
    "magic-number": magic_numbers,
    "todo-comment": todo_comments,
    "commented-out-code": commented_out_code,
    "long-line": long_lines,
    "duplicate-code": duplicate_code,
}


#: Detectors that consume the function table (get the shared one passed).
_FUNCTION_DETECTORS = frozenset(
    {"long-method", "long-parameter-list", "deep-nesting"}
)


def detect_file(source: SourceFile, functions=None) -> List[Smell]:
    """Run every detector over one file.

    ``functions`` lets the analysis artifact supply its cached function
    table to the detectors that need one; the final sort is stable, so
    detector-order ties are unchanged either way.
    """
    smells: List[Smell] = []
    for kind, detector in ALL_DETECTORS.items():
        if kind in _FUNCTION_DETECTORS:
            smells.extend(detector(source, functions))
        else:
            smells.extend(detector(source))
    smells.sort(key=lambda s: (s.line, s.kind))
    return smells


def reference_counts(source: SourceFile, functions=None) -> Dict[str, int]:
    """Per-kind counts of :func:`detect_file`, in ``ALL_DETECTORS`` order."""
    counts = {kind: 0 for kind in ALL_DETECTORS}
    for smell in detect_file(source, functions):
        counts[smell.kind] += 1
    return counts

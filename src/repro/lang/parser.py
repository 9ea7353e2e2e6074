"""Lightweight structural recovery: functions and classes from token columns.

This is not a full parser. The paper's testbed needs, per file, the set of
function definitions with their parameter counts, extents, and nesting —
enough for the Shin-et-al. feature set (#functions, #input arguments,
function length) and for per-function cyclomatic complexity. Brace-matching
plus a few syntactic patterns recovers this reliably for C/C++/Java; Python
uses indentation.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import Token, TokenKind

# C-like identifiers that look like calls-with-body but are not functions.
_NOT_FUNCTIONS = frozenset({"sizeof", "defined"})

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_OPERATOR = TokenKind.OPERATOR


@dataclass
class FunctionInfo:
    """A recovered function/method definition.

    The body is the index range ``body_start:body_end`` of the file's
    code-token columns (``SourceFile.columns``), which the analyzers
    read directly.
    """

    name: str
    start_line: int
    end_line: int
    param_count: int
    param_names: List[str] = field(default_factory=list)
    body_start: int = 0
    body_end: int = 0
    max_nesting: int = 0
    owner: Optional[str] = None  # enclosing class, if any
    is_public: bool = True
    _source_ref: Optional[weakref.ref] = field(
        default=None, repr=False, compare=False)

    @property
    def length(self) -> int:
        """Physical length of the function in lines."""
        return self.end_line - self.start_line + 1

    @property
    def body_tokens(self) -> List[Token]:
        """The body as ``Token`` objects, from the file's ``code_tokens``.

        For callers outside the analysis path; it builds the file's
        ``Token`` view on first use. The file is held weakly, like the
        analysis artifact holds it.
        """
        source = self._source_ref() if self._source_ref is not None else None
        if source is None:
            raise ReferenceError(
                f"function {self.name!r} outlived its SourceFile")
        return source.code_tokens[self.body_start:self.body_end]


@dataclass
class ClassInfo:
    """A recovered class definition (Java/C++/Python)."""

    name: str
    start_line: int
    end_line: int
    methods: List[FunctionInfo] = field(default_factory=list)


def extract_functions(source: SourceFile) -> List[FunctionInfo]:
    """Extract function definitions from ``source``.

    Dispatches on the language's ``function_style``: brace matching for
    C/C++/Java, indentation tracking for Python.
    """
    if source.spec.function_style == "indent":
        return _extract_python_functions(source)
    return _extract_brace_functions(source)


def extract_classes(
    source: SourceFile, functions: Optional[List[FunctionInfo]] = None
) -> List[ClassInfo]:
    """Extract class definitions (with their methods) from ``source``.

    ``functions`` lets a caller reuse an already-extracted function list
    (the analysis artifact passes its shared table); methods are matched
    to classes by line extent, and matched functions get their ``owner``
    field filled in.
    """
    if functions is None:
        functions = extract_functions(source)
    if source.spec.function_style == "indent":
        return _extract_python_classes(source, functions)
    return _extract_brace_classes(source, functions)


def _methods_within(functions: List[FunctionInfo], starts: List[int],
                    lo: int, hi: int) -> List[FunctionInfo]:
    """The functions lying wholly within lines ``lo..hi``, in table order.

    ``starts`` holds each function's start line. The table is in
    start-line order, so the candidates are the run of functions that
    start in ``lo..hi``, and one bisection finds where it begins.
    """
    methods = []
    for k in range(bisect_left(starts, lo), len(functions)):
        f = functions[k]
        if f.start_line > hi:
            break
        if f.end_line <= hi:
            methods.append(f)
    return methods


# ---------------------------------------------------------------------------
# Brace languages (C, C++, Java)
# ---------------------------------------------------------------------------


def _match_paren(texts: Sequence[str], open_idx: int) -> int:
    """Index of the ')' matching texts[open_idx] == '(' or -1."""
    depth = 0
    for j in range(open_idx, len(texts)):
        text = texts[j]
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth == 0:
                return j
    return -1


def _match_brace(texts: Sequence[str], open_idx: int) -> int:
    """Index of the '}' matching texts[open_idx] == '{' or last index."""
    depth = 0
    for j in range(open_idx, len(texts)):
        text = texts[j]
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(texts) - 1


def _parse_params(kinds: Sequence[TokenKind], texts: Sequence[str],
                  lo: int, hi: int) -> List[str]:
    """Parameter names from the tokens ``lo:hi`` between '(' and ')'.

    Each comma-separated group at paren depth 1 contributes one parameter;
    its name is the last identifier in the group (C declarator style).
    A bare ``void`` or an empty list yields no parameters.
    """
    groups: List[List[int]] = [[]]
    depth = 0
    for j in range(lo, hi):
        text = texts[j]
        if text in "([":
            depth += 1
        elif text in ")]":
            depth -= 1
        if text == "," and depth == 0:
            groups.append([])
        else:
            groups[-1].append(j)
    names: List[str] = []
    for group in groups:
        idents = [texts[j] for j in group if kinds[j] is _IDENT]
        keywords = [texts[j] for j in group if kinds[j] is _KEYWORD]
        if not idents and keywords == ["void"]:
            continue
        if not idents and not keywords:
            continue
        names.append(idents[-1] if idents else keywords[-1])
    return names


def _body_nesting(texts: Sequence[str], lo: int, hi: int) -> int:
    """Maximum brace depth inside tokens ``lo:hi`` (body braces excluded)."""
    depth = 0
    deepest = 0
    for j in range(lo, hi):
        text = texts[j]
        if text == "{":
            depth += 1
            if depth > deepest:
                deepest = depth
        elif text == "}":
            depth -= 1
    return max(deepest - 1, 0)


def _extract_brace_functions(source: SourceFile) -> List[FunctionInfo]:
    columns = source.columns
    kinds, texts, lines = columns.kinds, columns.texts, columns.lines
    source_ref = weakref.ref(source)
    functions: List[FunctionInfo] = []
    i = 0
    n = len(texts)
    while i < n:
        if kinds[i] is not _IDENT or texts[i] in _NOT_FUNCTIONS:
            i += 1
            continue
        if i + 1 >= n or texts[i + 1] != "(":
            i += 1
            continue
        close = _match_paren(texts, i + 1)
        if close < 0:
            i += 1
            continue
        # Allow trailing qualifiers between ')' and '{': const, noexcept,
        # throws A, B — identifiers/keywords/commas only.
        j = close + 1
        while j < n and (kinds[j] is _IDENT or kinds[j] is _KEYWORD
                         or texts[j] == ","):
            j += 1
        if j >= n or texts[j] != "{":
            i += 1
            continue
        # Reject control-flow-shaped constructs: `name (...)` preceded by
        # `.`/`->` is a method call; preceded by `=` it's an initialiser.
        if i > 0 and texts[i - 1] in (".", "->", "=", "return", "new"):
            i = close + 1
            continue
        end = _match_brace(texts, j)
        params = _parse_params(kinds, texts, i + 2, close)
        functions.append(
            FunctionInfo(
                name=texts[i],
                start_line=lines[i],
                end_line=lines[end],
                param_count=len(params),
                param_names=params,
                body_start=j,
                body_end=end + 1,
                max_nesting=_body_nesting(texts, j, end + 1),
                is_public=_brace_is_public(texts, i),
                _source_ref=source_ref,
            )
        )
        i = end + 1
    return functions


def _brace_is_public(texts: Sequence[str], name_idx: int) -> bool:
    """Heuristic visibility: static (C) / private-protected (Java) are not.

    Only the current declaration's own modifiers count, so the scan stops
    at the previous statement/block boundary.
    """
    for j in range(name_idx - 1, max(-1, name_idx - 8), -1):
        text = texts[j]
        if text in (";", "{", "}"):
            break
        if text in ("static", "private", "protected"):
            return False
    return True


def _extract_brace_classes(
    source: SourceFile, functions: List[FunctionInfo]
) -> List[ClassInfo]:
    columns = source.columns
    kinds, texts, lines = columns.kinds, columns.texts, columns.lines
    starts = [f.start_line for f in functions]
    classes: List[ClassInfo] = []
    i = 0
    n = len(texts)
    while i < n:
        if kinds[i] is _KEYWORD and texts[i] in ("class", "struct",
                                                 "interface"):
            if i + 1 < n and kinds[i + 1] is _IDENT:
                name = texts[i + 1]
                j = i + 2
                while j < n and texts[j] not in ("{", ";"):
                    j += 1
                if j < n and texts[j] == "{":
                    end = _match_brace(texts, j)
                    start_line, end_line = lines[i], lines[end]
                    methods = _methods_within(functions, starts,
                                              start_line, end_line)
                    for m in methods:
                        m.owner = name
                    classes.append(ClassInfo(name, start_line, end_line, methods))
                    i = j + 1
                    continue
        i += 1
    return classes


# ---------------------------------------------------------------------------
# Python (indentation)
# ---------------------------------------------------------------------------


def _python_blocks(source: SourceFile) -> Dict[int, Tuple[int, int]]:
    """``(end line, deepest indent)`` of the suite under each ``def`` or
    ``class`` line, computed once per file for both extractors.

    A suite runs to the last code line before the first later code line
    indented no deeper than its header (blank and comment lines never
    end it); a suite with no such code line ends on the header itself.
    ``deepest`` is the largest indent of a non-blank line in the suite
    relative to the header, or 0.

    One pass over the lines, so nested suites cost no rescans. Open
    headers wait in a heap keyed on their indent (a header's own line
    need not be a code line, so they do not nest like a stack), and a
    stack of indents strictly decreasing in line order answers "deepest
    line after the header" with one bisection. Comment lines after the
    last code line are held back until the next code line: a suite that
    closes there does not contain them.
    """
    if source._suites is not None:
        return source._suites
    blocks: Dict[int, Tuple[int, int]] = {}
    source._suites = blocks
    columns = source.columns
    wanted = {line for kind, text, line
              in zip(columns.kinds, columns.texts, columns.lines)
              if kind is _KEYWORD and (text == "def" or text == "class")}
    if not wanted:
        return blocks
    pending: List[Tuple[int, int, int]] = []  # (-indent, line, indent)
    deep_lines: List[int] = []  # non-blank lines, up to the last code line
    deep_widths: List[int] = []  # their indents, strictly decreasing
    held: List[Tuple[int, int]] = []  # comment lines after the last code line
    last_code = 0

    def close(limit: int) -> None:
        while pending and -pending[0][0] >= limit:
            _, header, width = heappop(pending)
            end = max(header, last_code)
            k = bisect_right(deep_lines, header)
            deepest = deep_widths[k] - width if k < len(deep_lines) else 0
            blocks[header] = (end, max(deepest, 0))

    def deepen(ln: int, width: int) -> None:
        while deep_widths and deep_widths[-1] <= width:
            deep_lines.pop()
            deep_widths.pop()
        deep_lines.append(ln)
        deep_widths.append(width)

    indents = source.indents
    for ln, text in enumerate(source.lines, 1):
        stripped = text.strip()
        width = indents[ln - 1]
        if stripped and stripped[0] != "#":
            close(width)
            for held_line, held_width in held:
                deepen(held_line, held_width)
            held.clear()
            deepen(ln, width)
            last_code = ln
        elif stripped:
            held.append((ln, width))
        if ln in wanted:
            heappush(pending, (-width, ln, width))
    close(-1)
    return blocks


def _extract_python_functions(source: SourceFile) -> List[FunctionInfo]:
    columns = source.columns
    kinds, texts, lines = columns.kinds, columns.texts, columns.lines
    source_ref = weakref.ref(source)
    # Tokens are in line order, so a body is the run of tokens after the
    # header's ')' up to the block's last line: one bisection, not a scan.
    n = len(texts)
    headers = []  # (def token index, index of its ')')
    for i, (kind, text) in enumerate(zip(kinds, texts)):
        if kind is not _KEYWORD or text != "def":
            continue
        if i + 2 >= n or kinds[i + 1] is not _IDENT:
            continue
        if texts[i + 2] != "(":
            continue
        close = _match_paren(texts, i + 2)
        if close >= 0:
            headers.append((i, close))
    blocks = _python_blocks(source)
    functions: List[FunctionInfo] = []
    for i, close in headers:
        name = texts[i + 1]
        end_line, deepest = blocks[lines[i]]
        params = _python_params(kinds, texts, i + 3, close)
        functions.append(
            FunctionInfo(
                name=name,
                start_line=lines[i],
                end_line=end_line,
                param_count=len(params),
                param_names=params,
                body_start=close + 1,
                body_end=bisect_right(lines, end_line, close + 1),
                max_nesting=max(deepest // 4 - 1, 0),
                is_public=not name.startswith("_"),
                _source_ref=source_ref,
            )
        )
    return functions


def _python_params(kinds: Sequence[TokenKind], texts: Sequence[str],
                   lo: int, hi: int) -> List[str]:
    """Parameter names among a def's parenthesised tokens ``lo:hi``.

    A parameter name is an identifier at paren depth 0 (relative to the
    def's parens) that begins its comma-separated group, after any
    leading ``*``/``**``; defaults and annotations are skipped.
    """
    params = []
    depth = 0
    group_start = True
    for j in range(lo, hi):
        text = texts[j]
        if text in "([{":
            depth += 1
        elif text in ")]}":
            depth -= 1
        elif text == "," and depth == 0:
            group_start = True
            continue
        kind = kinds[j]
        if kind is _IDENT and depth == 0 and group_start:
            params.append(text)
        if kind is not _OPERATOR or text not in ("*", "**"):
            group_start = False
    return params


def _extract_python_classes(
    source: SourceFile, functions: List[FunctionInfo]
) -> List[ClassInfo]:
    columns = source.columns
    kinds, texts, lines = columns.kinds, columns.texts, columns.lines
    starts = [f.start_line for f in functions]
    n = len(texts)
    headers = [
        i for i, (kind, text) in enumerate(zip(kinds, texts))
        if kind is _KEYWORD and text == "class"
        and i + 1 < n and kinds[i + 1] is _IDENT
    ]
    blocks = _python_blocks(source)
    classes: List[ClassInfo] = []
    for i in headers:
        line = lines[i]
        name = texts[i + 1]
        end_line = blocks[line][0]
        methods = _methods_within(functions, starts, line + 1, end_line)
        for m in methods:
            m.owner = name
        classes.append(ClassInfo(name, line, end_line, methods))
    return classes

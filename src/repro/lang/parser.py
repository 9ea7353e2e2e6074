"""Lightweight structural recovery: functions and classes from token streams.

This is not a full parser. The paper's testbed needs, per file, the set of
function definitions with their parameter counts, extents, and nesting —
enough for the Shin-et-al. feature set (#functions, #input arguments,
function length) and for per-function cyclomatic complexity. Brace-matching
plus a few syntactic patterns recovers this reliably for C/C++/Java; Python
uses indentation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import Token, TokenKind

# C-like identifiers that look like calls-with-body but are not functions.
_NOT_FUNCTIONS = frozenset({"sizeof", "defined"})


@dataclass
class FunctionInfo:
    """A recovered function/method definition."""

    name: str
    start_line: int
    end_line: int
    param_count: int
    param_names: List[str] = field(default_factory=list)
    body_tokens: List[Token] = field(default_factory=list)
    max_nesting: int = 0
    owner: Optional[str] = None  # enclosing class, if any
    is_public: bool = True

    @property
    def length(self) -> int:
        """Physical length of the function in lines."""
        return self.end_line - self.start_line + 1


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


def _match_paren(tokens: List[Token], open_idx: int) -> int:
    """Index of the ')' matching tokens[open_idx] == '(' or -1."""
    depth = 0
    for j in range(open_idx, len(tokens)):
        text = tokens[j].text
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth == 0:
                return j
    return -1


def _match_brace(tokens: List[Token], open_idx: int) -> int:
    """Index of the '}' matching tokens[open_idx] == '{' or last index."""
    depth = 0
    for j in range(open_idx, len(tokens)):
        text = tokens[j].text
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(tokens) - 1


def _parse_params(tokens: List[Token]) -> List[str]:
    """Parameter names from the token slice between '(' and ')'.

    Each comma-separated group at paren depth 1 contributes one parameter;
    its name is the last identifier in the group (C declarator style).
    A bare ``void`` or an empty list yields no parameters.
    """
    groups: List[List[Token]] = [[]]
    depth = 0
    for tok in tokens:
        if tok.text in "([":
            depth += 1
        elif tok.text in ")]":
            depth -= 1
        if tok.text == "," and depth == 0:
            groups.append([])
        else:
            groups[-1].append(tok)
    names: List[str] = []
    for group in groups:
        idents = [t.text for t in group if t.kind == TokenKind.IDENT]
        keywords = [t.text for t in group if t.kind == TokenKind.KEYWORD]
        if not idents and keywords == ["void"]:
            continue
        if not idents and not keywords:
            continue
        names.append(idents[-1] if idents else keywords[-1])
    return names


def _body_nesting(tokens: List[Token]) -> int:
    """Maximum brace depth inside a body token slice (body braces excluded)."""
    depth = 0
    deepest = 0
    for tok in tokens:
        if tok.text == "{":
            depth += 1
            deepest = max(deepest, depth)
        elif tok.text == "}":
            depth -= 1
    return max(deepest - 1, 0)


def _extract_brace_functions(source: SourceFile) -> List[FunctionInfo]:
    tokens = source.code_tokens
    functions: List[FunctionInfo] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind != TokenKind.IDENT or tok.text in _NOT_FUNCTIONS:
            i += 1
            continue
        if i + 1 >= n or tokens[i + 1].text != "(":
            i += 1
            continue
        close = _match_paren(tokens, i + 1)
        if close < 0:
            i += 1
            continue
        # Allow trailing qualifiers between ')' and '{': const, noexcept,
        # throws A, B — identifiers/keywords/commas only.
        j = close + 1
        while j < n and (
            tokens[j].kind in (TokenKind.IDENT, TokenKind.KEYWORD)
            or tokens[j].text == ","
        ):
            j += 1
        if j >= n or tokens[j].text != "{":
            i += 1
            continue
        # Reject control-flow-shaped constructs: `name (...)` preceded by
        # `.`/`->` is a method call; preceded by `=` it's an initialiser.
        if i > 0 and tokens[i - 1].text in (".", "->", "=", "return", "new"):
            i = close + 1
            continue
        end = _match_brace(tokens, j)
        body = tokens[j : end + 1]
        params = _parse_params(tokens[i + 2 : close])
        functions.append(
            FunctionInfo(
                name=tok.text,
                start_line=tok.line,
                end_line=tokens[end].line,
                param_count=len(params),
                param_names=params,
                body_tokens=body,
                max_nesting=_body_nesting(body),
                is_public=_brace_is_public(tokens, i),
            )
        )
        i = end + 1
    return functions


def _brace_is_public(tokens: List[Token], name_idx: int) -> bool:
    """Heuristic visibility: static (C) / private-protected (Java) are not.

    Only the current declaration's own modifiers count, so the scan stops
    at the previous statement/block boundary.
    """
    modifiers = set()
    for j in range(name_idx - 1, max(-1, name_idx - 8), -1):
        text = tokens[j].text
        if text in (";", "{", "}"):
            break
        modifiers.add(text)
    return not modifiers & {"static", "private", "protected"}


def _extract_brace_classes(
    source: SourceFile, functions: List[FunctionInfo]
) -> List[ClassInfo]:
    tokens = source.code_tokens
    starts = [f.start_line for f in functions]
    classes: List[ClassInfo] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == TokenKind.KEYWORD and tok.text in ("class", "struct", "interface"):
            if i + 1 < n and tokens[i + 1].kind == TokenKind.IDENT:
                name = tokens[i + 1].text
                j = i + 2
                while j < n and tokens[j].text not in ("{", ";"):
                    j += 1
                if j < n and tokens[j].text == "{":
                    end = _match_brace(tokens, j)
                    start_line, end_line = tok.line, tokens[end].line
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
    wanted = {tok.line for tok in source.code_tokens
              if tok.kind == TokenKind.KEYWORD
              and tok.text in ("def", "class")}
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
    tokens = source.code_tokens
    # Tokens are in line order, so a body is the run of tokens after the
    # header's ')' up to the block's last line: one bisection, not a scan.
    token_lines = [t.line for t in tokens]
    n = len(tokens)
    headers = []  # (def token index, index of its ')')
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.KEYWORD or tok.text != "def":
            continue
        if i + 2 >= n or tokens[i + 1].kind != TokenKind.IDENT:
            continue
        if tokens[i + 2].text != "(":
            continue
        close = _match_paren(tokens, i + 2)
        if close >= 0:
            headers.append((i, close))
    blocks = _python_blocks(source)
    functions: List[FunctionInfo] = []
    for i, close in headers:
        name_tok = tokens[i + 1]
        end_line, deepest = blocks[tokens[i].line]
        params = _python_params(tokens[i + 3 : close])
        body = tokens[close + 1 : bisect_right(token_lines, end_line, close + 1)]
        functions.append(
            FunctionInfo(
                name=name_tok.text,
                start_line=tokens[i].line,
                end_line=end_line,
                param_count=len(params),
                param_names=params,
                body_tokens=body,
                max_nesting=max(deepest // 4 - 1, 0),
                is_public=not name_tok.text.startswith("_"),
            )
        )
    return functions


def _python_params(tokens: List[Token]) -> List[str]:
    """Parameter names among a def's parenthesised tokens.

    A parameter name is an identifier at paren depth 0 (relative to the
    def's parens) that begins its comma-separated group, after any
    leading ``*``/``**``; defaults and annotations are skipped.
    """
    params = []
    depth = 0
    group_start = True
    for tok in tokens:
        text = tok.text
        if text in "([{":
            depth += 1
        elif text in ")]}":
            depth -= 1
        elif text == "," and depth == 0:
            group_start = True
            continue
        if tok.kind == TokenKind.IDENT and depth == 0 and group_start:
            params.append(text)
        if tok.kind != TokenKind.OPERATOR or text not in ("*", "**"):
            group_start = False
    return params


def _extract_python_classes(
    source: SourceFile, functions: List[FunctionInfo]
) -> List[ClassInfo]:
    tokens = source.code_tokens
    starts = [f.start_line for f in functions]
    headers = [
        i for i, tok in enumerate(tokens)
        if tok.kind == TokenKind.KEYWORD and tok.text == "class"
        and i + 1 < len(tokens) and tokens[i + 1].kind == TokenKind.IDENT
    ]
    blocks = _python_blocks(source)
    classes: List[ClassInfo] = []
    for i in headers:
        tok = tokens[i]
        name = tokens[i + 1].text
        end_line = blocks[tok.line][0]
        methods = _methods_within(functions, starts, tok.line + 1, end_line)
        for m in methods:
            m.owner = name
        classes.append(ClassInfo(name, tok.line, end_line, methods))
    return classes

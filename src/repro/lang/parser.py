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
from dataclasses import dataclass, field
from typing import List, Optional

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


def line_indent(line: str) -> int:
    """Indentation width of a line, tabs to the next multiple of 8."""
    lead = len(line) - len(line.lstrip(" \t"))
    if "\t" not in line[:lead]:
        return lead
    width = 0
    for ch in line[:lead]:
        width = width + 1 if ch == " " else width + 8 - width % 8
    return width


def _python_block_end(lines: List[str], header_line: int) -> int:
    """Last line (1-based) of the suite introduced at ``header_line``."""
    indent = line_indent(lines[header_line - 1])
    end = header_line
    for idx in range(header_line + 1, len(lines) + 1):
        stripped = lines[idx - 1].strip()
        if not stripped or stripped.startswith("#"):
            continue
        if line_indent(lines[idx - 1]) <= indent:
            break
        end = idx
    return end


def _extract_python_functions(source: SourceFile) -> List[FunctionInfo]:
    tokens = source.code_tokens
    lines = source.lines
    # Tokens are in line order, so a body is the run of tokens after the
    # header's ')' up to the block's last line: one bisection, not a scan.
    token_lines = [t.line for t in tokens]
    functions: List[FunctionInfo] = []
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.KEYWORD or tok.text != "def":
            continue
        if i + 2 >= n or tokens[i + 1].kind != TokenKind.IDENT:
            continue
        if tokens[i + 2].text != "(":
            continue
        close = _match_paren(tokens, i + 2)
        if close < 0:
            continue
        name_tok = tokens[i + 1]
        end_line = _python_block_end(lines, tok.line)
        params = [
            t.text
            for t in tokens[i + 3 : close]
            if t.kind == TokenKind.IDENT and _is_python_param(tokens, i + 3, close, t)
        ]
        body = tokens[close + 1 : bisect_right(token_lines, end_line, close + 1)]
        base_indent = line_indent(lines[tok.line - 1])
        deepest = 0
        for ln in range(tok.line + 1, end_line + 1):
            if lines[ln - 1].strip():
                deepest = max(deepest, line_indent(lines[ln - 1]) - base_indent)
        functions.append(
            FunctionInfo(
                name=name_tok.text,
                start_line=tok.line,
                end_line=end_line,
                param_count=len(params),
                param_names=params,
                body_tokens=body,
                max_nesting=max(deepest // 4 - 1, 0),
                is_public=not name_tok.text.startswith("_"),
            )
        )
    return functions


def _is_python_param(
    tokens: List[Token], start: int, close: int, candidate: Token
) -> bool:
    """True if ``candidate`` is a parameter name, not a default/annotation.

    A parameter name is an identifier at paren depth 0 (relative to the
    def's parens) that begins its comma-separated group.
    """
    depth = 0
    group_start = True
    for idx in range(start, close):
        tok = tokens[idx]
        if tok.text in "([{":
            depth += 1
        elif tok.text in ")]}":
            depth -= 1
        elif tok.text == "," and depth == 0:
            group_start = True
            continue
        if tok is candidate:
            return depth == 0 and group_start
        if tok.kind != TokenKind.OPERATOR or tok.text not in ("*", "**"):
            group_start = False
    return False


def _extract_python_classes(
    source: SourceFile, functions: List[FunctionInfo]
) -> List[ClassInfo]:
    tokens = source.code_tokens
    lines = source.lines
    starts = [f.start_line for f in functions]
    classes: List[ClassInfo] = []
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.KEYWORD or tok.text != "class":
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].kind != TokenKind.IDENT:
            continue
        name = tokens[i + 1].text
        end_line = _python_block_end(lines, tok.line)
        methods = _methods_within(functions, starts, tok.line + 1, end_line)
        for m in methods:
            m.owner = name
        classes.append(ClassInfo(name, tok.line, end_line, methods))
    return classes

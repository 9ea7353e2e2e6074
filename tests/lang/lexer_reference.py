"""Reference lexer: the character-dispatch lexer the columnar one replaced.

Kept verbatim, test-only, as the oracle of
``tests/lang/test_lexer_differential.py``: the columnar lexer's ``Token``
view must equal this module's output exactly (kind, text, line, col,
offset) and its columns must equal this output's code tokens.

The original module notes follow.

A generic, specification-driven lexer.

One lexer covers C, C++, Java, and Python by being parameterised over a
:class:`~repro.lang.languages.LanguageSpec`. It is deliberately tolerant:
unterminated strings and comments lex to the end of file rather than raising,
because the analyzers must degrade gracefully on malformed real-world code
(the paper's testbed runs unattended over hundreds of applications).

Every token records its character offset (``text == source[offset:offset +
len(text)]``), and short token texts — identifiers, keywords, numbers,
operators, punctuation — are interned so that the many set/dict membership
tests downstream (Halstead vocabularies, decision-token counts, call-site
scans) hit pointer-equality fast paths and repeated lexemes share storage.
"""

from __future__ import annotations

import re
import sys
from typing import List

from repro.lang.languages import LanguageSpec
from repro.lang.tokens import Token, TokenKind

# Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = (
    "<<=", ">>=", "...", "->*", "**=", "//=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::", "**", "//",
    ":=",
)

# First-character dispatch for the multi-op scan: instead of trying all
# 29 operators against every operator character, only the (few, still
# longest-first) candidates sharing its first character are probed.
_MULTI_OPS_BY_CHAR: dict = {}
for _op in _MULTI_OPS:
    _MULTI_OPS_BY_CHAR.setdefault(_op[0], []).append(_op)
_MULTI_OPS_BY_CHAR = {k: tuple(v) for k, v in _MULTI_OPS_BY_CHAR.items()}

_SINGLE_OPS = set("+-*/%<>=!&|^~?.@")
_PUNCT = set("()[]{},;:")

# Compiled scanners for the per-branch inner loops. Each pattern matches
# exactly the character run the equivalent hand-rolled loop consumed, so
# the dispatch below keeps its shape while the scanning happens in C.
#
# ``\w`` is documented to match precisely ``str.isalnum()`` plus ``_``,
# i.e. the identifier-continuation predicate.
_WORD_RUN = re.compile(r"\w*")
# A lone \r ends a line like \n does; the \r of a \r\n pair stays
# inside the run so the \n branch counts the pair once.
_TO_EOL = re.compile(r"(?:[^\n\r]|\r(?=\n))*")
# Preprocessor lines: a newline continues the directive only when the
# preceding character is a backslash.
_PREPROC_RUN = re.compile(r"(?:[^\n\r]|\r(?=\n)|(?<=\\)\n)*")
_WS_RUN = re.compile(r"[ \t\f\v]*")

# Numeric literals, mirroring ``_scan_number``: underscores anywhere in a
# digit run, C++14 apostrophes only between two digits (the lookbehind /
# following-digit pair), one optional dot, one optional exponent that must
# be followed by a digit or sign, then integer/float suffix letters.
_DEC_SEG = r"[0-9_]*(?:(?<=[0-9])'[0-9][0-9_]*)*"
_DEC_NUM = re.compile(
    _DEC_SEG
    + r"(?:\." + _DEC_SEG + r")?"
    + r"(?:[eE](?:[+-]|(?=[0-9]))" + _DEC_SEG + r")?"
    + r"[uUlLfF]*"
)
_HEX_NUM = re.compile(
    r"0[xX][0-9a-fA-F_]*(?:(?<=[0-9a-fA-F])'[0-9a-fA-F][0-9a-fA-F_]*)*"
    r"[uUlLfF]*"
)
_BIN_NUM = re.compile(r"0[bB][01_]*(?:(?<=[01])'[01][01_]*)*[uUlLfF]*")

# Single-line string/char literals: an escape consumes the next character
# unless it is a newline; an unescaped newline (or end of file) ends the
# token without being consumed, a dangling backslash is kept, and the
# closing delimiter is consumed when present.
_STRING_PATS = {
    d: re.compile(d + r"(?:[^" + d + r"\n\r\\]|\\(?:[^\n\r]|\r(?=\n))"
                  r"|\r(?=\n))*\\?" + d + "?")
    for d in ('"', "'")
}

# Triple-quoted strings: escape pairs (including escaped newlines and
# escaped quotes) are opaque, the first unescaped closing quote ends the
# literal. The alternation is first-character disjoint, so the lazy scan
# is linear.
_TRIPLE_PATS = {
    q: re.compile(re.escape(q) + r"(?:\\.|[^\\])*?" + re.escape(q), re.S)
    for q in ('"""', "'''")
}
# Sequential escape-pair/newline walk, for counting the unescaped
# newlines of a triple-quoted string body exactly like the old
# character loop did (an escaped newline does not advance the line).
# ``\r\n`` is one terminator, a lone ``\r`` another.
_ESC_OR_NL = re.compile(r"\\.|\r\n?|\n", re.S)

#: Kinds whose texts are interned: short, heavily repeated lexemes.
_INTERN_KINDS = frozenset({
    TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.NUMBER,
    TokenKind.OPERATOR, TokenKind.PUNCT,
})

_intern = sys.intern

# First-character classes for the main dispatch. The tokenizer's branch
# chain tested up to ten predicates (several of them method calls) per
# token; classifying the first character through one dict lookup replaces
# the chain while each handler keeps the original branch ORDER for the
# characters it can receive, so the token stream is unchanged.
_C_OTHER = 0   # unmapped (non-ASCII): number/ident/unknown tail
_C_ID = 1      # ASCII letter or underscore
_C_PUNCT = 2   # punctuation that cannot start a multi-char operator
_C_OP = 3      # operator chars (multi-char scan, then single/punct)
_C_WS = 4      # horizontal whitespace run
_C_NL = 5      # \n
_C_NUM = 6     # ASCII digit
_C_QUOTE = 7   # triple-string / string / char-literal openers
_C_CMT = 8     # line- or block-comment head (falls through to operators)
_C_DOT = 9     # '.': number when a digit follows, else operator
_C_HASH = 10   # '#' on preprocessor languages (falls through like CMT)
_C_CR = 11     # \r

_DISPATCH_CACHE: dict = {}


def _dispatch_for(spec: LanguageSpec) -> dict:
    """Per-spec first-character class table (cached by spec name).

    Built in reverse branch priority so that for a character claimed by
    several branches the assignment of the *earliest* original branch
    survives (e.g. ``/`` is a comment head before it is an operator).
    """
    table = _DISPATCH_CACHE.get(spec.name)
    if table is not None:
        return table
    table = {}
    for c in _SINGLE_OPS | set(_MULTI_OPS_BY_CHAR):
        table[c] = _C_OP
    for c in _PUNCT:
        # ':' also starts '::' / ':=' — it needs the multi-op scan.
        table[c] = _C_OP if c in _MULTI_OPS_BY_CHAR else _C_PUNCT
    table["."] = _C_DOT
    for c in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_":
        table[c] = _C_ID
    for c in "0123456789":
        table[c] = _C_NUM
    for d in spec.string_delims:
        table[d] = _C_QUOTE
    if spec.char_delim is not None:
        table[spec.char_delim] = _C_QUOTE
    if spec.triple_strings:
        table['"'] = _C_QUOTE
        table["'"] = _C_QUOTE
    if spec.block_comment:
        table[spec.block_comment[0][0]] = _C_CMT
    for marker in spec.line_comment:
        table[marker[0]] = _C_CMT
    if spec.has_preprocessor:
        table["#"] = _C_HASH
    for c in " \t\f\v":
        table[c] = _C_WS
    table["\n"] = _C_NL
    table["\r"] = _C_CR
    _DISPATCH_CACHE[spec.name] = table
    return table


class Lexer:
    """Tokenises source text according to a :class:`LanguageSpec`."""

    def __init__(self, spec: LanguageSpec):
        self.spec = spec

    def tokenize(self, text: str) -> List[Token]:
        """Tokenise ``text`` into a list of :class:`Token`.

        Newlines are emitted as NEWLINE tokens so line-oriented analyses
        (LoC counting, smell detection) can recover physical structure.
        A lone ``\\r`` (legacy Mac line ending) terminates a line exactly
        like ``str.splitlines`` says it does, so token line numbers always
        agree with the physical line table; ``\\r\\n`` counts once.
        """
        spec = self.spec
        tokens: List[Token] = []
        append = tokens.append
        i = 0
        line = 1
        col = 1
        n = len(text)
        cls_of = _dispatch_for(spec).get
        line_comments = spec.line_comment
        block_comment = spec.block_comment
        string_delims = spec.string_delims
        char_delim = spec.char_delim
        triple = spec.triple_strings
        keywords = spec.keywords
        has_preprocessor = spec.has_preprocessor
        NEWLINE = TokenKind.NEWLINE
        NUMBER = TokenKind.NUMBER
        KEYWORD = TokenKind.KEYWORD
        IDENT = TokenKind.IDENT
        OPERATOR = TokenKind.OPERATOR
        PUNCT = TokenKind.PUNCT
        UNKNOWN = TokenKind.UNKNOWN

        def emit(kind: TokenKind, start: int, end: int, tline: int, tcol: int) -> None:
            word = text[start:end]
            if kind in _INTERN_KINDS:
                word = _intern(word)
            append(Token(kind, word, tline, tcol, start))

        def col_after(start: int, end: int, tcol: int) -> int:
            """Column following a token spanning [start, end)."""
            nl = text.rfind("\n", start, end)
            if nl == -1:
                nl = text.rfind("\r", start, end)
            if nl == -1:
                return tcol + (end - start)
            return end - nl

        # Handlers appear in rough frequency order. The ident, number and
        # single-char branches build their Token inline instead of going
        # through ``emit`` (which would re-slice the text and re-test the
        # kind). One-char strings are cached by CPython, so a bare ``ch``
        # is already the shared object interning would return.
        while i < n:
            ch = text[i]
            cls = cls_of(ch, _C_OTHER)

            if cls == _C_ID:
                start, tline, tcol = i, line, col
                i = _WORD_RUN.match(text, i).end()
                word = _intern(text[start:i])
                kind = KEYWORD if word in keywords else IDENT
                append(Token(kind, word, tline, tcol, start))
                col += i - start
                continue

            if cls == _C_PUNCT:
                append(Token(PUNCT, ch, line, col, i))
                i += 1
                col += 1
                continue

            if cls == _C_WS:
                start = i
                i = _WS_RUN.match(text, i).end()
                col += i - start
                continue

            if cls == _C_NL:
                append(Token(NEWLINE, "\n", line, col, i))
                i += 1
                line += 1
                col = 1
                continue

            if cls == _C_OP:
                # Multi-character operators (maximal munch, first-char
                # bucket). The matched slice of ``text`` equals ``op``
                # itself, a module literal that is already interned.
                matched = False
                for op in _MULTI_OPS_BY_CHAR.get(ch, ()):
                    if text.startswith(op, i):
                        append(Token(OPERATOR, op, line, col, i))
                        i += len(op)
                        col += len(op)
                        matched = True
                        break
                if matched:
                    continue
                if ch in _PUNCT:
                    append(Token(PUNCT, ch, line, col, i))
                else:
                    append(Token(OPERATOR, ch, line, col, i))
                i += 1
                col += 1
                continue

            if cls == _C_NUM or cls == _C_DOT:
                if cls == _C_NUM or (i + 1 < n and text[i + 1].isdigit()):
                    start, tline, tcol = i, line, col
                    if text.startswith(("0x", "0X"), i):
                        i = _HEX_NUM.match(text, i).end()
                    elif text.startswith(("0b", "0B"), i):
                        i = _BIN_NUM.match(text, i).end()
                    else:
                        i = _DEC_NUM.match(text, i).end()
                    if i == start:
                        # A non-ASCII digit opened the literal (the
                        # patterns scan ASCII digit runs): fall back to
                        # the character scanner so the position advances.
                        i = _scan_number(text, start)
                    append(Token(NUMBER, _intern(text[start:i]), tline,
                                 tcol, start))
                    col += i - start
                    continue
                # A bare '.': maximal munch for '...' and then a plain
                # operator, exactly like the _C_OP tail.
                if text.startswith("...", i):
                    append(Token(OPERATOR, "...", line, col, i))
                    i += 3
                    col += 3
                    continue
                append(Token(OPERATOR, ".", line, col, i))
                i += 1
                col += 1
                continue

            if cls == _C_QUOTE:
                # Triple-quoted strings (Python).
                if triple and (
                    text.startswith('"""', i) or text.startswith("'''", i)
                ):
                    quote = text[i : i + 3]
                    start, tline, tcol = i, line, col
                    m = _TRIPLE_PATS[quote].match(text, i)
                    i = m.end() if m is not None else n
                    body_end = i - 3 if m is not None else n
                    for esc in _ESC_OR_NL.finditer(text, start + 3, body_end):
                        if esc.group()[0] != "\\":
                            line += 1
                    emit(TokenKind.STRING, start, i, tline, tcol)
                    col = col_after(start, i, tcol)
                    continue
                # Ordinary strings (unterminated at end-of-line tolerated).
                if ch in string_delims:
                    start, tline, tcol = i, line, col
                    i = _STRING_PATS[ch].match(text, i).end()
                    emit(TokenKind.STRING, start, i, tline, tcol)
                    col += i - start
                    continue
                # Character literals (C/C++/Java).
                if char_delim is not None and ch == char_delim:
                    start, tline, tcol = i, line, col
                    i = _STRING_PATS[char_delim].match(text, i).end()
                    emit(TokenKind.CHAR, start, i, tline, tcol)
                    col += i - start
                    continue
                append(Token(UNKNOWN, ch, line, col, i))
                i += 1
                col += 1
                continue

            if cls == _C_CMT or cls == _C_HASH:
                # Preprocessor directive: consume the (possibly
                # continued) line.
                if cls == _C_HASH and has_preprocessor \
                        and _at_line_start(tokens):
                    start, tline, tcol = i, line, col
                    i = _PREPROC_RUN.match(text, i).end()
                    line += text.count("\n", start, i)
                    emit(TokenKind.PREPROC, start, i, tline, tcol)
                    col = col_after(start, i, tcol)
                    continue
                # Line comments.
                matched = False
                for marker in line_comments:
                    if text.startswith(marker, i):
                        start, tline, tcol = i, line, col
                        i = _TO_EOL.match(text, i).end()
                        emit(TokenKind.COMMENT, start, i, tline, tcol)
                        col = tcol + (i - start)
                        matched = True
                        break
                if matched:
                    continue
                # Block comments. An unterminated comment lexes to end of
                # file as one COMMENT token (tolerance for malformed
                # input); inner newlines advance the line counter.
                if block_comment is not None \
                        and text.startswith(block_comment[0], i):
                    open_m, close_m = block_comment
                    start, tline, tcol = i, line, col
                    found = text.find(close_m, i + len(open_m))
                    if found < 0:
                        found = i = n
                    else:
                        i = found + len(close_m)
                    line += _line_breaks(text, start + len(open_m), found)
                    emit(TokenKind.COMMENT, start, i, tline, tcol)
                    col = col_after(start, i, tcol)
                    continue
                # Not a comment after all ('/' divides, '#' is stray):
                # fall through to the operator tail.
                matched = False
                for op in _MULTI_OPS_BY_CHAR.get(ch, ()):
                    if text.startswith(op, i):
                        append(Token(OPERATOR, op, line, col, i))
                        i += len(op)
                        col += len(op)
                        matched = True
                        break
                if matched:
                    continue
                if ch in _PUNCT:
                    append(Token(PUNCT, ch, line, col, i))
                elif ch in _SINGLE_OPS:
                    append(Token(OPERATOR, ch, line, col, i))
                else:
                    append(Token(UNKNOWN, ch, line, col, i))
                i += 1
                col += 1
                continue

            if cls == _C_CR:
                if i + 1 < n and text[i + 1] == "\n":
                    # \r\n: the \n branch counts the line.
                    i += 1
                    col += 1
                    continue
                # Lone \r is a line terminator (classic Mac); splitlines()
                # breaks here, so the lexer must too or every following
                # token carries a stale line number.
                append(Token(NEWLINE, "\r", line, col, i))
                i += 1
                line += 1
                col = 1
                continue

            # Unmapped characters: non-ASCII digits and letters still
            # form numbers and identifiers; anything else is UNKNOWN.
            if ch.isdigit():
                start, tline, tcol = i, line, col
                i = _scan_number(text, i)
                append(Token(NUMBER, _intern(text[start:i]), tline, tcol,
                             start))
                col += i - start
                continue
            if ch.isalpha():
                start, tline, tcol = i, line, col
                i = _WORD_RUN.match(text, i).end()
                word = _intern(text[start:i])
                kind = KEYWORD if word in keywords else IDENT
                append(Token(kind, word, tline, tcol, start))
                col += i - start
                continue
            append(Token(UNKNOWN, ch, line, col, i))
            i += 1
            col += 1

        return tokens


def _at_line_start(tokens: List[Token]) -> bool:
    """True if the next token would be the first non-whitespace on its line."""
    return not tokens or tokens[-1].kind == TokenKind.NEWLINE


def _line_breaks(text: str, start: int, end: int) -> int:
    """Line terminators in ``text[start:end]``; ``\\r\\n`` counts once."""
    return (text.count("\n", start, end) + text.count("\r", start, end)
            - text.count("\r\n", start, end))


def _scan_number(text: str, i: int) -> int:
    """Scan a numeric literal starting at ``i``; return the end offset.

    Digit-separator underscores (Python/Java) and C++14 apostrophes are
    consumed when they sit between digits, so ``1'000'000`` is one NUMBER
    rather than a number followed by a bogus character literal.
    """
    n = len(text)
    start = i

    if text.startswith(("0x", "0X"), i):
        hex_digits = "0123456789abcdefABCDEF"
        i += 2
        while i < n and (
            text[i] in hex_digits
            or text[i] == "_"
            or (text[i] == "'" and _sep_between(text, i, n, hex_digits))
        ):
            i += 1
    elif text.startswith(("0b", "0B"), i):
        i += 2
        while i < n and (
            text[i] in "01_" or (text[i] == "'" and _sep_between(text, i, n, "01"))
        ):
            i += 1
    else:
        seen_dot = False
        seen_exp = False
        while i < n:
            c = text[i]
            if c.isdigit() or c == "_":
                i += 1
            elif c == "'" and _sep_between(text, i, n, "0123456789"):
                i += 1
            elif c == "." and not seen_dot and not seen_exp:
                seen_dot = True
                i += 1
            elif c in "eE" and not seen_exp and i > start:
                # Exponent must be followed by digits or a sign.
                if i + 1 < n and (text[i + 1].isdigit() or text[i + 1] in "+-"):
                    seen_exp = True
                    i += 2 if text[i + 1] in "+-" else 1
                else:
                    break
            else:
                break
    # Integer/float suffixes (C/Java): 10UL, 1.5f, 100L
    while i < n and text[i] in "uUlLfF":
        i += 1
    return i


def _sep_between(text: str, i: int, n: int, digits: str) -> bool:
    """True when the apostrophe at ``i`` sits between two digits (C++14)."""
    return i > 0 and i + 1 < n and text[i - 1] in digits and text[i + 1] in digits


def tokenize(text: str, spec: LanguageSpec) -> List[Token]:
    """Convenience wrapper: tokenise ``text`` with language ``spec``."""
    return Lexer(spec).tokenize(text)

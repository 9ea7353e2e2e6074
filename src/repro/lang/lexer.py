"""A generic, specification-driven lexer that emits token columns.

One lexer covers C, C++, Java, and Python by being parameterised over a
:class:`~repro.lang.languages.LanguageSpec`. It is deliberately tolerant:
unterminated strings and comments lex to the end of file rather than raising,
because the analyzers must degrade gracefully on malformed real-world code
(the paper's testbed runs unattended over hundreds of applications).

Each spec compiles, on first use, one master pattern: an alternation of
every lexeme shape, in the priority order of a character-dispatch lexer
(a comment head before an operator, a number before a ``.``, a triple
quote before a plain one), inside one group that the blanks before a
lexeme precede. A :class:`Lexer` built with ``as_columns=True`` runs the
pattern with ``findall`` and classifies each lexeme by an exact-lexeme
dict (keywords, operators, punctuation, line breaks) or else by its
first character. The result is a :class:`TokenColumns`: the file's code
tokens as three parallel lists (``kinds``, ``texts``, ``lines``), plus
the comments, preprocessor lines and multi-line strings that line
counting and smell detection read. No per-lexeme object is built, which
is where a token-object lexer spent most of its time.

:func:`tokenize` is the positional view of the same pattern and
classification: it walks the matches with ``search`` and returns one
:class:`~repro.lang.tokens.Token` per lexeme, with NEWLINE and COMMENT
tokens, columns and offsets (``text == source[offset:offset +
len(text)]``). It also serves the rare file in which a non-ASCII digit,
or a non-ASCII character that is neither letter nor digit but is
followed by a word character, starts a token: those lexemes need the
character-level rules of :func:`_scan_number` and a rescan from the
position they end at, which ``findall`` cannot give.

Identifier and number texts are interned, so the many set/dict membership
tests downstream (Halstead vocabularies, decision-token counts, call-site
scans) hit pointer-equality fast paths and repeated lexemes share storage.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.lang.languages import LanguageSpec
from repro.lang.tokens import Token, TokenKind

# Multi-character operators; :func:`_operator_shape` matches them
# longest first (maximal munch).
_MULTI_OPS = (
    "<<=", ">>=", "...", "->*", "**=", "//=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::", "**", "//",
    ":=",
)
_SINGLE_OPS = "+-*/%<>=!&|^~?.@"
_PUNCT = "()[]{},;:"


def _operator_shape() -> str:
    """Every operator and ':' as one alternation per first character.

    Within a first character the longer operators come first, so the
    match is the longest operator there (maximal munch).
    """
    rests: Dict[str, set] = {}
    for op in _MULTI_OPS + tuple(_SINGLE_OPS) + (":",):
        rests.setdefault(op[0], set()).add(op[1:])
    shapes = []
    for first, tails in sorted(rests.items()):
        longer = sorted(filter(None, tails), key=lambda t: (-len(t), t))
        shape = re.escape(first)
        if longer:
            # Every multi-character operator's first character is an
            # operator on its own, so the tail is optional.
            shape += "(?:" + "|".join(map(re.escape, longer)) + ")?"
        shapes.append(shape)
    return "|".join(shapes)


_OPERATOR_SHAPE = _operator_shape()

# Lexeme shapes. ``\w`` matches precisely ``str.isalnum()`` plus ``_``,
# the identifier-continuation predicate.
#
# A lone \r ends a line like \n does; the \r of a \r\n pair stays inside
# a line-bound token, so the pair counts once (at its \n).
_TO_EOL = r"(?:[^\n\r]|\r(?=\n))*"
# Preprocessor lines: a newline continues the directive only when the
# preceding character is a backslash.
_PREPROC_RUN = r"(?:[^\n\r]|\r(?=\n)|(?<=\\)\n)*"
_HWS = r"[ \t\f\v]*"

# Numeric literals: underscores anywhere in a digit run, C++14
# apostrophes only between two digits (the lookbehind / following-digit
# pair), one optional dot, one optional exponent that must be followed
# by a digit or sign, then integer/float suffix letters.
_DEC_SEG = r"[0-9_]*(?:(?<=[0-9])'[0-9][0-9_]*)*"
_DEC_EXP = r"(?:[eE](?:[+-]|(?=[0-9]))" + _DEC_SEG + r")?[uUlLfF]*"
_NUMBER = (
    r"0[xX][0-9a-fA-F_]*(?:(?<=[0-9a-fA-F])'[0-9a-fA-F][0-9a-fA-F_]*)*"
    r"[uUlLfF]*"
    r"|0[bB][01_]*(?:(?<=[01])'[01][01_]*)*[uUlLfF]*"
    r"|[0-9]" + _DEC_SEG + r"(?:\." + _DEC_SEG + r")?" + _DEC_EXP
    + r"|\.(?=[0-9])" + _DEC_SEG + _DEC_EXP
)


def _string_shape(delim: str) -> str:
    """A single-line string or char literal.

    An escape consumes the next character unless it is a line break; an
    unescaped line break (or end of file) ends the token without being
    consumed, a dangling backslash is kept, and the closing delimiter is
    consumed when present.
    """
    return (delim + r"(?:[^" + delim + r"\n\r\\]|\\(?:[^\n\r]|\r(?=\n))"
            r"|\r(?=\n))*\\?" + delim + "?")


def _triple_shape(quote: str) -> str:
    """A triple-quoted string: escape pairs (escaped newlines and quotes
    too) are opaque and the first unescaped closing quote ends it; an
    unterminated one runs to end of file. The body alternatives are
    first-character disjoint, so the lazy scan is linear."""
    return quote + r"(?:\\[\s\S]|[^\\])*?(?:" + quote + r"|\\?\Z)"


# Sequential escape-pair/line-break walk, for counting the unescaped
# line breaks of a triple-quoted string (an escaped newline does not
# advance the line). ``\r\n`` is one terminator, a lone ``\r`` another.
_ESC_OR_NL = re.compile(r"\\.|\r\n?|\n", re.S)

_intern = sys.intern

_NEWLINE = TokenKind.NEWLINE
_IDENT = TokenKind.IDENT
_NUMBER_KIND = TokenKind.NUMBER
_PREPROC = TokenKind.PREPROC
_COMMENT = TokenKind.COMMENT
_UNKNOWN = TokenKind.UNKNOWN
_OPERATOR = TokenKind.OPERATOR

#: Kinds whose texts the Token view interns, as a token-object lexer did.
_INTERN_KINDS = frozenset({
    TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.NUMBER,
    TokenKind.OPERATOR, TokenKind.PUNCT,
})

# First-character class of a lexeme the exact dict does not know: a '.'
# opens a number (".5") or is a '.' before a non-ASCII character.
_DOT = object()


class TokenColumns:
    """One file's code tokens as parallel columns, plus side data.

    ``kinds[i]``, ``texts[i]`` and ``lines[i]`` are the kind, exact text
    and 1-based start line of the i-th code token (every token but
    comments and line breaks). The side lists hold ``(line, text)``
    pairs: ``comments`` every comment, ``directives`` every preprocessor
    line (also a code token), ``multiline_strings`` every string token
    whose text holds a ``\\n``.
    """

    __slots__ = ("kinds", "texts", "lines", "comments", "directives",
                 "multiline_strings")

    def __init__(self, kinds: List[TokenKind], texts: List[str],
                 lines: List[int], comments: List[Tuple[int, str]],
                 directives: List[Tuple[int, str]],
                 multiline_strings: List[Tuple[int, str]]):
        self.kinds = kinds
        self.texts = texts
        self.lines = lines
        self.comments = comments
        self.directives = directives
        self.multiline_strings = multiline_strings


class _Tables:
    """A spec's compiled master pattern and lexeme classification."""

    __slots__ = ("pattern", "leading", "exact", "lead", "triples",
                 "block_open")

    def __init__(self, spec: LanguageSpec):
        directive = ""
        self.leading = None
        if spec.has_preprocessor:
            # '#' opens a directive only as the first token of a line: at
            # the start of the file, or right after a line break (the
            # break's lexeme carries the directive along).
            directive = "(?:" + _HWS + "#" + _PREPROC_RUN + ")?"
            self.leading = re.compile(_HWS + "(#" + _PREPROC_RUN + ")")
        # Shapes whose first characters overlap keep the order of a
        # character-dispatch lexer: comments before operators, numbers
        # and the non-ASCII '.' before '.', triple quotes before plain
        # ones.
        shapes = [r"[A-Za-z_]\w*", r"\r?\n" + directive, r"\r" + directive,
                  r"[()\[\]{},;]"]
        for marker in spec.line_comment:
            shapes.append(re.escape(marker) + _TO_EOL)
        if spec.block_comment is not None:
            # An unterminated comment lexes to end of file.
            opener, closer = map(re.escape, spec.block_comment)
            shapes.append(opener + r"(?:[\s\S]*?" + closer + r"|[\s\S]*)")
        shapes.append(_NUMBER)
        self.triples: Tuple[str, ...] = ()
        if spec.triple_strings:
            self.triples = ('"""', "'''")
            shapes.extend(_triple_shape(q) for q in self.triples)
        quotes = {d: TokenKind.STRING for d in spec.string_delims}
        if spec.char_delim is not None:
            quotes.setdefault(spec.char_delim, TokenKind.CHAR)
        shapes.extend(_string_shape(d) for d in quotes)
        # A '.' before a non-ASCII character: a number when that is a
        # digit (str.isdigit), else an operator; the rescan decides.
        shapes.append(r"\.[^\x00-\x7f]")
        shapes.append(_OPERATOR_SHAPE)
        # Non-ASCII: a letter opens an identifier run; anything else is
        # told apart by the classification.
        shapes.append(r"[^\x00-\x7f]\w*")
        shapes.append(r"[^ \t\f\v\n\r]")
        # Leading blanks ride in the match, outside the group findall
        # returns, so the engine does not retry every shape at each
        # blank. Every position matches some shape (the end of the text
        # an empty one), so no blank run is ever scanned twice.
        shapes.append(r"\Z")
        self.pattern = re.compile(_HWS + "(" + "|".join(shapes) + ")")

        lead: Dict[str, object] = {}
        for c in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_":
            lead[c] = _IDENT
        for c in "0123456789":
            lead[c] = _NUMBER_KIND
        lead["."] = _DOT
        for marker in spec.line_comment:
            lead[marker[0]] = _COMMENT
        if spec.block_comment is not None:
            lead[spec.block_comment[0][0]] = _COMMENT
        lead.update(quotes)
        if spec.has_preprocessor:
            lead["\n"] = lead["\r"] = _NEWLINE
        self.lead = lead
        self.block_open = (spec.block_comment[0]
                           if spec.block_comment is not None else None)

        exact: Dict[str, TokenKind] = {}
        for c in map(chr, range(128)):
            if c not in lead and c not in " \t\f\v\n\r":
                exact[c] = _UNKNOWN
        heads = spec.line_comment + (
            spec.block_comment[:1] if spec.block_comment is not None else ())
        for op in _MULTI_OPS + tuple(_SINGLE_OPS):
            if not op.startswith(heads):  # C's "//" is a comment
                exact[op] = _OPERATOR
        for c in _PUNCT:
            exact[c] = TokenKind.PUNCT
        for word in spec.keywords:
            exact[word] = TokenKind.KEYWORD
        exact["\n"] = exact["\r"] = exact["\r\n"] = _NEWLINE
        self.exact = exact


_TABLES: Dict[str, _Tables] = {}


def _tables_for(spec: LanguageSpec) -> _Tables:
    """The spec's tables, compiled on first use and cached by name."""
    tables = _TABLES.get(spec.name)
    if tables is None:
        tables = _TABLES[spec.name] = _Tables(spec)
    return tables


class _Rescan(Exception):
    """A lexeme needs the positional scan (see the module notes)."""


def _rare_kind(lex: str) -> Optional[TokenKind]:
    """Kind of a lexeme that opens with '.' or a non-ASCII character.

    None when the kind or the lexeme's extent depends on characters the
    pattern cannot classify: the positional scan then decides.
    """
    c = lex[0]
    if c == ".":
        return _NUMBER_KIND if lex[1].isascii() else None
    if c.isalpha():
        return _IDENT
    if len(lex) == 1 and not c.isdigit():
        return _UNKNOWN
    return None


def _findall_columns(text: str, tables: _Tables) -> TokenColumns:
    """The columns of ``text`` from one ``findall`` scan.

    Raises :class:`_Rescan` at a lexeme only the positional scan can
    classify.
    """
    kinds: List[TokenKind] = []
    texts: List[str] = []
    lines: List[int] = []
    comments: List[Tuple[int, str]] = []
    directives: List[Tuple[int, str]] = []
    strings: List[Tuple[int, str]] = []
    add_kind = kinds.append
    add_text = texts.append
    add_line = lines.append
    exact_get = tables.exact.get
    lead_get = tables.lead.get
    triples = tables.triples
    block_open = tables.block_open
    NEWLINE, IDENT, NUMBER = _NEWLINE, _IDENT, _NUMBER_KIND
    COMMENT, PREPROC = _COMMENT, _PREPROC
    intern = _intern
    line = 1
    pos = 0
    if tables.leading is not None:
        m = tables.leading.match(text)
        if m is not None:
            directive = m.group(1)
            add_kind(PREPROC)
            add_text(directive)
            add_line(1)
            directives.append((1, directive))
            line += directive.count("\n")
            pos = m.end()
    lexemes = tables.pattern.findall(text, pos)
    while lexemes and not lexemes[-1]:
        lexemes.pop()  # the empty matches at the end of the text
    for lex in lexemes:
        kind = exact_get(lex)
        if kind is None:
            lead = lead_get(lex[0])
            if lead is IDENT or lead is NUMBER:
                add_kind(lead)
                add_text(intern(lex))
                add_line(line)
                continue
            if lead is COMMENT:
                comments.append((line, lex))
                if block_open is not None and lex.startswith(block_open):
                    line += _line_breaks(lex)
                continue
            if lead is NEWLINE:
                # A line break and the directive that opens the next line.
                line += 1
                directive = lex[lex.index("#"):]
                add_kind(PREPROC)
                add_text(directive)
                add_line(line)
                directives.append((line, directive))
                line += directive.count("\n")
                continue
            if lead is not None and lead is not _DOT:  # STRING or CHAR
                add_kind(lead)
                add_text(lex)
                add_line(line)
                if triples and lex.startswith(triples):
                    if "\n" in lex:
                        strings.append((line, lex))
                    line += _triple_breaks(lex)
                continue
            kind = _rare_kind(lex)
            if kind is None:
                raise _Rescan
            add_kind(kind)
            add_text(lex if kind is _UNKNOWN else intern(lex))
            add_line(line)
            continue
        if kind is NEWLINE:
            line += 1
            continue
        add_kind(kind)
        add_text(lex)
        add_line(line)
    return TokenColumns(kinds, texts, lines, comments, directives, strings)


def _token_stream(text: str, tables: _Tables
                  ) -> Iterator[Tuple[TokenKind, str, int, int, int]]:
    """``(kind, text, line, col, offset)`` of every token, in order.

    The positional walk of the master pattern with ``finditer``. A
    lexeme the pattern over-reads (see :func:`_rare_kind`) is cut back
    to its real extent and the walk restarts where it ends.
    """
    finditer = tables.pattern.finditer
    exact_get = tables.exact.get
    lead_get = tables.lead.get
    triples = tables.triples
    block_open = tables.block_open
    line = 1
    bol = 0  # offset where the current line's columns count from
    pos = 0
    if tables.leading is not None:
        m = tables.leading.match(text)
        if m is not None:
            directive, start = m.group(1), m.start(1)
            yield _PREPROC, directive, 1, start + 1, start
            line += directive.count("\n")
            bol = _bol_after(directive, start, bol)
            pos = m.end()
    while True:
        for m in finditer(text, pos):
            lex = m.group(1)
            if not lex:  # the empty match at the end of the text
                return
            start = m.start(1)
            kind = exact_get(lex)
            if kind is _NEWLINE:
                if lex == "\r\n":  # the \r is a blank; the \n ends the line
                    lex = "\n"
                    start += 1
                yield _NEWLINE, lex, line, start - bol + 1, start
                line += 1
                bol = start + 1
                continue
            if kind is not None:
                yield kind, lex, line, start - bol + 1, start
                continue
            lead = lead_get(lex[0])
            if lead is _IDENT or lead is _NUMBER_KIND:
                yield lead, lex, line, start - bol + 1, start
            elif lead is _COMMENT:
                yield _COMMENT, lex, line, start - bol + 1, start
                if block_open is not None and lex.startswith(block_open):
                    line += _line_breaks(lex)
                    bol = _bol_after(lex, start, bol)
            elif lead is _NEWLINE:
                # A line break and the directive that opens the next line.
                hash_at = lex.index("#")
                if lex.startswith("\r\n"):
                    start += 1
                yield _NEWLINE, text[start], line, start - bol + 1, start
                line += 1
                bol = start + 1
                directive = lex[hash_at:]
                start = m.end() - len(directive)
                yield _PREPROC, directive, line, start - bol + 1, start
                line += directive.count("\n")
                bol = _bol_after(directive, start, bol)
            elif lead is not None and lead is not _DOT:  # STRING or CHAR
                yield lead, lex, line, start - bol + 1, start
                if triples and lex.startswith(triples):
                    line += _triple_breaks(lex)
                    bol = _bol_after(lex, start, bol)
            else:
                kind = _rare_kind(lex)
                if kind is not None:
                    yield kind, lex, line, start - bol + 1, start
                    continue
                c = lex[0]
                if c == ".":
                    kind = _NUMBER_KIND if lex[1].isdigit() else _OPERATOR
                    pos = start + 1
                elif c.isdigit():
                    kind = _NUMBER_KIND
                    pos = _scan_number(text, start)
                else:
                    kind = _UNKNOWN
                    pos = start + 1
                yield kind, text[start:pos], line, start - bol + 1, start
                break  # restart the walk where the real lexeme ends


def _columns_of(stream) -> TokenColumns:
    """:class:`TokenColumns` from a positional token stream."""
    columns = TokenColumns([], [], [], [], [], [])
    for kind, text, line, _, _ in stream:
        if kind is _NEWLINE:
            continue
        if kind is _COMMENT:
            columns.comments.append((line, text))
            continue
        if kind is _PREPROC:
            columns.directives.append((line, text))
        elif kind is TokenKind.STRING and "\n" in text:
            columns.multiline_strings.append((line, text))
        columns.kinds.append(kind)
        columns.texts.append(_intern(text) if kind in _INTERN_KINDS
                             else text)
        columns.lines.append(line)
    return columns


def _bol_after(lex: str, start: int, bol: int) -> int:
    """Column origin after a token that may span lines.

    Columns restart after the token's last ``\\n`` or, failing that, its
    last ``\\r``.
    """
    nl = lex.rfind("\n")
    if nl == -1:
        nl = lex.rfind("\r")
    return bol if nl == -1 else start + nl + 1


def _line_breaks(text: str) -> int:
    """Line terminators in ``text``; ``\\r\\n`` counts once."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _triple_breaks(lex: str) -> int:
    """Unescaped line terminators in a triple-quoted string."""
    if "\\" not in lex:
        return _line_breaks(lex)
    return sum(1 for m in _ESC_OR_NL.finditer(lex) if m.group()[0] != "\\")


def _scan_number(text: str, i: int) -> int:
    """Scan a numeric literal starting at ``i``; return the end offset.

    The rules for a literal that opens with a non-ASCII digit, whose
    digit runs are ``str.isdigit`` runs. Digit-separator underscores and
    C++14 apostrophes between two ASCII digits are consumed.
    """
    n = len(text)
    start = i
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


class Lexer:
    """Tokenises source text according to a :class:`LanguageSpec`.

    :meth:`tokenize` is the lexer's one entry point. A lexer built with
    ``as_columns=True`` returns the file's :class:`TokenColumns` (what
    ``SourceFile.columns`` holds); otherwise it returns the ``Token``
    list.
    """

    def __init__(self, spec: LanguageSpec, as_columns: bool = False):
        self.spec = spec
        self.as_columns = as_columns

    def tokenize(self, text: str) -> Union[List[Token], TokenColumns]:
        """Tokenise ``text`` into columns or a list of :class:`Token`.

        The ``Token`` list holds every lexeme, newlines included as
        NEWLINE tokens so line-oriented callers can recover physical
        structure. A lone ``\\r`` (legacy Mac line ending) terminates a
        line exactly like ``str.splitlines`` says it does; ``\\r\\n``
        counts once.
        """
        tables = _tables_for(self.spec)
        if self.as_columns:
            try:
                return _findall_columns(text, tables)
            except _Rescan:
                return _columns_of(_token_stream(text, tables))
        intern_kinds = _INTERN_KINDS
        return [
            Token(kind, _intern(word) if kind in intern_kinds else word,
                  line, col, offset)
            for kind, word, line, col, offset in _token_stream(text, tables)
        ]


def tokenize(text: str, spec: LanguageSpec) -> List[Token]:
    """Convenience wrapper: tokenise ``text`` with language ``spec``."""
    return Lexer(spec).tokenize(text)

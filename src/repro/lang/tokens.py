"""Token model shared by the lexer and its callers.

The analysis substrate operates on flat token streams rather than full
abstract syntax trees: every metric the paper draws on (LoC, McCabe,
Halstead, declaration counts, smells, bug patterns) is computable from
tokens plus light structural recovery, which keeps the lexer small enough
to be correct for four languages.

The analyzers read tokens as columns (:class:`repro.lang.lexer.
TokenColumns`: one :class:`TokenKind` list, one text list, one line
list). :class:`Token` is the per-lexeme object of the ``Token`` views
(``SourceFile.tokens``, ``code_tokens``, :func:`repro.lang.tokenize`)
that callers outside the analysis path use.
"""

from __future__ import annotations

import enum


class TokenKind(enum.Enum):
    """Classification of a lexical token."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    OPERATOR = "operator"
    PUNCT = "punct"
    COMMENT = "comment"
    PREPROC = "preproc"
    NEWLINE = "newline"
    UNKNOWN = "unknown"

    # Members are singletons, so identity hashing is sound — and the
    # C-level object hash roughly halves the cost of the `kind in
    # OPERATOR_KINDS`-style membership tests the analyzers do millions
    # of times per tree (enum's own __hash__ is a Python-level call).
    __hash__ = object.__hash__


#: Kinds that contribute to Halstead operator/operand classification.
OPERATOR_KINDS = frozenset({TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.PUNCT})
OPERAND_KINDS = frozenset(
    {TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING, TokenKind.CHAR}
)


#: Kinds excluded from code-token streams (structure/documentation only).
NON_CODE_KINDS = frozenset({TokenKind.COMMENT, TokenKind.NEWLINE})


class Token:
    """A single lexical token.

    A plain ``__slots__`` class rather than a dataclass: a ``Token``
    view holds one per lexeme, and a direct ``__init__`` is several
    times faster than the frozen dataclass ``object.__setattr__`` path
    while keeping the same field order, defaults, equality, and repr.

    Attributes:
        kind: the :class:`TokenKind` classification.
        text: the exact source text of the token.
        line: 1-based line number where the token starts.
        col: 1-based column number where the token starts.
        offset: 0-based character offset of the token in the source text,
            or -1 for synthetic tokens. ``text == source[offset:offset +
            len(text)]`` holds for every lexer-produced token — the
            round-trip invariant the artifact property suite checks.
    """

    __slots__ = ("kind", "text", "line", "col", "offset")

    def __init__(self, kind: TokenKind, text: str, line: int,
                 col: int = 1, offset: int = -1):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.offset = offset

    def is_code(self) -> bool:
        """True for tokens that are part of executable/declarative code."""
        return self.kind not in NON_CODE_KINDS

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind is other.kind and self.text == other.text
                and self.line == other.line and self.col == other.col
                and self.offset == other.offset)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line, self.col, self.offset))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, L{self.line})"

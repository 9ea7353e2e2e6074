"""Differential test: the columnar lexer against its reference.

``tests/lang/lexer_reference.py`` is the character-dispatch lexer the
columnar one replaced. On generated text in all four languages:

- the ``Token`` view (:func:`repro.lang.tokenize`) must equal the
  reference exactly: kind, text, line, col and offset;
- the columns (``Lexer(spec, as_columns=True)``) must equal the
  view's code tokens on kind, text and line, and the side lists must
  hold exactly its comments, directives and multi-line strings.

The generator glues fragments chosen to hit every rule whose order or
extent is easy to get wrong: lone ``\\r``, CRLF, ``\\f``/``\\v``;
escapes and escaped newlines inside triple strings; digit separators
and non-ASCII digits and letters; ``#`` at and off line start, and
backslash-continued directives; comments next to code on one line;
unterminated literals, comments and triple strings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ALL_LANGUAGES, Lexer, TokenKind, tokenize

from tests.lang import lexer_reference

_FRAGMENTS = (
    # line breaks and blanks
    "\n", "\r", "\r\n", "\n\r", "\f", "\v", "\t", " ", "  ", "\\\n",
    "\\\r\n", "\\",
    # directives, at and off line start, continued
    "#", "#define X 1", "#include <a.h>", "  #if A \\\n  && B",
    "#x \\\r\n y", "# // not a comment", "a #b", "##",
    "\n#if A \\\n B\nx", "\r\n #x \\\n y\r\nz", "\r#d\rw",
    # comments, alone, next to code, and spanning lines
    "//", "// c", "/*", "*/", "/* a\nb */", "/**/", "/*/", "x=1;//c",
    "a/*c*/b", "# py comment", "x = 1  # note", "/*\r*/",
    "/* a\r\nb\r*/",
    # strings, chars, triple strings, escapes, unterminated
    '"', "'", '"a"', "'b'", '"a\\"b"', "'\\''", '"\\\n"', '"ab',
    "'c", '"""', "'''", '"""a\\\nb"""', "'''x\\'''y'''", '"""\\"""',
    '"""a\r\nb\\\r\nc"""', "'''open\n", '"""\\', '""', "''", "'''\r'''",
    '"""a\rb"""',
    # numbers: separators, suffixes, exponents, radix, non-ASCII digits
    "1'000", "1'", "0x1F'FF", "0b1'0", "1_000", "1.5e+3f", "10UL",
    ".5", "1.", "1e", "0x", "٣", "٣.5", "²", "1٣", ".٣", ".²",
    # identifiers, keywords, non-ASCII letters and others
    "ab", "x1", "if", "while", "def", "class", "é", "café", "日本",
    "�", "½", "\x1c", " ", "\xa0", "$", "@", "`",
    # operators and punctuation
    "=", "==", "->", "->*", "+=", "//=", "**", "...", "..", ".", "::",
    ":=", "(", ")", "{", "}", "[", "]", ";", ":", ",", "?", "~",
)

_texts = st.lists(
    st.sampled_from(_FRAGMENTS)
    | st.text(alphabet="ab1_.'\"#/*\\\n\r \t=:é٣", max_size=3),
    max_size=40,
).map("".join)


def _full(tokens):
    return [(t.kind, t.text, t.line, t.col, t.offset) for t in tokens]


def _pairs(tokens, kind):
    return [(t.line, t.text) for t in tokens if t.kind is kind]


@settings(max_examples=400, deadline=None)
@given(_texts, st.sampled_from(ALL_LANGUAGES))
def test_token_view_and_columns_match_reference(text, spec):
    reference = lexer_reference.tokenize(text, spec)
    view = tokenize(text, spec)
    assert _full(view) == _full(reference), (text, spec.name)

    columns = Lexer(spec, as_columns=True).tokenize(text)
    code = [t for t in view if t.is_code()]
    assert list(zip(columns.kinds, columns.texts, columns.lines)) == [
        (t.kind, t.text, t.line) for t in code
    ], (text, spec.name)
    assert columns.comments == _pairs(view, TokenKind.COMMENT)
    assert columns.directives == _pairs(view, TokenKind.PREPROC)
    assert columns.multiline_strings == [
        (t.line, t.text) for t in view
        if t.kind is TokenKind.STRING and "\n" in t.text
    ]

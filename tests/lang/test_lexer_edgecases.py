"""Regression tests for lexer edge cases fixed with the artifact refactor.

Each class pins one historically wrong behaviour:

- line accounting for lone ``\\r`` and ``\\r\\n`` terminators now matches
  ``str.splitlines`` (CR used to be treated as plain whitespace);
- digit separators (C++14 ``1'000'000``, Python ``1_000``) now lex as a
  single NUMBER token instead of splitting at the separator;
- block comments: column tracking after a multi-line comment, and an
  unterminated comment consuming exactly the rest of the file as one
  COMMENT token instead of leaking garbage tokens.
"""

from repro.lang import C, CPP, PYTHON, TokenKind, tokenize


def _kinds_texts(text, spec, kind):
    return [t.text for t in tokenize(text, spec) if t.kind == kind]


class TestCarriageReturnLines:
    def test_lone_cr_advances_lines(self):
        toks = tokenize("int a;\rint b;\rint c;\n", C)
        lines = [t.line for t in toks if t.kind == TokenKind.KEYWORD]
        assert lines == [1, 2, 3]

    def test_crlf_counts_once(self):
        text = "int a;\r\nint b;\r\nint c;\r\n"
        toks = tokenize(text, C)
        lines = [t.line for t in toks if t.kind == TokenKind.KEYWORD]
        assert lines == [1, 2, 3]
        newlines = [t for t in toks if t.kind == TokenKind.NEWLINE]
        assert len(newlines) == 3  # one per \r\n pair, not two

    def test_terminator_count_matches_splitlines(self):
        for text in ("a\rb", "a\r\nb", "a\nb", "a\r\rb", "a\n\rb"):
            toks = tokenize(text, C)
            n_newlines = sum(1 for t in toks if t.kind == TokenKind.NEWLINE)
            assert n_newlines == len(text.splitlines()) - 1, text
            assert toks[-1].line == len(text.splitlines()), text

    def test_lone_cr_ends_line_bound_tokens(self):
        # Directives, line comments and plain strings stop at a lone \r
        # exactly as they stop at \n; the next token is on line 2.
        for text, spec in (("#\r0", C), ("//\r0", C), ('"a\r0', C),
                           ('"a\\\r0', C), ("#\r0", PYTHON)):
            toks = tokenize(text, spec)
            assert toks[-1].text == "0" and toks[-1].line == 2, (text, toks)
            assert "\r" not in toks[0].text, (text, toks)

    def test_crlf_stays_inside_line_bound_tokens(self):
        toks = tokenize("#x\r\n//y\r\n0", C)
        assert [t.text for t in toks[:3]] == ["#x\r", "\n", "//y\r"]
        assert toks[-1].line == 3

    def test_lone_cr_inside_multiline_tokens_counts(self):
        for text, spec in (("/*\r*/0", C), ("/*\r\n\r*/0", C),
                           ("'''\r'''0", PYTHON), ("'''\r\n\r'''0", PYTHON)):
            toks = tokenize(text, spec)
            assert toks[-1].line == len(text.splitlines()), (text, toks)


class TestDigitSeparators:
    def test_cpp_quote_separator_single_token(self):
        assert _kinds_texts("x = 1'000'000;", CPP, TokenKind.NUMBER) == \
            ["1'000'000"]

    def test_hex_with_separator_and_suffix(self):
        assert _kinds_texts("m = 0xFF'FFul;", CPP, TokenKind.NUMBER) == \
            ["0xFF'FFul"]

    def test_python_underscore_separator(self):
        assert _kinds_texts("x = 1_000_000", PYTHON, TokenKind.NUMBER) == \
            ["1_000_000"]

    def test_separator_needs_digits_both_sides(self):
        # A trailing quote is a char literal, not part of the number.
        toks = tokenize("a = 1' '", C)
        numbers = [t.text for t in toks if t.kind == TokenKind.NUMBER]
        assert numbers == ["1"]


class TestBlockComments:
    def test_column_after_multiline_comment(self):
        toks = tokenize("/* a\n * b */ int z;", C)
        kw = next(t for t in toks if t.kind == TokenKind.KEYWORD)
        # `... * b */ int` — 'int' starts at column 9 of line 2.
        assert (kw.line, kw.col) == (2, 9)

    def test_unterminated_block_comment_is_one_token(self):
        text = "int x = 1; /* never closes\nint y = 2;\nint z = 3;"
        toks = tokenize(text, C)
        comments = [t for t in toks if t.kind == TokenKind.COMMENT]
        assert len(comments) == 1
        assert comments[0].text == text[text.index("/*"):]
        # Nothing after the comment opener leaks out as code.
        idents = [t.text for t in toks if t.kind == TokenKind.IDENT]
        assert idents == ["x"]

    def test_comment_interior_newlines_counted(self):
        toks = tokenize("/* a\nb\nc */ int z;", C)
        kw = next(t for t in toks if t.kind == TokenKind.KEYWORD)
        assert kw.line == 3

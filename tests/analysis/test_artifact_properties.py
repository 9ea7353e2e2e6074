"""Property-based suite for the single-parse artifact and lexer invariants.

Random C-like and Python-like programs (plus raw text noise) must uphold:

- fused ``file_record`` equals the legacy reference on every generated
  program, per analyzer;
- token offsets are non-decreasing and each real token's text is the
  exact source slice at its offset (round-trip invariant);
- concatenating lexemes in offset order reconstructs the file text
  exactly for comment-free single-byte sources, and token line numbers
  agree with ``str.splitlines`` arithmetic in general;
- artifact caching is idempotent: repeated property access returns the
  same objects.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.artifact import FileArtifact, artifact_for
from repro.core.features import file_record, file_record_legacy
from repro.lang import C, PYTHON, tokenize
from repro.lang.sourcefile import SourceFile

from tests.analysis.conftest import fresh_copy


# -- random program generators ------------------------------------------------

@st.composite
def c_like_sources(draw):
    decls = ["int x = 0;", "char *buf;", "double r = 1.5;"]
    stmts = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["assign", "if", "while", "call", "cmt"]))
        var = draw(st.sampled_from("abcxyz"))
        val = draw(st.integers(0, 999))
        if kind == "assign":
            stmts.append(f"{var} = {val};")
        elif kind == "if":
            stmts.append(f"if ({var} > {val}) {{ {var} = {val}; }}")
        elif kind == "while":
            stmts.append(f"while ({var} < {val}) {{ {var} = {var} + 1; }}")
        elif kind == "call":
            stmts.append(f"{var} = strcpy(buf, argv[{val % 4}]);")
        else:
            stmts.append(f"/* note {val} */")
    body = "\n".join(decls + stmts)
    return f"int work(int a, char **argv) {{\n{body}\nreturn a;\n}}\n"


@st.composite
def py_like_sources(draw):
    lines = ["def work(a, b):", "    x = 0"]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["assign", "if", "for", "cmt", "str"]))
        var = draw(st.sampled_from("abxyz"))
        val = draw(st.integers(0, 99))
        if kind == "assign":
            lines.append(f"    {var} = {val}")
        elif kind == "if":
            lines.append(f"    if {var} > {val}:")
            lines.append(f"        {var} = {val} + 1")
        elif kind == "for":
            lines.append(f"    for i in range({val + 1}):")
            lines.append("        x = x + i")
        elif kind == "cmt":
            lines.append(f"    # comment {val}")
        else:
            lines.append(f"    s = \"lit{val}\"")
    lines.append("    return x")
    return "\n".join(lines) + "\n"


def _assert_fused_equals_legacy(path, text):
    source = SourceFile(path, text)
    fused = file_record(source)
    legacy = file_record_legacy(fresh_copy(source))
    assert repr(fused) == repr(legacy), text
    assert json.dumps(fused) == json.dumps(legacy), text


@settings(max_examples=60, deadline=None)
@given(c_like_sources())
def test_fused_equals_legacy_on_random_c(text):
    _assert_fused_equals_legacy("t.c", text)


@settings(max_examples=60, deadline=None)
@given(py_like_sources())
def test_fused_equals_legacy_on_random_python(text):
    _assert_fused_equals_legacy("t.py", text)


# -- lexer round-trip invariants ----------------------------------------------

def _real_tokens(tokens):
    return [t for t in tokens if t.offset >= 0]


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126),
               max_size=160),
       st.sampled_from([C, PYTHON]))
def test_offsets_monotonic_and_slices_roundtrip(text, spec):
    tokens = _real_tokens(tokenize(text, spec))
    last = -1
    for tok in tokens:
        assert tok.offset >= last, (text, tok)
        last = tok.offset
        assert text[tok.offset : tok.offset + len(tok.text)] == tok.text, tok


def _terminators(chunk):
    """Line terminators in ``chunk``, with ``\\r\\n`` counting once."""
    return chunk.count("\n") + chunk.count("\r") - chunk.count("\r\n")


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126),
               max_size=160),
       st.sampled_from([C, PYTHON]))
def test_line_numbers_track_newline_terminators(text, spec):
    # The lexer's line accounting: 1 + completed \n/\r/\r\n terminators
    # before the token. (str.splitlines also splits on \x0b/\x1c/…, which
    # real languages do not treat as newlines — those stay on one line.)
    n_lines = _terminators(text) + 1
    for tok in _real_tokens(tokenize(text, spec)):
        prefix = text[: tok.offset]
        terms = _terminators(prefix)
        # A trailing '\r' whose pairing '\n' is this very token is half of
        # an incomplete \r\n pair — it has not finished a line yet.
        if prefix.endswith("\r") and tok.text.startswith("\n"):
            terms -= 1
        assert 1 <= tok.line <= n_lines, (text, tok)
        assert tok.line == terms + 1, (text, tok)


@settings(max_examples=80, deadline=None)
@given(c_like_sources())
def test_lexemes_reconstruct_source_modulo_whitespace(text):
    # Dropping every token's exact slice from the file must leave only
    # whitespace behind (nothing is silently swallowed or invented).
    tokens = _real_tokens(tokenize(text, C))
    consumed = bytearray(len(text))
    for tok in tokens:
        for i in range(tok.offset, tok.offset + len(tok.text)):
            consumed[i] = 1
    leftover = "".join(
        ch for ch, used in zip(text, consumed) if not used
    )
    assert leftover.strip() == "", leftover


# -- artifact caching ---------------------------------------------------------

def test_artifact_views_are_cached_and_stable():
    source = SourceFile("t.c", "int f(int a) { if (a) { a = 1; } return a; }\n")
    art = artifact_for(source)
    assert artifact_for(source) is art  # one artifact per SourceFile
    assert art.code_tokens is art.code_tokens
    assert art.functions is art.functions
    assert art.classes is art.classes
    assert art.cfgs is art.cfgs
    assert art.node_info(0) is art.node_info(0)
    assert len(art.function_cfgs()) == len(art.functions)


def test_artifact_not_pickled_with_sourcefile():
    import pickle

    source = SourceFile("t.c", "int f(void) { return 0; }\n")
    artifact_for(source).functions  # populate the cache
    clone = pickle.loads(pickle.dumps(source))
    assert clone._artifact is None
    assert isinstance(artifact_for(clone), FileArtifact)
    assert repr(artifact_for(clone).functions) == \
        repr(artifact_for(source).functions)


def test_artifact_holds_its_source_weakly():
    """No back-reference cycle: dropping the SourceFile frees both."""
    import gc
    import weakref

    import pytest

    source = SourceFile("lib/t.c", "int f(int a) { return a; }\n")
    art = artifact_for(source)
    assert art.source is source
    art.cfgs  # populate every structural view
    gone = weakref.ref(source)
    gc.disable()  # refcounting alone must free the file
    try:
        del source
        assert gone() is None
    finally:
        gc.enable()
    with pytest.raises(ReferenceError, match="lib/t.c"):
        art.source
    with pytest.raises(ReferenceError, match="lib/t.c"):
        art.tokens
    assert "lib/t.c" in repr(art)

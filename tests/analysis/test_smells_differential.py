"""Differential suite: the one-sweep smell counts against the per-hit reference.

Generated C, Java and Python text mixes every pattern the detectors
look at — magic numbers (hex, float suffixes, ``-1``, the trivial
values), TODO/FIXME markers, commented-out statements, repeated 6-line
windows, blank-line gaps, lines over 120 columns, files over 1000 lines
and functions that are long, take many parameters or nest deeply.
:func:`repro.analysis.smells.file_counts` must equal the counts of the
test-only reference detectors exactly, key order included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.artifact import artifact_for
from repro.analysis.smells import ALL_DETECTORS, file_counts
from repro.lang.sourcefile import SourceFile
from tests.analysis.smells_reference import reference_counts

_NUMBERS = ("0", "1", "2", "10", "100", "0.0", "1.0", "-1", "1UL", "2L",
            "0x1F", "0xff", "1.0f", "3.14", "31337", "1e9", "7u", "0.5F")

_COMMENT = {"c": ("//", "/*", " */"), "java": ("//", "/*", " */"),
            "python": ("#", "#", "")}

_COMMENT_BODIES = (
    "TODO: fix overflow", "FIXME later", "xxx remove", "hack around it",
    "x = 1;", "return x;", "if (a) {", "for (i = 0; i < n; i++) {",
    "while (1) {", "computes the sum", "a;", "note = value", "x=1;",
    "return ", "todo", "",
)

_PATHS = {"c": "t.c", "java": "T.java", "python": "t.py"}


def _function(lang, name, params, body_lines, depth):
    """A function in ``lang`` with ``params`` parameters, ``body_lines``
    straight-line statements and ``depth`` nested ifs."""
    if lang == "python":
        out = [f"def {name}({', '.join(f'p{i}' for i in range(params))}):"]
        indent = "    "
        for _ in range(depth):
            out.append(f"{indent}if p0:")
            indent += "    "
        out += [f"{indent}x = x + {i}" for i in range(body_lines)]
        out.append(f"{indent}return 0")
        return out
    args = ", ".join(f"int p{i}" for i in range(params))
    head = f"int {name}({args}) {{"
    out = [f"    {head}" if lang == "java" else head]
    for level in range(depth):
        out.append("  " * (level + 1) + "if (p0) {")
    out += [f"    x = x + {i};" for i in range(body_lines)]
    out += ["  " * (level + 1) + "}" for level in reversed(range(depth))]
    out += ["    return 0;", "}"]
    return out


@st.composite
def chunks(draw, lang):
    kind = draw(st.sampled_from(
        ["number", "comment", "window", "blank", "long", "function",
         "plain"]))
    if kind == "number":
        value = draw(st.sampled_from(_NUMBERS))
        end = "" if lang == "python" else ";"
        return [f"v = {value}{end}"]
    if kind == "comment":
        opener, block, closer = _COMMENT[lang]
        body = draw(st.sampled_from(_COMMENT_BODIES))
        if draw(st.booleans()):
            return [f"{opener} {body}"]
        return [f"{block} {body}{closer}"]
    if kind == "window":
        size = draw(st.integers(1, 8))
        seed = draw(st.integers(0, 3))
        block = [f"w{seed}_{i} = {i};" for i in range(size)]
        return block * draw(st.integers(1, 3))
    if kind == "blank":
        return [""] * draw(st.integers(1, 3))
    if kind == "long":
        return ["s = 0;" + " " * draw(st.integers(100, 140)) + "//x"]
    if kind == "function":
        return _function(lang, f"f{draw(st.integers(0, 9))}",
                         draw(st.integers(0, 8)),
                         draw(st.sampled_from([1, 3, 62])),
                         draw(st.integers(0, 6)))
    return [draw(st.sampled_from(["int y;", "y = y + 1;", "  ", "\t}"]))]


@st.composite
def sources(draw):
    lang = draw(st.sampled_from(sorted(_PATHS)))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        lines += draw(chunks(lang))
    if draw(st.integers(0, 9)) == 0:  # now and then, a god file
        lines += ["y = y + 1;"] * (1001 - len(lines))
    if lang == "java":
        lines = ["class T {"] + lines + ["}"]
    return SourceFile(_PATHS[lang], "\n".join(lines) + "\n")


@settings(max_examples=200, deadline=None)
@given(sources())
def test_file_counts_match_reference(source):
    expected = reference_counts(source)
    assert list(expected) == list(ALL_DETECTORS)
    got = file_counts(source)
    assert list(got.items()) == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(sources())
def test_artifact_function_table_matches_reference(source):
    artifact_for(source).cfgs  # views already built by other analyzers
    got = file_counts(source)
    assert list(got.items()) == list(reference_counts(source).items())

"""Differential suite: the block flow IR against the statement-level reference.

Hypothesis generates C, Java and Python function bodies that mix every
control-flow shape the lowerings handle — goto and labels (forward,
backward, unknown), switch fallthrough and empty arms, do-while,
try/catch/finally, dangling ``else``, dead code after ``return``,
self-loops, empty and nested blocks, stray closers, and for Python the
arm and indentation quirks of the line-based recovery (arms after a
blank line, ``else`` after loops, repeated ``else``, ``elif`` after
``else``, ``match``/``case``, nested ``def``). For every function, every
``cfg``/``dataflow`` record field of :mod:`repro.analysis.cfg` and
:mod:`repro.analysis.dataflow` must equal the reference's in
``cfg_reference``, a small-cap path count included, and the random walk
of :func:`repro.analysis.dynamic.simulate_cfg` must be the reference
walk's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import dynamic
from repro.analysis.cfg import build_cfg
from repro.lang import SourceFile, extract_functions
from tests.analysis import cfg_reference as reference

_VARS = "abxyz"

_C_SIMPLE = [
    "{v} = {w} + {n};",
    "{v} += {w};",
    "{v}++;",
    "++{v};",
    "--{w};",
    "{v} = helper({w}, {n});",
    "{v} = getenv({w});",
    "{v} = read(fd, {w}, {n});",
    "strcpy({v}, {w});",
    "system({v});",
    "printf(\"%d\", {v});",
    "memcpy({v}, {w}, {n});",
    "{v}[{w}] = {n};",
    "{v} = {w} ? {n} : {v};",
    "{v} = ({w} = {n}) + 1;",
    ";",
    "{{}}",
    "{{ ; }}",
    "{{ {v} = {n}; }}",
    "{{ {{ }} {v} = {w}; }}",
    "return {v};",
    "return;",
    "return {v};\n{w} = {v};",
    "throw {v};",
    "break;",
    "continue;",
    "goto out;",
    "goto top;",
    "goto nowhere;",
    "out: {v} = {w};",
    "top: {v}--;",
    "out:",
    "else {v} = {n};",
    "while ({v});",
    "for (;;) ;",
    "a = b);",
    "x ] = 1;",
    "{v} = ({w};",
]


@st.composite
def c_statements(draw, depth=0):
    out = []
    for _ in range(draw(st.integers(1, 4))):
        v, w = draw(st.sampled_from(_VARS)), draw(st.sampled_from(_VARS))
        n = draw(st.integers(0, 9))
        kinds = ["simple"] * 4
        if depth < 3:
            kinds += ["if", "ifelse", "while", "for", "do", "switch",
                      "try", "block"]
        kind = draw(st.sampled_from(kinds))
        if kind == "simple":
            out.append(draw(st.sampled_from(_C_SIMPLE)).format(v=v, w=w, n=n))
            continue
        inner = "\n".join(draw(c_statements(depth=depth + 1)))
        if kind == "if":
            braced = draw(st.booleans())
            out.append(f"if ({v} > {n}) {{\n{inner}\n}}" if braced
                       else f"if ({v})\n{inner}")
        elif kind == "ifelse":
            other = "\n".join(draw(c_statements(depth=depth + 1)))
            out.append(f"if ({v} < {w}) {{\n{inner}\n}} else {{\n{other}\n}}")
        elif kind == "while":
            out.append(f"while ({v}-- > {n}) {{\n{inner}\n}}")
        elif kind == "for":
            out.append(f"for ({v} = 0; {v} < {n}; {v}++) {{\n{inner}\n}}")
        elif kind == "do":
            tail = draw(st.sampled_from(
                [f"while ({v} != {w});", f"while ({v})", ""]))
            out.append(f"do {{\n{inner}\n}} {tail}")
        elif kind == "switch":
            arms = []
            if draw(st.booleans()):
                arms.append(f"{w} = {n};")  # statement before any case
            for label in draw(st.lists(
                    st.sampled_from(["case 1:", "case 2:", "default:",
                                     "case A::B:"]), max_size=3)):
                body = draw(st.sampled_from(
                    ["", inner, f"{v} = {n}; break;", "{ ; }",
                     f"{{ {w}++; }} break;", ";"]))
                arms.append(f"{label} {body}")
            if draw(st.booleans()):
                out.append(f"switch ({v}) {{\n" + "\n".join(arms) + "\n}")
            else:
                out.append(f"switch ({v}) {w} = {n};")
        elif kind == "try":
            handlers = draw(st.lists(st.sampled_from(
                [f"catch (Exception e) {{ {v} = {n}; }}",
                 "catch (E e) { }", f"finally {{ {w}--; }}",
                 f"catch (E e) {v}++;"]), max_size=2))
            out.append(f"try {{\n{inner}\n}} " + " ".join(handlers))
        else:
            out.append("{\n" + inner + "\n}")
    return out


@st.composite
def c_sources(draw):
    body = "\n".join(draw(c_statements()))
    if draw(st.booleans()):
        return "t.c", f"int f(int a, char *b) {{\nint x = 0;\n{body}\nreturn x;\n}}\n"
    return "T.java", (f"class T {{\n  int f(int a, String b) {{\n{body}\n"
                      "    return x;\n  }\n}\n")


_PY_SIMPLE = [
    "{v} = {w} + {n}",
    "{v} += {w}",
    "{v} = input()",
    "{v} = helper({w})",
    "eval({v})",
    "os.system({v})",
    "{v}, {w} = {w}, {v}",
    "{v} = ({w} +",
    "    {n})",
    "pass",
    "return {v}",
    "return",
    "raise ValueError({v})",
    "break",
    "continue",
    "break; {v} = 1",
    "else:",
    "elif {v}:",
    "case {n}:",
    "# comment",
    "",
    "x = '''",
    "text",
    "'''",
]

_PY_HEADERS = ["if {v} > {n}:", "while {v}:", "for i in range({n}):",
               "with open({v}) as {w}:", "try:", "match {v}:",
               "def g({v}):", "class K:", "if {v}: {w} = {n}"]

_PY_ARMS = ["elif {w}:", "elif {w}:", "else:", "else:", "except ValueError:",
            "finally:", "case {n}:", "case _:"]


@st.composite
def py_lines(draw, indent, depth=0):
    out = []
    for _ in range(draw(st.integers(1, 4))):
        v, w = draw(st.sampled_from(_VARS)), draw(st.sampled_from(_VARS))
        n = draw(st.integers(0, 9))
        if depth >= 2 or draw(st.integers(0, 2)) == 0:
            out.append(indent + draw(st.sampled_from(_PY_SIMPLE)).format(
                v=v, w=w, n=n))
            continue
        step = draw(st.sampled_from(["    ", "  ", " ", "\t"]))
        out.append(indent + draw(st.sampled_from(_PY_HEADERS)).format(
            v=v, w=w, n=n))
        if draw(st.integers(0, 4)):
            out.extend(draw(py_lines(indent + step, depth + 1)))
        for arm in draw(st.lists(st.sampled_from(_PY_ARMS), max_size=4)):
            if draw(st.integers(0, 3)) == 0:
                out.append(draw(st.sampled_from(["", indent + "# gap"])))
            out.append(indent + arm.format(v=v, w=w, n=n))
            if draw(st.integers(0, 4)):
                out.extend(draw(py_lines(indent + step, depth + 1)))
    return out


@st.composite
def py_sources(draw):
    lines = ["def f(a, b):", "    x = 0"] + draw(py_lines("    "))
    lines.append("    return x")
    return "t.py", "\n".join(lines) + "\n"


def _assert_same(path, text):
    reference.assert_ir_matches_reference(text, path)
    source = SourceFile(path, text)
    for index, func in enumerate(extract_functions(source)):
        ir_walk = dynamic.simulate_cfg(build_cfg(func, source), n_walks=4,
                                       max_steps=40, seed=index)
        ref_walk = reference.simulate_cfg(
            reference.build_cfg(func, source), n_walks=4, max_steps=40,
            seed=index)
        assert ir_walk == ref_walk, (path, func.name, text)


@settings(max_examples=200, deadline=None)
@given(c_sources())
def test_brace_ir_matches_reference(case):
    _assert_same(*case)


@settings(max_examples=200, deadline=None)
@given(py_sources())
def test_python_ir_matches_reference(case):
    _assert_same(*case)

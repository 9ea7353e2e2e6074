"""Differential suite: streamed memlint and weak-random against the references.

The corpus never fires ``double-free``, ``use-after-free``,
``memory-leak`` or ``weak-random``, so the golden records do not pin
them. Generated C function bodies mix frees (bare ``free(`` too),
``malloc``/``realloc``/``strdup`` assignments, index and arrow uses,
comparisons, plain reassignments and ``rand()`` calls with and without
security-relevant identifiers. ``lifecycle_checkers.run`` and
``c_checkers.run`` must report exactly the ``(rule, line, message,
cwe)`` lists of the test-only reference checkers, in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bugfind import c_checkers, lifecycle_checkers
from repro.lang.sourcefile import SourceFile
from tests.bugfind import bugfind_reference

_VARS = ("p", "q", "buf", "free", "malloc", "key", "Token")


@st.composite
def statements(draw):
    a = draw(st.sampled_from(_VARS))
    b = draw(st.sampled_from(_VARS))
    alloc = draw(st.sampled_from(("malloc", "realloc", "strdup", "calloc")))
    rand = draw(st.sampled_from(("rand", "random", "srand")))
    return draw(st.sampled_from((
        f"free({a});",
        "free(",
        f"free({a}->next);",
        f"{a} = {alloc}(16);",
        f"char *{a} = {alloc}({b});",
        f"{a}[0] = 1;",
        f"{a}->x = {b};",
        f"if ({a} == {b}) return;",
        f"{a} = {b};",
        f"{a} == {b};",
        f"use({a});",
        f"{a} = {rand}();",
        f"{rand}({a});",
        f"int seed = {rand}();",
        "x = y;",
        f"{a}",
    )))


@st.composite
def c_sources(draw):
    functions = []
    for n in range(draw(st.integers(1, 3))):
        body = []
        for _ in range(draw(st.integers(0, 12))):
            stmt = draw(statements())
            if draw(st.booleans()) and body:
                body[-1] += " " + stmt  # several statements on one line
            else:
                body.append("  " + stmt)
        functions.append(f"void f{n}(char *p) {{\n" + "\n".join(body) + "\n}")
    ext = draw(st.sampled_from(("c", "cpp")))
    return SourceFile(f"t.{ext}", "\n\n".join(functions) + "\n")


def _listing(findings):
    return [(f.rule, f.line, f.message, f.cwe) for f in findings]


@settings(max_examples=300, deadline=None)
@given(c_sources())
def test_memlint_matches_reference(source):
    assert _listing(lifecycle_checkers.run(source)) == _listing(
        bugfind_reference.lifecycle_run(source))


@settings(max_examples=300, deadline=None)
@given(c_sources())
def test_c_checkers_match_reference(source):
    assert _listing(c_checkers.run(source)) == _listing(
        bugfind_reference.c_run(source))


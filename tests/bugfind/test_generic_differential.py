"""Differential suite: one-pass generic rules against the per-rule reference.

``generic_checkers.run`` dispatches all nine generic rules on token kind
in one walk over the file. The test-only reference runs the nine
original ``check_*`` functions, one walk each, concatenates their output
and sorts it on ``(line, rule)``. Generated C, Java and Python text mixes
every pattern the rules look at — secret-named assignments, ``eval``
calls, SQL strings joined to variables, weak-crypto names and strings,
permissive modes, empty or ``pass``-only handlers, deserialisation
calls, temp paths and ``assert`` on input — often several to a line and
cut off at the end of the file. Both sides must report exactly the same
``(rule, line, message, cwe)`` list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bugfind import generic_checkers
from repro.lang.sourcefile import SourceFile
from tests.bugfind import bugfind_reference

_PATHS = {"c": "t.c", "java": "T.java", "python": "t.py"}

_NAMES = ("password", "Token", "api_key", "auth", "user", "data", "x",
          "md5", "DES", "sha256", "pickle", "yaml", "request", "args")

_STRINGS = ('"hunter22"', '""', '"ab"', '"SELECT * FROM t WHERE id="',
            '"insert into log values "', '"/tmp/app.log"', '"MD5"',
            "'rc4'", '"hello "')

_MODES = ("0777", "0o777", "777", "0666", "0600", "0o666", "1")


@st.composite
def fragments(draw, lang):
    a = draw(st.sampled_from(_NAMES))
    b = draw(st.sampled_from(_NAMES))
    text = draw(st.sampled_from(_STRINGS))
    mode = draw(st.sampled_from(_MODES))
    call = draw(st.sampled_from(("chmod", "open", "umask", "mkdir")))
    evaluator = draw(st.sampled_from(("eval", "exec", "compile")))
    loader = draw(st.sampled_from(("loads", "load", "safe_load", "dump")))
    temp = draw(st.sampled_from(("mktemp", "tmpnam", "mkstemp")))
    end = "" if lang == "python" else ";"
    common = [
        f"{a} = {text}{end}",
        f"{a} = {b}{end}",
        f"{evaluator}({a}){end}",
        f"{evaluator}({text}){end}",
        f"q = {text} + {a}{end}",
        f"q = {text} + 1{end}",
        f"h = {a}({b}){end}",
        f"{call}({a}, {mode}){end}",
        f"{call}({a}, {b}, {b}, {b}, {b}, {b}, {mode}){end}",
        f"o = {a}.{loader}({b}){end}",
        f"o = in.readObject(){end}",
        f"t = {temp}({a}){end}",
        f"{a}",
        f"{text}",
        "(",
    ]
    if lang == "python":
        extra = [
            "try:\n    run()\nexcept ValueError:\n    pass",
            "try:\n    run()\nexcept (OSError, ValueError):\n    log()",
            f"assert {a}.size < 10",
            f"assert {a}",
            "# password = \"hunter22\"",
            "except:",
        ]
    else:
        extra = [
            "try { run(); } catch (Exception e) {}",
            "try { run(); } catch (Exception e) { log(e); }",
            f"assert {a} != null;",
            "/* eval(x) */",
            "catch (",
        ]
    return draw(st.sampled_from(common + extra))


@st.composite
def sources(draw):
    lang = draw(st.sampled_from(sorted(_PATHS)))
    lines = []
    for _ in range(draw(st.integers(0, 16))):
        fragment = draw(fragments(lang))
        if lines and draw(st.booleans()):
            lines[-1] += " " + fragment  # several fragments to a line
        else:
            lines.append(fragment)
    text = "\n".join(lines)
    if draw(st.booleans()):
        text += "\n"
    return SourceFile(_PATHS[lang], text)


def _listing(findings):
    return [(f.rule, f.line, f.message, f.cwe) for f in findings]


@settings(max_examples=300, deadline=None)
@given(sources())
def test_generic_run_matches_reference(source):
    assert _listing(generic_checkers.run(source)) == _listing(
        bugfind_reference.generic_run(source))

"""Failure injection: the testbed must survive hostile, broken input.

The paper's testbed runs unattended over hundreds of applications (§5.1);
real trees contain truncated files, mismatched braces, binary garbage,
and weird encodings. Every analyzer — and the full feature extraction —
must degrade gracefully (finite numbers, no exceptions) on all of it.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bugfind import run_all
from repro.core.features import extract_features, file_record
from repro.lang import Codebase, SourceFile


def _corrupt(text: str, mode: str, seed: int) -> str:
    rng = random.Random(seed)
    if not text:
        return text
    if mode == "truncate":
        return text[: rng.randint(0, len(text) - 1)]
    if mode == "drop_braces":
        return text.replace("}", "", rng.randint(1, 3))
    if mode == "extra_braces":
        pos = rng.randint(0, len(text))
        return text[:pos] + "}}}{{" + text[pos:]
    if mode == "binary_noise":
        pos = rng.randint(0, len(text))
        return text[:pos] + "\x00\xff\x7f�" + text[pos:]
    if mode == "shuffle_lines":
        lines = text.splitlines()
        rng.shuffle(lines)
        return "\n".join(lines)
    if mode == "stray_closers":
        for _ in range(rng.randint(1, 3)):
            pos = rng.randint(0, len(text))
            text = text[:pos] + rng.choice(")]") + text[pos:]
        return text
    raise ValueError(mode)


MODES = ("truncate", "drop_braces", "extra_braces", "binary_noise",
         "shuffle_lines")

#: Modes that once hung extraction; they run in a child process with a
#: wall-clock bound, so a regression fails instead of hanging the suite.
BOUNDED_MODES = ("stray_closers",)

#: Wall-clock bound, in seconds, for one bounded child run. Each input
#: below finishes in under 3 s, interpreter start included, on a 2-core
#: host; the bound only has to catch hangs and super-linear blowups.
WALL_BOUND_S = 60

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Child process: read {path: text} as JSON on stdin, extract features
#: and run every checker over it, and report the row's finiteness. A
#: single file's ``file_record`` is printed as JSON before the verdict.
_CHILD = """
import json, math, sys
from repro.bugfind import run_all
from repro.core.features import extract_features, file_record
from repro.lang import Codebase, SourceFile
sources = json.load(sys.stdin)
record = None
if len(sources) == 1:
    ((path, text),) = sources.items()
    record = file_record(SourceFile(path, text))
row = extract_features(Codebase.from_sources("bounded", sources))
run_all(Codebase.from_sources("bounded", sources))
assert all(math.isfinite(v) for v in row.values())
print(json.dumps(record))
print("ok")
"""


def _run_bounded(sources):
    """Extract ``sources`` in a child process under :data:`WALL_BOUND_S`.

    Returns the child's ``file_record`` of a single-file input, else None.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    try:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD], input=json.dumps(sources),
            capture_output=True, text=True, timeout=WALL_BOUND_S, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"extraction did not finish within {WALL_BOUND_S} s")
    assert done.returncode == 0, done.stderr[-2000:]
    record, verdict = done.stdout.strip().splitlines()
    assert verdict == "ok"
    return json.loads(record)


@pytest.fixture(scope="module")
def donor_sources(small_corpus):
    app = small_corpus.apps[0]
    return {f.path: f.text for f in app.codebase}


class TestCorruptedCorpusFiles:
    @pytest.mark.parametrize("mode", MODES)
    def test_feature_extraction_survives(self, donor_sources, mode):
        corrupted = {
            path: _corrupt(text, mode, seed=i)
            for i, (path, text) in enumerate(sorted(donor_sources.items()))
        }
        codebase = Codebase.from_sources("corrupted", corrupted)
        row = extract_features(codebase)
        import math

        assert all(math.isfinite(v) for v in row.values()), mode

    @pytest.mark.parametrize("mode", MODES)
    def test_bugfind_survives(self, donor_sources, mode):
        corrupted = {
            path: _corrupt(text, mode, seed=i + 100)
            for i, (path, text) in enumerate(sorted(donor_sources.items()))
        }
        run_all(Codebase.from_sources("corrupted", corrupted))

    @pytest.mark.parametrize("mode", BOUNDED_MODES)
    def test_bounded_modes_finish(self, donor_sources, mode):
        corrupted = {
            path: _corrupt(text, mode, seed=i)
            for i, (path, text) in enumerate(sorted(donor_sources.items()))
        }
        _run_bounded(corrupted)

    def test_stray_paren_in_statement_finishes(self):
        # Once made the statement parser loop forever while allocating.
        _run_bounded({"a.c": "int f(int a) { a = b); return a; }\n"})

    def test_single_brace_file(self):
        row = extract_features(Codebase.from_sources("b", {"a.c": "}\n"}))
        import math

        assert all(math.isfinite(v) for v in row.values())

    def test_only_comments_file(self):
        cb = Codebase.from_sources("c", {"a.c": "/* nothing but talk */\n"})
        row = extract_features(cb)
        assert row["size.sample_loc"] == 0.0

    def test_gigantic_single_line(self):
        text = "int x = " + " + ".join(str(i) for i in range(2000)) + ";\n"
        extract_features(Codebase.from_sources("g", {"a.c": text}))


@settings(max_examples=25, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FF),
        max_size=400,
    ),
    st.sampled_from([".c", ".py", ".java", ".cc"]),
)
def test_feature_extraction_on_arbitrary_text(text, ext):
    """Pure fuzz: any unicode soup in any language must analyse finitely."""
    import math

    codebase = Codebase.from_sources("fuzz", {f"f{ext}": text})
    row = extract_features(codebase)
    assert all(math.isfinite(v) for v in row.values())


#: Hostile nesting: each input must finish ``file_record`` and a full
#: extraction under the wall bound, with no ``RecursionError``.
HOSTILE_NESTING = {
    "c_nested_if": ("a.c", "int f(int a) {\n" + "if (a) {\n" * 10_000
                    + "}\n" * 10_000 + "return a;\n}\n"),
    "c_unclosed_functions": ("a.c", "int f(){" * 10_000),
    "java_nested_while": ("A.java", "class A {\n  int f(int a) {\n"
                          + "while (a > 0) {\n" * 10_000 + "}\n" * 10_000
                          + "    return a;\n  }\n}\n"),
    "python_deep_indent": ("a.py", "def f(a):\n" + "".join(
        " " * (level + 1) + "if a:\n" for level in range(3_000))
        + " " * 3_001 + "return a\n"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_NESTING))
def test_hostile_nesting_finishes(name):
    path, text = HOSTILE_NESTING[name]
    _run_bounded({path: text})


#: Files of many small functions or classes, as (path, count, unit):
#: the file is ``count`` copies of ``unit`` formatted with ``i``. Each
#: once hit a scan that was quadratic in the function or class count —
#: Python function bodies, cyclomatic's stray-decision test, and class
#: method matching — and took longer than the wall bound on a 2-core
#: host. Each now finishes in about 5–12 s there.
MANY_UNITS = {
    "python_many_defs": (
        "a.py", 12_000,
        "def f{i}(a):\n    if a:\n        return 1\n    return 0\n"),
    "c_many_functions": (
        "a.c", 32_000, "int f{i}(int a) {{ if (a) return 1; return 0; }}\n"),
    "java_many_classes": (
        "A.java", 36_000, "class C{i} {{\n  int m(int a) {{ return a; }}\n}}\n"),
}


@pytest.mark.parametrize("name", sorted(MANY_UNITS))
def test_many_functions_or_classes_finish(name):
    path, count, unit = MANY_UNITS[name]
    record = _run_bounded(
        {path: "".join(unit.format(i=i) for i in range(count))})
    # Every function and class keeps the values it has on its own.
    one = json.loads(json.dumps(file_record(SourceFile(path, unit.format(i=0)))))
    assert record["functions"]["n_functions"] == \
        count * one["functions"]["n_functions"]
    assert record["cyclomatic"]["values"] == one["cyclomatic"]["values"] * count
    assert record["cyclomatic"]["total"] == one["cyclomatic"]["total"] * count
    for key in ("paths", "cyclomatics"):
        assert record["cfg"][key] == one["cfg"][key] * count
    assert [fact[1:] for fact in record["calls"]] == \
        [fact[1:] for fact in one["calls"]] * count
    assert [cls[1:] for cls in record["oo"]["classes"]] == \
        [cls[1:] for cls in one["oo"]["classes"]] * count


#: Python shapes, as (path, text, expected ``functions`` record): one
#: def with 12,000 parameters, 1,000 defs each nested one level deeper
#: than the last, and 2,000 defs each nested one space deeper. The
#: parser once rescanned the parameter list for every parameter and
#: every nested block for every def; on a 2-core host the child then
#: took 74 s and 103 s, past the wall bound. The CFG lowering, the
#: call-site scan and the decision count then still rescanned every
#: nested body for every def (2,000 defs: about 10 s for
#: ``file_record`` alone). Each shape now finishes in a few seconds.
PYTHON_SHAPES = {
    "python_many_params": (
        "a.py",
        "def f(" + ", ".join(f"p{i}" for i in range(12_000))
        + "):\n    return p0\n",
        {"n_functions": 1, "total_params": 12_000, "max_params": 12_000,
         "max_length": 2, "max_nesting": 0}),
    "python_nested_defs": (
        "a.py",
        "".join("    " * level + f"def f{level}(a):\n"
                for level in range(1_000)) + "    " * 1_000 + "return a\n",
        {"n_functions": 1_000, "total_params": 1_000, "max_params": 1,
         "max_length": 1_001, "max_nesting": 999}),
    "python_nested_defs_by_one_space": (
        "a.py",
        "".join(" " * level + f"def f{level}(a):\n"
                for level in range(2_000)) + " " * 2_000 + "return a\n",
        {"n_functions": 2_000, "total_params": 2_000, "max_params": 1,
         "max_length": 2_001, "max_nesting": 499}),
}


@pytest.mark.parametrize("name", sorted(PYTHON_SHAPES))
def test_python_parser_shapes_finish(name):
    path, text, expected = PYTHON_SHAPES[name]
    functions = _run_bounded({path: text})["functions"]
    assert {key: functions[key] for key in expected} == expected

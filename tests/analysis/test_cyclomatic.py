"""McCabe cyclomatic complexity tests."""

import pytest

from repro.lang import Codebase, SourceFile, extract_functions
from repro.analysis.cyclomatic import (
    codebase_complexity,
    complexity_distribution,
    file_complexities,
    file_complexity,
    function_complexity,
)


def c_complexities(text):
    return file_complexities(SourceFile("t.c", text))


class TestFunctionComplexity:
    def test_straight_line_is_one(self):
        reports = c_complexities("int f(void) {\n    return 1;\n}\n")
        assert reports[0].complexity == 1

    def test_single_if(self):
        reports = c_complexities("int f(int a) {\n  if (a) return 1;\n  return 0;\n}\n")
        assert reports[0].complexity == 2

    def test_if_else_counts_once(self):
        # else adds no decision; if/else is complexity 2.
        reports = c_complexities(
            "int f(int a) {\n  if (a) { return 1; } else { return 0; }\n}\n"
        )
        assert reports[0].complexity == 2

    def test_loop_counts(self):
        reports = c_complexities(
            "int f(int n) {\n  int s = 0;\n  for (int i = 0; i < n; i++) s++;\n"
            "  while (n--) s++;\n  return s;\n}\n"
        )
        assert reports[0].complexity == 3

    def test_boolean_operators_count(self):
        reports = c_complexities(
            "int f(int a, int b) {\n  if (a && b || a) return 1;\n  return 0;\n}\n"
        )
        assert reports[0].complexity == 4  # if + && + ||

    def test_switch_cases_count(self):
        reports = c_complexities(
            "int f(int a) {\n  switch (a) {\n  case 1: return 1;\n"
            "  case 2: return 2;\n  default: return 0;\n  }\n}\n"
        )
        assert reports[0].complexity == 3  # two cases (default free)

    def test_ternary_counts(self):
        reports = c_complexities("int f(int a) {\n  return a ? 1 : 0;\n}\n")
        assert reports[0].complexity == 2

    def test_c_sample_values(self, c_source):
        by_name = {r.name: r.complexity for r in file_complexities(c_source)}
        # helper: for + && + if = 4; main: if + switch-case + while = varies
        assert by_name["helper"] == 4
        assert by_name["main"] >= 4

    def test_python_decisions(self, py_source):
        reports = file_complexities(py_source)
        by_name = {r.name: r.complexity for r in reports}
        assert by_name["greet"] == 3  # if + for
        assert by_name["run"] == 2  # except


class TestFileAndCodebase:
    def test_file_complexity_sums_functions(self, c_source):
        total = file_complexity(c_source)
        assert total == sum(r.complexity for r in file_complexities(c_source))

    def test_stray_toplevel_decisions_counted(self):
        src = SourceFile("t.py", "import os\nif os.name == 'posix':\n    X = 1\n")
        assert file_complexity(src) >= 1
        # Before, between and after functions: one stray decision each.
        src = SourceFile("t.py", (
            "x = a or b\ndef f(a):\n    return a\ny = 1 if x else 2\n"
            "def g(b):\n    if b:\n        return b\nif x:\n    z = 1\n"))
        assert [r.complexity for r in file_complexities(src)] == [1, 2]
        assert file_complexity(src) == 1 + 2 + 3

    def test_codebase_sums_files(self, mixed_codebase):
        assert codebase_complexity(mixed_codebase) == sum(
            file_complexity(f) for f in mixed_codebase
        )

    def test_distribution_keys(self, mixed_codebase):
        dist = complexity_distribution(mixed_codebase)
        assert set(dist) == {"mean", "max", "p90", "over_10"}
        assert dist["max"] >= dist["p90"] >= 0
        assert 0 <= dist["over_10"] <= 1

    def test_distribution_empty(self):
        dist = complexity_distribution(Codebase("empty"))
        assert dist["mean"] == 0.0

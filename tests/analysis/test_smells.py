"""Code-smell tests.

Each case runs twice: against the test-only per-hit reference detectors
(``smells_reference``), which pin the listing behaviour (``detail``
strings, sort order), and as a count-level twin against the product's
:func:`repro.analysis.smells.file_counts`.
"""

from repro.analysis.smells import (
    ALL_DETECTORS,
    DUPLICATE_WINDOW,
    LONG_METHOD_LINES,
    file_counts,
    smell_counts,
)
from repro.lang import SourceFile
from tests.analysis.smells_reference import (
    commented_out_code,
    deep_nesting,
    detect_file,
    duplicate_code,
    god_files,
    long_lines,
    long_methods,
    long_parameter_lists,
    magic_numbers,
    todo_comments,
)


def c_src(text):
    return SourceFile("t.c", text)


def count(kind, source):
    return file_counts(source)[kind]


class TestLongMethod:
    TEXT = "int f(int x) {{\n{body}\n    return x;\n}}\n".format(
        body="\n".join("    x = x + 1;" for _ in range(LONG_METHOD_LINES + 5)))

    def test_detected(self):
        smells = long_methods(c_src(self.TEXT))
        assert len(smells) == 1
        assert smells[0].kind == "long-method"

    def test_detected_count(self):
        assert count("long-method", c_src(self.TEXT)) == 1

    def test_short_method_clean(self, c_source):
        assert long_methods(c_source) == []

    def test_short_method_clean_count(self, c_source):
        assert count("long-method", c_source) == 0


class TestLongParameterList:
    SIX = "int f(int a, int b, int c, int d, int e, int g) { return 0; }"
    FIVE = "int f(int a, int b, int c, int d, int e) { return 0; }"

    def test_detected(self):
        assert len(long_parameter_lists(c_src(self.SIX))) == 1

    def test_detected_count(self):
        assert count("long-parameter-list", c_src(self.SIX)) == 1

    def test_five_params_ok(self):
        assert long_parameter_lists(c_src(self.FIVE)) == []

    def test_five_params_ok_count(self):
        assert count("long-parameter-list", c_src(self.FIVE)) == 0


class TestDeepNesting:
    TEXT = (
        "int f(int a) {\n"
        "  if (a) {\n    if (a) {\n      if (a) {\n        if (a) {\n"
        "          if (a) { a = 1; }\n        }\n      }\n    }\n  }\n"
        "  return a;\n}\n"
    )

    def test_detected(self):
        assert len(deep_nesting(c_src(self.TEXT))) == 1

    def test_detected_count(self):
        assert count("deep-nesting", c_src(self.TEXT)) == 1

    def test_shallow_clean(self, c_source):
        assert deep_nesting(c_source) == []

    def test_shallow_clean_count(self, c_source):
        assert count("deep-nesting", c_source) == 0


class TestGodFile:
    TEXT = "int x;\n" * 1100

    def test_detected(self):
        assert len(god_files(c_src(self.TEXT))) == 1

    def test_detected_count(self):
        assert count("god-file", c_src(self.TEXT)) == 1

    def test_normal_clean(self, c_source):
        assert god_files(c_source) == []

    def test_normal_clean_count(self, c_source):
        assert count("god-file", c_source) == 0


class TestMagicNumbers:
    TRIVIAL = "int x = 0;\nint y = 1;\nint z = 2;\n"

    def test_detected(self):
        smells = magic_numbers(c_src("int x = 31337;\n"))
        assert len(smells) == 1
        assert "31337" in smells[0].detail

    def test_detected_count(self):
        assert count("magic-number", c_src("int x = 31337;\n")) == 1

    def test_trivial_values_ignored(self):
        assert magic_numbers(c_src(self.TRIVIAL)) == []

    def test_trivial_values_ignored_count(self):
        assert count("magic-number", c_src(self.TRIVIAL)) == 0

    def test_suffix_normalised(self):
        assert magic_numbers(c_src("long x = 1UL;\n")) == []

    def test_suffix_normalised_count(self):
        assert count("magic-number", c_src("long x = 1UL;\n")) == 0


class TestComments:
    TODO = "// TODO: fix overflow\nint x;\n"
    FIXME = "/* FIXME later */\n"
    CODE = "// x = compute(a, b);\nint y;\n"
    PROSE = "// computes the sum\nint y;\n"

    def test_todo_detected(self):
        smells = todo_comments(c_src(self.TODO))
        assert len(smells) == 1

    def test_todo_detected_count(self):
        assert count("todo-comment", c_src(self.TODO)) == 1

    def test_fixme_detected(self):
        assert todo_comments(c_src(self.FIXME))

    def test_fixme_detected_count(self):
        assert count("todo-comment", c_src(self.FIXME)) == 1

    def test_commented_out_code(self):
        smells = commented_out_code(c_src(self.CODE))
        assert len(smells) == 1

    def test_commented_out_code_count(self):
        assert count("commented-out-code", c_src(self.CODE)) == 1

    def test_prose_comment_clean(self):
        assert commented_out_code(c_src(self.PROSE)) == []

    def test_prose_comment_clean_count(self):
        assert count("commented-out-code", c_src(self.PROSE)) == 0


class TestLongLines:
    TEXT = "int x; // " + "a" * 130 + "\n"

    def test_detected(self):
        assert len(long_lines(c_src(self.TEXT))) == 1

    def test_detected_count(self):
        assert count("long-line", c_src(self.TEXT)) == 1


class TestDuplicateCode:
    BLOCK = "\n".join(f"x{i} = {i};" for i in range(DUPLICATE_WINDOW))
    DUPLICATED = BLOCK + "\nint sep;\n" + BLOCK + "\n"
    UNIQUE = "\n".join(f"y{i} = {i} + {i};" for i in range(20))

    def test_detected(self):
        smells = duplicate_code(c_src(self.DUPLICATED))
        assert len(smells) >= 1
        assert smells[0].kind == "duplicate-code"

    def test_detected_count(self):
        assert count("duplicate-code", c_src(self.DUPLICATED)) == 1

    def test_unique_code_clean(self):
        assert duplicate_code(c_src(self.UNIQUE)) == []

    def test_unique_code_clean_count(self):
        assert count("duplicate-code", c_src(self.UNIQUE)) == 0


class TestAggregation:
    def test_detect_file_sorted(self, c_source):
        smells = detect_file(c_source)
        assert smells == sorted(smells, key=lambda s: (s.line, s.kind))

    def test_file_counts_key_order(self, c_source):
        assert list(file_counts(c_source)) == list(ALL_DETECTORS)

    def test_counts_cover_all_kinds(self, mixed_codebase):
        counts = smell_counts(mixed_codebase)
        assert set(counts) == set(ALL_DETECTORS)
        assert all(v >= 0 for v in counts.values())

    def test_counts_match_detection(self, mixed_codebase):
        counts = smell_counts(mixed_codebase)
        listed = [s for source in mixed_codebase for s in detect_file(source)]
        assert sum(counts.values()) == len(listed)

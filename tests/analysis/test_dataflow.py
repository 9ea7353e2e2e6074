"""Reaching definitions, def-use, and taint tests.

Reaching-definition sets per statement are pinned on the
statement-level reference in ``cfg_reference``; taint counts run on the
product's block IR. Every case also has a twin
(``test_ir_record_fields_match_reference``) that checks the IR's record
fields equal the reference's on the case's source.
"""

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import measure_codebase, taint_analysis
from repro.lang import Codebase, SourceFile, extract_functions
from tests.analysis import cfg_reference as reference

#: The source of each case, by test name, for the IR twins.
CASES = {
    "test_straight_line_def_reaches_use":
        "int f(void) {\n  int a = 1;\n  int b = a + 2;\n  return b;\n}",
    "test_redefinition_kills":
        "int f(void) {\n  int a = 1;\n  a = 2;\n  return a;\n}",
    "test_branch_merges_definitions":
        "int f(int c) {\n  int a = 0;\n  if (c) { a = 1; } else { a = 2; }\n"
        "  return a;\n}",
    "test_loop_definition_reaches_itself":
        "int f(int n) {\n  while (n > 0) { n = n - 1; }\n  return n;\n}",
    "test_compound_assignment_is_def_and_use":
        "int f(int a) {\n  a += 1;\n  return a;\n}",
    "test_increment_is_def": "int f(int a) {\n  a++;\n  return a;\n}",
    "test_param_taints_sink":
        "int f(char *s) {\n  char buf[8];\n  strcpy(buf, s);\n  return 0;\n}",
    "test_source_call_taints":
        "int f(void) {\n  char buf[8];\n  char *s;\n  s = getenv(name);\n"
        "  system(s);\n  return 0;\n}",
    "test_untainted_sink_not_flagged":
        "int f(void) {\n  char local[8];\n  int x = 1;\n"
        "  memcpy(local, fixed, x);\n  return 0;\n}",
    "test_reassignment_clears_taint":
        "int f(char *s) {\n  char *p;\n  p = s;\n  p = fixed;\n"
        "  system(p);\n  return 0;\n}",
    "test_sink_site_counted_even_untainted":
        "int f(void) {\n  system(fixed);\n  return 0;\n}",
    "test_python_eval_taint":
        "def f(expr):\n    cmd = expr\n    eval(cmd)\n    return 0\n",
}


def _path(name):
    return "t.py" if "python" in name else "t.c"


def analyse(name):
    """(product block CFG, function) of a case."""
    src = SourceFile(_path(name), CASES[name])
    fn = extract_functions(src)[0]
    return build_cfg(fn, src), fn


def reference_rd(name):
    """(statement-level CFG, its reaching definitions) of a case."""
    src = SourceFile(_path(name), CASES[name])
    cfg = reference.build_cfg(extract_functions(src)[0], src)
    return cfg, reference.reaching_definitions(cfg)


@pytest.mark.parametrize("name", sorted(CASES))
def test_ir_record_fields_match_reference(name):
    reference.assert_ir_matches_reference(CASES[name], _path(name))


class TestReachingDefinitions:
    def test_straight_line_def_reaches_use(self):
        _, rd = reference_rd("test_straight_line_def_reaches_use")
        assert rd.def_use_pairs() >= 2  # a reaches b's def; b reaches return

    def test_redefinition_kills(self):
        cfg, rd = reference_rd("test_redefinition_kills")
        # At the return node only the second definition of `a` reaches.
        return_nodes = [n for n, k in enumerate(cfg.kinds) if k == "return"]
        reaching_a = [
            d for d in rd.in_sets[return_nodes[0]] if d[1] == "a"
        ]
        assert len(reaching_a) == 1

    def test_branch_merges_definitions(self):
        cfg, rd = reference_rd("test_branch_merges_definitions")
        return_nodes = [n for n, k in enumerate(cfg.kinds) if k == "return"]
        reaching_a = {d for d in rd.in_sets[return_nodes[0]] if d[1] == "a"}
        assert len(reaching_a) == 2  # both arms reach the merge

    def test_loop_definition_reaches_itself(self):
        _, rd = reference_rd("test_loop_definition_reaches_itself")
        assert rd.max_reaching() >= 1

    def test_compound_assignment_is_def_and_use(self):
        _, rd = reference_rd("test_compound_assignment_is_def_and_use")
        gen_vars = {v for s in rd.gen.values() for (_, v) in s}
        assert "a" in gen_vars

    def test_increment_is_def(self):
        _, rd = reference_rd("test_increment_is_def")
        gen_vars = {v for s in rd.gen.values() for (_, v) in s}
        assert "a" in gen_vars


class TestTaint:
    def test_param_taints_sink(self):
        cfg, fn = analyse("test_param_taints_sink")
        result = taint_analysis(cfg, fn.param_names)
        assert result.tainted_sink_calls == 1

    def test_source_call_taints(self):
        cfg, fn = analyse("test_source_call_taints")
        result = taint_analysis(cfg, fn.param_names)
        assert result.source_sites == 1
        assert result.tainted_sink_calls >= 1

    def test_untainted_sink_not_flagged(self):
        cfg, fn = analyse("test_untainted_sink_not_flagged")
        result = taint_analysis(cfg, [])
        assert result.tainted_sink_calls == 0

    def test_reassignment_clears_taint(self):
        cfg, fn = analyse("test_reassignment_clears_taint")
        result = taint_analysis(cfg, fn.param_names)
        # p was overwritten with untainted data before the sink... but the
        # merge over both assignment orderings is linear here, so taint is
        # cleared.
        assert result.tainted_sink_calls == 0

    def test_sink_site_counted_even_untainted(self):
        cfg, _ = analyse("test_sink_site_counted_even_untainted")
        result = taint_analysis(cfg, [])
        assert result.sink_sites == 1

    def test_python_eval_taint(self):
        cfg, fn = analyse("test_python_eval_taint")
        result = taint_analysis(cfg, fn.param_names)
        assert result.tainted_sink_calls == 1


class TestCodebaseMetrics:
    def test_mixed_codebase(self, mixed_codebase):
        m = measure_codebase(mixed_codebase)
        assert m.n_defs > 0
        assert m.n_uses > 0
        assert m.def_use_pairs > 0
        assert m.sink_sites >= 1  # strcpy in the C sample
        assert m.tainted_sink_calls >= 1  # strcpy(buf, argv[1])

    def test_empty(self):
        m = measure_codebase(Codebase("empty"))
        assert m.n_defs == 0 and m.tainted_sink_calls == 0

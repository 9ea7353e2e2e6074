"""Reaching definitions, def-use, and taint tests."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    measure_codebase,
    reaching_definitions,
    taint_analysis,
)
from repro.lang import Codebase, SourceFile, extract_functions


def analyse(text, path="t.c", name=None):
    src = SourceFile(path, text)
    fns = extract_functions(src)
    fn = fns[0] if name is None else next(f for f in fns if f.name == name)
    cfg = build_cfg(fn, src)
    return cfg, fn


class TestReachingDefinitions:
    def test_straight_line_def_reaches_use(self):
        cfg, _ = analyse("int f(void) {\n  int a = 1;\n  int b = a + 2;\n  return b;\n}")
        rd = reaching_definitions(cfg)
        assert rd.def_use_pairs() >= 2  # a reaches b's def; b reaches return

    def test_redefinition_kills(self):
        cfg, _ = analyse(
            "int f(void) {\n  int a = 1;\n  a = 2;\n  return a;\n}"
        )
        rd = reaching_definitions(cfg)
        # At the return node only the second definition of `a` reaches.
        return_nodes = [n for n, k in enumerate(cfg.kinds) if k == "return"]
        reaching_a = [
            d for d in rd.in_sets[return_nodes[0]] if d[1] == "a"
        ]
        assert len(reaching_a) == 1

    def test_branch_merges_definitions(self):
        cfg, _ = analyse(
            "int f(int c) {\n  int a = 0;\n  if (c) { a = 1; } else { a = 2; }\n"
            "  return a;\n}"
        )
        rd = reaching_definitions(cfg)
        return_nodes = [n for n, k in enumerate(cfg.kinds) if k == "return"]
        reaching_a = {d for d in rd.in_sets[return_nodes[0]] if d[1] == "a"}
        assert len(reaching_a) == 2  # both arms reach the merge

    def test_loop_definition_reaches_itself(self):
        cfg, _ = analyse("int f(int n) {\n  while (n > 0) { n = n - 1; }\n  return n;\n}")
        rd = reaching_definitions(cfg)
        assert rd.max_reaching() >= 1

    def test_compound_assignment_is_def_and_use(self):
        cfg, _ = analyse("int f(int a) {\n  a += 1;\n  return a;\n}")
        rd = reaching_definitions(cfg)
        gen_vars = {v for s in rd.gen.values() for (_, v) in s}
        assert "a" in gen_vars

    def test_increment_is_def(self):
        cfg, _ = analyse("int f(int a) {\n  a++;\n  return a;\n}")
        rd = reaching_definitions(cfg)
        gen_vars = {v for s in rd.gen.values() for (_, v) in s}
        assert "a" in gen_vars


class TestTaint:
    def test_param_taints_sink(self):
        cfg, fn = analyse(
            "int f(char *s) {\n  char buf[8];\n  strcpy(buf, s);\n  return 0;\n}"
        )
        result = taint_analysis(cfg, fn.param_names)
        assert result.tainted_sink_calls == 1

    def test_source_call_taints(self):
        cfg, fn = analyse(
            "int f(void) {\n  char buf[8];\n  char *s;\n  s = getenv(name);\n"
            "  system(s);\n  return 0;\n}"
        )
        result = taint_analysis(cfg, fn.param_names)
        assert result.source_sites == 1
        assert result.tainted_sink_calls >= 1

    def test_untainted_sink_not_flagged(self):
        cfg, fn = analyse(
            "int f(void) {\n  char local[8];\n  int x = 1;\n"
            "  memcpy(local, fixed, x);\n  return 0;\n}"
        )
        result = taint_analysis(cfg, [])
        assert result.tainted_sink_calls == 0

    def test_reassignment_clears_taint(self):
        cfg, fn = analyse(
            "int f(char *s) {\n  char *p;\n  p = s;\n  p = fixed;\n"
            "  system(p);\n  return 0;\n}"
        )
        result = taint_analysis(cfg, fn.param_names)
        # p was overwritten with untainted data before the sink... but the
        # merge over both assignment orderings is linear here, so taint is
        # cleared.
        assert result.tainted_sink_calls == 0

    def test_sink_site_counted_even_untainted(self):
        cfg, _ = analyse("int f(void) {\n  system(fixed);\n  return 0;\n}")
        result = taint_analysis(cfg, [])
        assert result.sink_sites == 1

    def test_python_eval_taint(self):
        cfg, fn = analyse(
            "def f(expr):\n    cmd = expr\n    eval(cmd)\n    return 0\n",
            path="t.py",
        )
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

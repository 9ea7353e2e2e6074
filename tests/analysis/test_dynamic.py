"""Dynamic-trace simulator tests."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dynamic import measure_codebase, simulate_cfg
from repro.lang import Codebase, SourceFile, extract_functions
from tests.analysis import cfg_reference as reference


def cfg_of(text, path="t.c"):
    src = SourceFile(path, text)
    fn = extract_functions(src)[0]
    return build_cfg(fn, src)


STRAIGHT = "int f(void) {\n  int a = 1;\n  return a;\n}\n"
BRANCHY = (
    "int f(int a) {\n  if (a > 0) { a = 1; } else { a = 2; }\n"
    "  if (a > 1) { a = 3; }\n  return a;\n}\n"
)
LOOPY = "int f(int n) {\n  while (n > 0) { n = n - 1; }\n  return n;\n}\n"
DANGEROUS = (
    "int f(char *s) {\n  char buf[8];\n  strcpy(buf, s);\n  return 0;\n}\n"
)


class TestSimulateCfg:
    def test_straight_line_full_coverage(self):
        result = simulate_cfg(cfg_of(STRAIGHT), n_walks=3, seed=1)
        assert result.node_coverage == 1.0
        assert result.edge_coverage == 1.0
        assert result.truncated_walks == 0

    def test_branches_partially_covered_with_one_walk(self):
        result = simulate_cfg(cfg_of(BRANCHY), n_walks=1, seed=1)
        assert result.edge_coverage < 1.0

    def test_many_walks_increase_coverage(self):
        cfg = cfg_of(BRANCHY)
        few = simulate_cfg(cfg, n_walks=1, seed=1)
        many = simulate_cfg(cfg, n_walks=50, seed=1)
        assert many.edge_coverage >= few.edge_coverage

    def test_loops_bounded_by_max_steps(self):
        result = simulate_cfg(cfg_of(LOOPY), n_walks=5, max_steps=10, seed=1)
        assert result.mean_trace_length <= 10

    def test_dangerous_execution_counted(self):
        result = simulate_cfg(cfg_of(DANGEROUS), n_walks=4, seed=1)
        assert result.dangerous_executions == 4  # straight line, every walk

    def test_deterministic_per_seed(self):
        cfg = cfg_of(BRANCHY)
        a = simulate_cfg(cfg, n_walks=10, seed=7)
        b = simulate_cfg(cfg, n_walks=10, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        cfg = cfg_of(BRANCHY)
        outcomes = {simulate_cfg(cfg, n_walks=3, seed=s).edge_coverage
                    for s in range(8)}
        assert len(outcomes) > 1

    def test_invalid_walks(self):
        with pytest.raises(ValueError):
            simulate_cfg(cfg_of(STRAIGHT), n_walks=0)

    def test_hot_concentration_bounds(self):
        result = simulate_cfg(cfg_of(LOOPY), n_walks=5, seed=2)
        assert 0.0 < result.hot_concentration <= 1.0


class TestCodebaseMetrics:
    def test_aggregates(self, mixed_codebase):
        m = measure_codebase(mixed_codebase)
        assert 0.0 < m.mean_node_coverage <= 1.0
        assert m.mean_trace_length > 0

    def test_empty(self):
        m = measure_codebase(Codebase("empty"))
        assert m.mean_node_coverage == 0.0
        assert m.dangerous_executions == 0

    def test_deterministic_across_calls(self, mixed_codebase):
        assert measure_codebase(mixed_codebase) == measure_codebase(
            mixed_codebase
        )

    def test_feature_integration(self):
        from repro.core.features import extract_features

        cb = Codebase.from_sources("t", {"a.c": BRANCHY})
        row = extract_features(cb, include_dynamic=True)
        assert "dynamic.node_coverage" in row
        without = extract_features(cb, include_dynamic=False)
        assert "dynamic.node_coverage" not in without


class TestStatementLevelReference:
    """The block-IR walk is the statement-level walk, draw for draw."""

    def test_walks_match_reference(self, mixed_codebase, small_corpus):
        sources = list(mixed_codebase)
        for app in small_corpus.apps[:4]:
            sources.extend(app.codebase.files[:4])
        walked = 0
        for source in sources:
            for func in extract_functions(source):
                for seed in (0, 7, 12345):
                    ir = simulate_cfg(build_cfg(func, source), n_walks=10,
                                      max_steps=150, seed=seed)
                    ref = simulate_cfg_reference(func, source, seed)
                    assert ir == ref, (source.path, func.name, seed)
                    walked += 1
        assert walked > 50

    def test_truncated_loops_match_reference(self):
        source = SourceFile("t.c", LOOPY)
        func = extract_functions(source)[0]
        for seed in range(20):
            ir = simulate_cfg(build_cfg(func, source), n_walks=5,
                              max_steps=7, seed=seed)
            assert ir == simulate_cfg_reference(func, source, seed,
                                                n_walks=5, max_steps=7)


def simulate_cfg_reference(func, source, seed, n_walks=10, max_steps=150):
    return reference.simulate_cfg(reference.build_cfg(func, source),
                                  n_walks=n_walks, max_steps=max_steps,
                                  seed=seed)

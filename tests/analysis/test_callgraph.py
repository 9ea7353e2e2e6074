"""Call-graph construction and metric tests."""

import pytest

from repro.analysis.callgraph import build_callgraph, measure_codebase
from repro.lang import Codebase


def codebase_of(**files):
    return Codebase.from_sources("t", {k.replace("_", "."): v for k, v in files.items()})


SIMPLE = """\
static int leaf(int a) {
    return a + 1;
}

static int middle(int a) {
    return leaf(a) + leaf(a + 1);
}

int main(int argc, char **argv) {
    printf("%d", middle(argc));
    return 0;
}
"""


class TestConstruction:
    def test_nodes_are_defined_functions(self):
        g = build_callgraph(codebase_of(a_c=SIMPLE))
        assert set(g.nodes) == {"leaf", "middle", "main"}

    def test_edges_follow_calls(self):
        g = build_callgraph(codebase_of(a_c=SIMPLE))
        assert g.has_edge("middle", "leaf")
        assert g.has_edge("main", "middle")
        assert not g.has_edge("leaf", "middle")

    def test_duplicate_call_single_edge(self):
        g = build_callgraph(codebase_of(a_c=SIMPLE))
        assert g.number_of_edges() == 2

    def test_external_calls_counted(self):
        g = build_callgraph(codebase_of(a_c=SIMPLE))
        assert g.nodes["main"]["external"] == 1  # printf

    def test_cross_file_resolution(self):
        files = {
            "a_c": "int helper(int x) {\n    return x;\n}\n",
            "b_c": "int main(void) {\n    return helper(1);\n}\n",
        }
        g = build_callgraph(codebase_of(**files))
        assert g.has_edge("main", "helper")

    def test_recursion_self_loop(self):
        text = "int fact(int n) {\n  if (n < 2) return 1;\n  return n * fact(n - 1);\n}\n"
        g = build_callgraph(codebase_of(a_c=text))
        assert g.has_edge("fact", "fact")

    def test_python_calls(self):
        text = "def a():\n    return 1\n\ndef b():\n    return a()\n"
        g = build_callgraph(codebase_of(m_py=text))
        assert g.has_edge("b", "a")
        # A `(` past the body's last token is not the body's call.
        text = "def a():\n    return 1\n\ndef b():\n    return a\n(a)\n"
        g = build_callgraph(codebase_of(m_py=text))
        assert not g.has_edge("b", "a")


class TestMetrics:
    def test_fan_in_out(self):
        m = measure_codebase(codebase_of(a_c=SIMPLE))
        assert m.max_fan_out == 1
        assert m.max_fan_in == 1
        assert m.n_functions == 3

    def test_entry_reachability(self):
        m = measure_codebase(codebase_of(a_c=SIMPLE))
        assert m.n_entry_points == 1
        assert m.reachable_from_entry == 3
        assert m.reachable_fraction == pytest.approx(1.0)

    def test_unreachable_function(self):
        text = SIMPLE + "\nstatic int orphan(void) {\n    return 9;\n}\n"
        m = measure_codebase(codebase_of(a_c=text))
        assert m.reachable_from_entry == 3
        assert m.reachable_fraction < 1.0

    def test_recursive_cycles_counted(self):
        text = (
            "int odd(int n) {\n  if (n == 0) return 0;\n  return even(n - 1);\n}\n"
            "int even(int n) {\n  if (n == 0) return 1;\n  return odd(n - 1);\n}\n"
        )
        m = measure_codebase(codebase_of(a_c=text))
        assert m.n_recursive_cycles == 1

    def test_empty_codebase(self):
        m = measure_codebase(Codebase("empty"))
        assert m.n_functions == 0
        assert m.reachable_fraction == 0.0

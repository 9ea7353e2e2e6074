"""Statement tree and CFG tests.

Statement shapes (node kinds, which node an edge leaves) are pinned on
the statement-level reference in ``cfg_reference``; the product's block
IR keeps only statement-level counts, so every case also has a twin
(``test_ir_record_fields_match_reference``) that checks the IR's record
fields equal the reference's on the case's source.
"""

import pytest

from repro.analysis.cfg import ENTRY, EXIT, build_cfg, measure_codebase
from repro.analysis.cyclomatic import function_complexity
from repro.lang import Codebase, SourceFile, extract_functions
from tests.analysis import cfg_reference as reference

#: The source of each case, by test name, for the IR twins.
CASES = {
    "test_if_else_shape":
        "int f(int a) {\n  if (a) { a = 1; } else { a = 2; }\n  return a;\n}",
    "test_loop_shape": "int f(int n) {\n  while (n) { n--; }\n  return n;\n}",
    "test_do_while": "int f(int n) {\n  do { n--; } while (n);\n  return n;\n}",
    "test_switch_cases":
        "int f(int a) {\n  switch (a) {\n  case 1: a = 1; break;\n"
        "  default: a = 0;\n  }\n  return a;\n}",
    "test_python_elif_chain":
        "def f(a):\n    if a > 1:\n        return 1\n"
        "    elif a > 0:\n        return 2\n    else:\n        return 3\n",
    "test_python_try_except":
        "def f():\n    try:\n        x = 1\n    except ValueError:\n"
        "        x = 2\n    return x\n",
    "test_straight_line": "int f(void) {\n  int a = 1;\n  return a;\n}",
    "test_if_without_else_two_paths":
        "int f(int a) {\n  if (a) { a = 1; }\n  return a;\n}",
    "test_if_else_two_paths":
        "int f(int a) {\n  if (a) { a = 1; } else { a = 2; }\n  return a;\n}",
    "test_sequential_ifs_multiply_paths":
        "int f(int a) {\n  if (a) { a = 1; }\n  if (a > 2) { a = 2; }\n"
        "  if (a > 3) { a = 3; }\n  return a;\n}",
    "test_loop_adds_cycle":
        "int f(int n) {\n  while (n) { n--; }\n  return n;\n}",
    "test_early_return_reaches_exit":
        "int f(int a) {\n  if (a) { return 1; }\n  return 0;\n}",
    "test_break_targets_loop_exit":
        "int f(int n) {\n  while (n) {\n    if (n == 3) { break; }\n"
        "    n--;\n  }\n  return n;\n}",
    "test_goto_resolves_to_label":
        "int f(int a) {\n  if (a) { goto out; }\n  a = 2;\n"
        "out:\n  return a;\n}",
    "test_empty_function": "int f(void) {\n}\n",
    "test_path_count_cap": "int f(int a) {\n" + "".join(
        f"  if (a > {i}) {{ a++; }}\n" for i in range(20)
    ) + "  return a;\n}",
    "test_for_else_free_loop":
        "def f(n):\n    total = 0\n    for i in range(n):\n"
        "        total += i\n    return total\n",
    "test_try_handler_branches":
        "def f():\n    try:\n        x = 1\n    except ValueError:\n"
        "        x = 2\n    return x\n",
    # The string's unindented line ends `f` before the deeper line
    # after it, so the `if` block must stop at the function's end.
    "test_python_block_ends_with_function":
        'def f(a):\n    if a: x = """\ntext\n"""\n        y = g(1)\n',
}

_PYTHON_CASES = {"test_python_elif_chain", "test_python_try_except",
                 "test_for_else_free_loop", "test_try_handler_branches",
                 "test_python_block_ends_with_function"}


def _path(name):
    return "t.py" if name in _PYTHON_CASES else "t.c"


def _function(name):
    src = SourceFile(_path(name), CASES[name])
    return extract_functions(src)[0], src


def ir_for(name):
    """The product block CFG of a case."""
    fn, src = _function(name)
    return build_cfg(fn, src)


def reference_for(name):
    """(statement-level CFG, function, source) of a case."""
    fn, src = _function(name)
    return reference.build_cfg(fn, src), fn, src


def nodes_of_kind(cfg, kind):
    return [n for n, k in enumerate(cfg.kinds) if k == kind]


def is_acyclic(cfg):
    """Three-colour DFS over ``succs`` from every node."""
    size = len(cfg.succs)
    state = [0] * size  # 0 new, 1 on the DFS path, 2 done
    for root in range(size):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(cfg.succs[root]))]
        while stack:
            node, it = stack[-1]
            for succ in it:
                if state[succ] == 1:
                    return False
                if state[succ] == 0:
                    state[succ] = 1
                    stack.append((succ, iter(cfg.succs[succ])))
                    break
            else:
                state[node] = 2
                stack.pop()
    return True


@pytest.mark.parametrize("name", sorted(CASES))
def test_ir_record_fields_match_reference(name):
    reference.assert_ir_matches_reference(CASES[name], _path(name))


def test_ir_matches_reference_on_sample_sources(c_source, py_source,
                                                java_source):
    for source in (c_source, py_source, java_source):
        reference.assert_ir_matches_reference(source.text, source.path)


class TestStatementTree:
    def test_if_else_shape(self):
        _, fn, src = reference_for("test_if_else_shape")
        stmts = reference.parse_statements(fn, src)
        kinds = [s.kind for s in stmts]
        assert kinds == ["if", "return"]
        assert stmts[0].body and stmts[0].orelse

    def test_loop_shape(self):
        _, fn, src = reference_for("test_loop_shape")
        stmts = reference.parse_statements(fn, src)
        assert stmts[0].kind == "loop"

    def test_do_while(self):
        _, fn, src = reference_for("test_do_while")
        stmts = reference.parse_statements(fn, src)
        assert stmts[0].kind == "loop"

    def test_switch_cases(self):
        _, fn, src = reference_for("test_switch_cases")
        stmts = reference.parse_statements(fn, src)
        assert stmts[0].kind == "switch"
        assert len(stmts[0].cases) == 2

    def test_python_elif_chain(self):
        _, fn, src = reference_for("test_python_elif_chain")
        stmts = reference.parse_statements(fn, src)
        assert stmts[0].kind == "if"
        assert stmts[0].orelse[0].kind == "if"  # elif desugared
        assert stmts[0].orelse[0].orelse  # trailing else attached

    def test_python_try_except(self):
        _, fn, src = reference_for("test_python_try_except")
        stmts = reference.parse_statements(fn, src)
        assert stmts[0].kind == "try"
        assert len(stmts[0].cases) == 1


class TestCFGShape:
    def test_straight_line(self):
        cfg = ir_for("test_straight_line")
        assert cfg.cyclomatic == 1
        assert cfg.path_count() == 1

    def test_if_without_else_two_paths(self):
        cfg = ir_for("test_if_without_else_two_paths")
        assert cfg.cyclomatic == 2
        assert cfg.path_count() == 2

    def test_if_else_two_paths(self):
        cfg = ir_for("test_if_else_two_paths")
        assert cfg.path_count() == 2

    def test_sequential_ifs_multiply_paths(self):
        cfg = ir_for("test_sequential_ifs_multiply_paths")
        assert cfg.path_count() == 8

    def test_loop_adds_cycle(self):
        cfg = ir_for("test_loop_adds_cycle")
        assert cfg.cyclomatic == 2
        assert not is_acyclic(cfg)

    def test_early_return_reaches_exit(self):
        cfg, _, _ = reference_for("test_early_return_reaches_exit")
        returns = nodes_of_kind(cfg, "return")
        assert len(returns) == 2
        for node in returns:
            assert cfg.exit in cfg.succs[node]

    def test_break_targets_loop_exit(self):
        cfg, _, _ = reference_for("test_break_targets_loop_exit")
        breaks = nodes_of_kind(cfg, "break")
        assert len(breaks) == 1
        # The break node must NOT jump to function exit directly.
        assert cfg.exit not in cfg.succs[breaks[0]]

    def test_goto_resolves_to_label(self):
        cfg, _, _ = reference_for("test_goto_resolves_to_label")
        gotos = nodes_of_kind(cfg, "goto")
        labels = nodes_of_kind(cfg, "label")
        assert len(gotos) == 1 and len(labels) == 1
        assert labels[0] in cfg.succs[gotos[0]]

    def test_empty_function(self):
        cfg, _, _ = reference_for("test_empty_function")
        assert cfg.exit in cfg.succs[cfg.entry]
        assert cfg.path_count() == 1
        ir = ir_for("test_empty_function")
        assert ir.succs[ENTRY] == [EXIT]
        assert ir.path_count() == 1

    def test_cfg_cyclomatic_close_to_token_mccabe(self, c_source):
        # The two implementations agree within the switch/boolean-operator
        # convention gap on structured code.
        for fn in extract_functions(c_source):
            cfg = build_cfg(fn, c_source)
            token_cc = function_complexity(fn, c_source)
            assert abs(cfg.cyclomatic - token_cc) <= 2

    def test_max_depth_positive(self, c_source):
        fn = extract_functions(c_source)[0]
        cfg = reference.build_cfg(fn, c_source)
        assert cfg.max_depth() >= 2

    def test_path_count_cap(self):
        cfg = ir_for("test_path_count_cap")
        assert cfg.path_count(cap=1000) == 1000


class TestPythonCFG:
    def test_for_else_free_loop(self):
        cfg = ir_for("test_for_else_free_loop")
        assert cfg.cyclomatic == 2

    def test_try_handler_branches(self):
        cfg = ir_for("test_try_handler_branches")
        assert cfg.path_count() == 2


class TestCodebaseMetrics:
    def test_measure_mixed(self, mixed_codebase):
        m = measure_codebase(mixed_codebase)
        assert m.n_cfg_nodes > 0
        assert m.n_cfg_edges >= m.n_cfg_nodes - 2
        assert m.n_return_nodes >= 3
        assert m.total_paths >= 1
        assert m.mean_cyclomatic >= 1.0

    def test_empty_codebase(self):
        m = measure_codebase(Codebase("empty"))
        assert m.n_cfg_nodes == 0
        assert m.mean_cyclomatic == 0.0

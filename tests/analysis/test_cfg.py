"""Statement tree and CFG tests."""

import pytest

from repro.analysis.cfg import CFG, build_cfg, measure_codebase, parse_statements
from repro.analysis.cyclomatic import function_complexity
from repro.lang import Codebase, SourceFile, extract_functions


def cfg_for(text, path="t.c", name=None):
    src = SourceFile(path, text)
    fns = extract_functions(src)
    fn = fns[0] if name is None else next(f for f in fns if f.name == name)
    return build_cfg(fn, src), fn, src


def nodes_of_kind(cfg, kind):
    return [n for n, k in enumerate(cfg.kinds) if k == kind]


def is_acyclic(cfg):
    """Three-colour DFS over ``succs`` from every node."""
    state = [0] * cfg.n_nodes  # 0 new, 1 on the DFS path, 2 done
    for root in range(cfg.n_nodes):
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


class TestStatementTree:
    def test_if_else_shape(self):
        _, fn, src = cfg_for(
            "int f(int a) {\n  if (a) { a = 1; } else { a = 2; }\n  return a;\n}"
        )
        stmts = parse_statements(fn, src)
        kinds = [s.kind for s in stmts]
        assert kinds == ["if", "return"]
        assert stmts[0].body and stmts[0].orelse

    def test_loop_shape(self):
        _, fn, src = cfg_for("int f(int n) {\n  while (n) { n--; }\n  return n;\n}")
        stmts = parse_statements(fn, src)
        assert stmts[0].kind == "loop"

    def test_do_while(self):
        _, fn, src = cfg_for("int f(int n) {\n  do { n--; } while (n);\n  return n;\n}")
        stmts = parse_statements(fn, src)
        assert stmts[0].kind == "loop"

    def test_switch_cases(self):
        _, fn, src = cfg_for(
            "int f(int a) {\n  switch (a) {\n  case 1: a = 1; break;\n"
            "  default: a = 0;\n  }\n  return a;\n}"
        )
        stmts = parse_statements(fn, src)
        assert stmts[0].kind == "switch"
        assert len(stmts[0].cases) == 2

    def test_python_elif_chain(self):
        _, fn, src = cfg_for(
            "def f(a):\n    if a > 1:\n        return 1\n"
            "    elif a > 0:\n        return 2\n    else:\n        return 3\n",
            path="t.py",
        )
        stmts = parse_statements(fn, src)
        assert stmts[0].kind == "if"
        assert stmts[0].orelse[0].kind == "if"  # elif desugared
        assert stmts[0].orelse[0].orelse  # trailing else attached

    def test_python_try_except(self):
        _, fn, src = cfg_for(
            "def f():\n    try:\n        x = 1\n    except ValueError:\n"
            "        x = 2\n    return x\n",
            path="t.py",
        )
        stmts = parse_statements(fn, src)
        assert stmts[0].kind == "try"
        assert len(stmts[0].cases) == 1


class TestCFGShape:
    def test_straight_line(self):
        cfg, _, _ = cfg_for("int f(void) {\n  int a = 1;\n  return a;\n}")
        assert cfg.cyclomatic == 1
        assert cfg.path_count() == 1

    def test_if_without_else_two_paths(self):
        cfg, _, _ = cfg_for("int f(int a) {\n  if (a) { a = 1; }\n  return a;\n}")
        assert cfg.cyclomatic == 2
        assert cfg.path_count() == 2

    def test_if_else_two_paths(self):
        cfg, _, _ = cfg_for(
            "int f(int a) {\n  if (a) { a = 1; } else { a = 2; }\n  return a;\n}"
        )
        assert cfg.path_count() == 2

    def test_sequential_ifs_multiply_paths(self):
        cfg, _, _ = cfg_for(
            "int f(int a) {\n  if (a) { a = 1; }\n  if (a > 2) { a = 2; }\n"
            "  if (a > 3) { a = 3; }\n  return a;\n}"
        )
        assert cfg.path_count() == 8

    def test_loop_adds_cycle(self):
        cfg, _, _ = cfg_for("int f(int n) {\n  while (n) { n--; }\n  return n;\n}")
        assert cfg.cyclomatic == 2
        assert not is_acyclic(cfg)

    def test_early_return_reaches_exit(self):
        cfg, _, _ = cfg_for(
            "int f(int a) {\n  if (a) { return 1; }\n  return 0;\n}"
        )
        returns = nodes_of_kind(cfg, "return")
        assert len(returns) == 2
        for node in returns:
            assert cfg.exit in cfg.succs[node]

    def test_break_targets_loop_exit(self):
        cfg, _, _ = cfg_for(
            "int f(int n) {\n  while (n) {\n    if (n == 3) { break; }\n"
            "    n--;\n  }\n  return n;\n}"
        )
        breaks = nodes_of_kind(cfg, "break")
        assert len(breaks) == 1
        # The break node must NOT jump to function exit directly.
        assert cfg.exit not in cfg.succs[breaks[0]]

    def test_goto_resolves_to_label(self):
        cfg, _, _ = cfg_for(
            "int f(int a) {\n  if (a) { goto out; }\n  a = 2;\n"
            "out:\n  return a;\n}"
        )
        gotos = nodes_of_kind(cfg, "goto")
        labels = nodes_of_kind(cfg, "label")
        assert len(gotos) == 1 and len(labels) == 1
        assert labels[0] in cfg.succs[gotos[0]]

    def test_empty_function(self):
        cfg, _, _ = cfg_for("int f(void) {\n}\n")
        assert cfg.exit in cfg.succs[cfg.entry]
        assert cfg.path_count() == 1

    def test_cfg_cyclomatic_close_to_token_mccabe(self, c_source):
        # The two implementations agree within the switch/boolean-operator
        # convention gap on structured code.
        for fn in extract_functions(c_source):
            cfg = build_cfg(fn, c_source)
            token_cc = function_complexity(fn, c_source)
            assert abs(cfg.cyclomatic - token_cc) <= 2

    def test_max_depth_positive(self, c_source):
        fn = extract_functions(c_source)[0]
        cfg = build_cfg(fn, c_source)
        assert cfg.max_depth() >= 2

    def test_path_count_cap(self):
        text = "int f(int a) {\n" + "".join(
            f"  if (a > {i}) {{ a++; }}\n" for i in range(20)
        ) + "  return a;\n}"
        cfg, _, _ = cfg_for(text)
        assert cfg.path_count(cap=1000) == 1000


class TestPythonCFG:
    def test_for_else_free_loop(self):
        cfg, _, _ = cfg_for(
            "def f(n):\n    total = 0\n    for i in range(n):\n"
            "        total += i\n    return total\n",
            path="t.py",
        )
        assert cfg.cyclomatic == 2

    def test_try_handler_branches(self):
        cfg, _, _ = cfg_for(
            "def f():\n    try:\n        x = 1\n    except ValueError:\n"
            "        x = 2\n    return x\n",
            path="t.py",
        )
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

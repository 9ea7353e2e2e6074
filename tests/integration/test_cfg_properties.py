"""Property-based tests over generated structured programs.

A hypothesis grammar emits random-but-valid C-like and Python function
bodies; the structural parser, CFG builder, and dataflow analyses must
uphold their invariants on every one of them. The statement-level
invariants are checked on the reference in
``tests/analysis/cfg_reference.py``; each property has an ``_ir`` twin
that checks the product's block IR gives the same record fields on the
same bodies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cfg as ir
from repro.analysis import dataflow
from repro.analysis.cyclomatic import function_complexity
from repro.analysis.dataflow import TAINT_SINKS, TAINT_SOURCES
from repro.lang import SourceFile, extract_functions
from tests.analysis.cfg_reference import (
    assert_ir_matches_reference,
    build_cfg,
    node_flow_info,
    rd_metrics,
    reaching_definitions,
    taint_analysis,
)

# -- random structured-program generator -------------------------------------


@st.composite
def c_statements(draw, depth=0):
    """A list of C statement strings, bounded nesting."""
    n = draw(st.integers(1, 4))
    statements = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["assign", "if", "ifelse", "while", "return", "call"]
                if depth < 2
                else ["assign", "return", "call"]
            )
        )
        var = draw(st.sampled_from("abcxyz"))
        value = draw(st.integers(0, 99))
        if kind == "assign":
            statements.append(f"{var} = {value};")
        elif kind == "call":
            statements.append(f"{var} = helper({var});")
        elif kind == "return":
            statements.append(f"return {var};")
        elif kind == "if":
            inner = draw(c_statements(depth=depth + 1))
            statements.append(
                f"if ({var} > {value}) {{\n" + "\n".join(inner) + "\n}"
            )
        elif kind == "ifelse":
            then = draw(c_statements(depth=depth + 1))
            other = draw(c_statements(depth=depth + 1))
            statements.append(
                f"if ({var} > {value}) {{\n" + "\n".join(then)
                + "\n} else {\n" + "\n".join(other) + "\n}"
            )
        elif kind == "while":
            inner = draw(c_statements(depth=depth + 1))
            statements.append(
                f"while ({var} < {value}) {{\n" + "\n".join(inner) + "\n}"
            )
    return statements


@st.composite
def c_functions(draw):
    body = "\n".join(draw(c_statements()))
    return (
        "int f(int a, int b) {\n"
        "int x = 0;\nint y = 1;\nint c = 2;\nint z = 3;\n"
        + body
        + "\nreturn x;\n}"
    )


def _function_and_cfg(text, path="t.c"):
    src = SourceFile(path, text)
    functions = extract_functions(src)
    assert functions, text
    return functions[0], src, build_cfg(functions[0], src)


def _closure(adjacency, start):
    """Nodes reachable from ``start`` (inclusive) over ``adjacency``."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@settings(max_examples=120, deadline=None)
@given(c_functions())
def test_cfg_structural_invariants(text):
    fn, src, cfg = _function_and_cfg(text)
    # Entry has no predecessors; exit has no successors.
    assert cfg.preds[cfg.entry] == []
    assert cfg.succs[cfg.exit] == []
    # Every node reachable from entry can reach exit (no trap states).
    reachable = _closure(cfg.succs, cfg.entry)
    reaches_exit = _closure(cfg.preds, cfg.exit)
    for node in reachable:
        assert node in reaches_exit, (text, node)


@settings(max_examples=120, deadline=None)
@given(c_functions())
def test_cfg_structural_invariants_ir(text):
    assert_ir_matches_reference(text, "t.c")


@settings(max_examples=120, deadline=None)
@given(c_functions())
def test_cfg_cyclomatic_lower_bound(text):
    fn, src, cfg = _function_and_cfg(text)
    # Graph cyclomatic >= 1 and within the token count's neighbourhood.
    assert cfg.cyclomatic >= 1
    token_cc = function_complexity(fn, src)
    assert abs(cfg.cyclomatic - token_cc) <= token_cc  # same magnitude


@settings(max_examples=120, deadline=None)
@given(c_functions())
def test_cfg_cyclomatic_lower_bound_ir(text):
    fn, src, _ = _function_and_cfg(text)
    cfg = ir.build_cfg(fn, src)
    assert cfg.cyclomatic >= 1
    token_cc = function_complexity(fn, src)
    assert abs(cfg.cyclomatic - token_cc) <= token_cc
    assert_ir_matches_reference(text, "t.c")


@settings(max_examples=100, deadline=None)
@given(c_functions())
def test_path_count_at_least_one(text):
    _, _, cfg = _function_and_cfg(text)
    assert cfg.path_count() >= 1


@settings(max_examples=100, deadline=None)
@given(c_functions())
def test_path_count_at_least_one_ir(text):
    fn, src, _ = _function_and_cfg(text)
    assert ir.build_cfg(fn, src).path_count() >= 1
    assert_ir_matches_reference(text, "t.c")


@settings(max_examples=100, deadline=None)
@given(c_functions())
def test_reaching_definitions_terminates_and_is_sound(text):
    _, _, cfg = _function_and_cfg(text)
    rd = reaching_definitions(cfg)
    # Every reaching definition's origin node generated it.
    for node, reaching in rd.in_sets.items():
        for def_node, var in reaching:
            assert (def_node, var) in rd.gen[def_node]


@settings(max_examples=100, deadline=None)
@given(c_functions())
def test_reaching_definitions_terminates_and_is_sound_ir(text):
    assert_ir_matches_reference(text, "t.c")


@settings(max_examples=100, deadline=None)
@given(c_functions())
def test_taint_monotone_in_seed_params(text):
    fn, src, cfg = _function_and_cfg(text)
    none = taint_analysis(cfg, [])
    all_params = taint_analysis(cfg, fn.param_names)
    assert none.tainted_sink_calls <= all_params.tainted_sink_calls
    assert none.tainted_vars <= all_params.tainted_vars | set(fn.param_names)


@settings(max_examples=100, deadline=None)
@given(c_functions())
def test_taint_monotone_in_seed_params_ir(text):
    fn, src, _ = _function_and_cfg(text)
    cfg = ir.build_cfg(fn, src)
    none = dataflow.taint_analysis(cfg, [])
    all_params = dataflow.taint_analysis(cfg, fn.param_names)
    assert none.tainted_sink_calls <= all_params.tainted_sink_calls
    assert none.tainted_vars <= all_params.tainted_vars | set(fn.param_names)
    assert_ir_matches_reference(text, "t.c")


@st.composite
def py_functions(draw):
    lines = ["def f(a, b):", "    x = 0"]
    n = draw(st.integers(1, 4))
    for _ in range(n):
        kind = draw(st.sampled_from(["assign", "if", "for", "return"]))
        var = draw(st.sampled_from("abxyz"))
        value = draw(st.integers(0, 9))
        if kind == "assign":
            lines.append(f"    {var} = {value}")
        elif kind == "if":
            lines.append(f"    if {var} > {value}:")
            lines.append(f"        {var} = {value} + 1")
        elif kind == "for":
            lines.append(f"    for i in range({value + 1}):")
            lines.append(f"        {var} = {var} + i" if var != "i"
                         else "        x = x + i")
        else:
            lines.append(f"    return {var}")
    lines.append("    return x")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(py_functions())
def test_python_cfg_invariants(text):
    fn, src, cfg = _function_and_cfg(text, path="t.py")
    assert cfg.preds[cfg.entry] == []
    assert cfg.succs[cfg.exit] == []
    assert cfg.path_count() >= 1
    reaching_definitions(cfg)  # must terminate without raising


@settings(max_examples=100, deadline=None)
@given(py_functions())
def test_python_cfg_invariants_ir(text):
    assert_ir_matches_reference(text, "t.py")


# -- differential: bitset fixpoints vs set-based reference worklists ---------
#
# The references below are deliberately naive: predecessors are derived
# from ``succs`` here (not read from ``cfg.preds``), facts are Python
# sets of (node, var) pairs or variable names, and every node is swept
# in id order until nothing changes. Any of those orders reaches the
# same least fixpoint, so the production worklist must agree exactly.


def _reference_preds(cfg):
    preds = [[] for _ in range(cfg.n_nodes)]
    for node, out in enumerate(cfg.succs):
        for succ in out:
            preds[succ].append(node)
    return preds


def _reference_sweep(cfg, transfer, seed=frozenset()):
    """Round-robin forward may-analysis over sets; returns IN per node."""
    preds = _reference_preds(cfg)
    in_sets = [set() for _ in range(cfg.n_nodes)]
    out_sets = [set() for _ in range(cfg.n_nodes)]
    changed = True
    while changed:
        changed = False
        for node in range(cfg.n_nodes):
            new_in = set(seed) if node == cfg.entry else set()
            for pred in preds[node]:
                new_in |= out_sets[pred]
            new_out = transfer(node, new_in)
            if new_in != in_sets[node] or new_out != out_sets[node]:
                in_sets[node], out_sets[node] = new_in, new_out
                changed = True
    return in_sets


def reference_reaching(cfg, info):
    """IN sets of (defining node, var) pairs, by the textbook equations."""

    def transfer(node, reaching):
        defs = info[node][0]
        return {d for d in reaching if d[1] not in defs} | {
            (node, var) for var in defs}

    return _reference_sweep(cfg, transfer)


def reference_rd_metrics(cfg, info):
    in_sets = reference_reaching(cfg, info)
    pairs = sum(
        1 for node, reaching in enumerate(in_sets)
        for (_, var) in reaching if var in info[node][1])
    return (sum(len(defs) for defs, _, _ in info),
            sum(len(used) for _, used, _ in info),
            pairs,
            max(len(s) for s in in_sets))


def reference_taint(cfg, params, info):
    """(tainted vars, tainted sink calls, source sites, sink sites)."""

    def transfer(node, tainted):
        defs, used, calls = info[node]
        if not defs:
            return tainted
        if (used - defs) & tainted or calls & TAINT_SOURCES:
            return tainted | defs
        return tainted - defs

    in_sets = _reference_sweep(cfg, transfer, seed=set(params))
    tainted = set(params)
    tainted_sinks = 0
    for node, (defs, used, calls) in enumerate(info):
        used_reach = bool(used & in_sets[node])
        if used_reach or calls & TAINT_SOURCES:
            tainted |= defs
        if used_reach and calls & TAINT_SINKS:
            tainted_sinks += 1
    return (frozenset(tainted), tainted_sinks,
            sum(1 for _, _, calls in info if calls & TAINT_SOURCES),
            sum(1 for _, _, calls in info if calls & TAINT_SINKS))


#: Flow-shape statements the plain generators above never emit: a
#: self-loop, a backward goto, dead code after a return, switch arms
#: falling through, empty ``if`` bodies (duplicate edges), and taint
#: sources/sinks.
_C_SHAPES = [
    "while ({v});",
    "top: {v} = {v} + 1;\nif ({v} < {n}) goto top;",
    "if ({v} > {n}) {{ goto out; }}",
    "out: {v} = {w};",
    "return {v};\n{w} = {v} + {n};",
    "switch ({v}) {{\ncase 1: {w} = {v};\ncase 2: {v} = {w}; break;\n"
    "default: {w}++;\n}}",
    "if ({v}) {{ }}",
    "if ({v}) {{ }} else {{ }}",
    "{v} = getenv({w});",
    "strcpy({v}, {w});",
    "system({v});",
    "{v} += {w};",
    "{v} = {n};",
    "{v} = helper({w});",
]


@st.composite
def c_flow_statements(draw, depth=0):
    statements = []
    for _ in range(draw(st.integers(1, 4))):
        v, w = draw(st.sampled_from("abxyz")), draw(st.sampled_from("abxyz"))
        n = draw(st.integers(0, 9))
        kind = draw(st.sampled_from(
            ["shape"] * 3 + (["if", "while"] if depth < 2 else [])))
        if kind == "shape":
            statements.append(
                draw(st.sampled_from(_C_SHAPES)).format(v=v, w=w, n=n))
        else:
            inner = "\n".join(draw(c_flow_statements(depth=depth + 1)))
            head = "if" if kind == "if" else "while"
            statements.append(f"{head} ({v} > {n}) {{\n{inner}\n}}")
    return statements


@st.composite
def c_flow_functions(draw):
    body = "\n".join(draw(c_flow_statements()))
    return f"int f(int a, char *b) {{\nint x = 0;\n{body}\nreturn x;\n}}"


_PY_SHAPES = [
    ["while {v}:", "    pass"],
    ["return {v}", "{w} = {v} + {n}"],
    ["if {v} > {n}:", "    {w} = input()", "elif {w}:", "    {v} = {n}",
     "else:", "    eval({v})"],
    ["for i in range({n}):", "    {v} = {v} + i", "    if i:",
     "        break", "    continue"],
    ["try:", "    {v} = {w}", "except ValueError:", "    os.system({v})"],
    ["{v} += {w}"],
    ["{v} = {n}"],
]


@st.composite
def py_flow_functions(draw):
    lines = ["def f(a, b):", "    x = 0"]
    for _ in range(draw(st.integers(1, 5))):
        v, w = draw(st.sampled_from("abxyz")), draw(st.sampled_from("abxyz"))
        n = draw(st.integers(0, 9))
        for line in draw(st.sampled_from(_PY_SHAPES)):
            lines.append("    " + line.format(v=v, w=w, n=n))
    lines.append("    return x")
    return "\n".join(lines) + "\n"


def _assert_fixpoints_match_reference(text, path):
    fn, _, cfg = _function_and_cfg(text, path)
    info = node_flow_info(cfg)
    # The flat CFG's own invariants: preds mirror succs, no repeated
    # edge, and n_edges counts each distinct edge once.
    assert cfg.preds == _reference_preds(cfg)
    assert all(len(set(out)) == len(out) for out in cfg.succs)
    assert cfg.n_edges == len({(u, v) for u, out in enumerate(cfg.succs)
                               for v in out})

    assert rd_metrics(cfg, info) == reference_rd_metrics(cfg, info)
    rd = reaching_definitions(cfg, info)
    expected = reference_reaching(cfg, info)
    assert rd.in_sets == {n: frozenset(s) for n, s in enumerate(expected)}
    assert rd.def_use_pairs() == reference_rd_metrics(cfg, info)[2]

    for params in (fn.param_names, []):
        taint = taint_analysis(cfg, params, info)
        assert (taint.tainted_vars, taint.tainted_sink_calls,
                taint.source_sites, taint.sink_sites) == reference_taint(
                    cfg, params, info), (text, params)


def _assert_ir_matches_set_reference(text, path):
    """The block fixpoints agree with the naive set sweeps."""
    fn, src, cfg = _function_and_cfg(text, path)
    info = node_flow_info(cfg)
    graph = ir.build_cfg(fn, src)
    for params in (fn.param_names, []):
        counts = dataflow.flow_counts(graph, params)
        assert (counts.defs, counts.uses, counts.def_use_pairs,
                counts.max_reaching) == reference_rd_metrics(cfg, info)
        taint = dataflow.taint_analysis(graph, params)
        assert (taint.tainted_vars, taint.tainted_sink_calls,
                taint.source_sites, taint.sink_sites) == reference_taint(
                    cfg, params, info), (text, params)
    assert_ir_matches_reference(text, path)


@settings(max_examples=150, deadline=None)
@given(c_flow_functions())
def test_c_fixpoints_match_set_reference(text):
    _assert_fixpoints_match_reference(text, "t.c")


@settings(max_examples=150, deadline=None)
@given(c_flow_functions())
def test_c_fixpoints_match_set_reference_ir(text):
    _assert_ir_matches_set_reference(text, "t.c")


@settings(max_examples=100, deadline=None)
@given(py_flow_functions())
def test_python_fixpoints_match_set_reference(text):
    _assert_fixpoints_match_reference(text, "t.py")


@settings(max_examples=100, deadline=None)
@given(py_flow_functions())
def test_python_fixpoints_match_set_reference_ir(text):
    _assert_ir_matches_set_reference(text, "t.py")


#: Named flow shapes, for the parametrized cases below.
NAMED_SHAPES = [
    "int f(int x) {\nwhile (x);\nreturn x;\n}",
    "int f(int x) {\ntop: x = x - 1;\nif (x) goto top;\nreturn x;\n}",
    "int f(int x) {\nreturn x;\nx = 2;\nreturn x;\n}",
    "int f(int x) {\nint y = 0;\nswitch (x) {\ncase 1: y = 1;\n"
    "case 2: y = y + x; break;\ndefault: y = 3;\n}\nreturn y;\n}",
    "int f(int x) {\nif (x) { }\nreturn x;\n}",
]


@pytest.mark.parametrize("text", NAMED_SHAPES)
def test_named_flow_shapes_match_set_reference(text):
    _assert_fixpoints_match_reference(text, "t.c")


@pytest.mark.parametrize("text", NAMED_SHAPES)
def test_named_flow_shapes_match_set_reference_ir(text):
    _assert_ir_matches_set_reference(text, "t.c")


def test_self_loop_is_one_edge():
    _, _, cfg = _function_and_cfg("int f(int x) {\nwhile (x);\nreturn x;\n}")
    (head,) = [n for n, k in enumerate(cfg.kinds) if k == "loop"]
    assert cfg.succs[head].count(head) == 1
    assert cfg.preds[head].count(head) == 1


def test_self_loop_is_one_edge_ir():
    text = "int f(int x) {\nwhile (x);\nreturn x;\n}"
    fn, src, _ = _function_and_cfg(text)
    graph = ir.build_cfg(fn, src)
    assert sum(out.count(b) for b, out in enumerate(graph.succs)) == 1
    assert_ir_matches_reference(text, "t.c")


def test_empty_if_duplicate_edge_counted_once():
    # An empty then-arm leaves the branch node open twice (as the arm's
    # tail and as the no-else fall-through); both lower to one edge.
    _, _, cfg = _function_and_cfg("int f(int x) {\nif (x) { }\nreturn x;\n}")
    (branch,) = [n for n, k in enumerate(cfg.kinds) if k == "branch"]
    (ret,) = [n for n, k in enumerate(cfg.kinds) if k == "return"]
    assert cfg.succs[branch] == [ret]
    # entry -> branch, branch -> return, return -> exit.
    assert cfg.n_edges == 3
    assert cfg.cyclomatic == 1


def test_empty_if_duplicate_edge_counted_once_ir():
    text = "int f(int x) {\nif (x) { }\nreturn x;\n}"
    fn, src, _ = _function_and_cfg(text)
    graph = ir.build_cfg(fn, src)
    assert graph.n_edges == 3
    assert graph.cyclomatic == 1
    assert_ir_matches_reference(text, "t.c")

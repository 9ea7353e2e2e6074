"""Differential harness: the single-parse path is byte-identical.

Every per-file collector in ``repro.core.features`` takes the SourceFile
alone and reads its views from the file's shared
:class:`~repro.analysis.artifact.FileArtifact`. :func:`file_record` runs
all of them over one file, so the first analyzer builds each view and
the rest share it. The reference runs each collector on its own fresh
SourceFile copy instead (``reference_record``), so no view is shared and
every analyzer derives its own tokens, tables and CFGs. The contract is
*byte identity*: for every file and every analyzer the two must agree on
repr, on JSON bytes, and on dict key order, not merely on numeric
equality. The tree-level analyzers folded from JSON round-tripped
records (what the merge sees on a warm run) must equal the live
analyzers on a fresh tree, and the merged feature row must be identical
too.
"""

import inspect
import json

import pytest

from repro.analysis import artifact_for, callgraph, dynamic, oo
from repro.analysis.cfg import build_cfg
from repro.core.features import (
    _PER_FILE_COLLECTORS,
    file_record,
    _merged_surface,
    merge_records,
)
from repro.lang.sourcefile import Codebase
from repro.lang.tokens import TokenKind
from repro.surface import attack_graph, rasq

from tests.analysis.conftest import fresh_copy, reference_record

_FUSED = {key: collect for _, key, collect in _PER_FILE_COLLECTORS}


def _key_orders(obj):
    """Nested key-order skeleton of a record, for order-sensitive diffs."""
    if isinstance(obj, dict):
        return [(k, _key_orders(v)) for k, v in obj.items()]
    if isinstance(obj, list):
        return [_key_orders(v) for v in obj]
    return None


def _cfg_shape(graph):
    return (graph.starts, graph.ends, graph.succs, graph.facts,
            graph.n_returns, graph.names)


def test_collector_tables_align():
    spans = [span for span, _, _ in _PER_FILE_COLLECTORS]
    assert len(set(spans)) == len(spans)
    assert len(_FUSED) == len(_PER_FILE_COLLECTORS)
    for _, key, collect in _PER_FILE_COLLECTORS:
        # Every collector takes the file alone; its views come from the
        # file itself, so a fresh copy is a complete, independent input.
        assert len(inspect.signature(collect).parameters) == 1, key


@pytest.mark.parametrize("key", list(_FUSED))
def test_per_analyzer_fused_equals_legacy(key, corpus_files):
    for source in corpus_files:
        file_record(source)  # every view already built by the others
        fused = _FUSED[key](source)
        reference = _FUSED[key](fresh_copy(source))
        assert repr(fused) == repr(reference), (key, source.path)
        assert json.dumps(fused) == json.dumps(reference), (key, source.path)
        assert _key_orders(fused) == _key_orders(reference), \
            (key, source.path)


def test_file_record_fused_equals_legacy(corpus_files):
    for source in corpus_files:
        fused = file_record(source)
        reference = reference_record(source)
        assert repr(fused) == repr(reference), source.path
        assert json.dumps(fused) == json.dumps(reference), source.path
        assert _key_orders(fused) == _key_orders(reference), source.path


def test_artifact_views_match_legacy_derivations(corpus_files):
    from repro.lang.parser import extract_classes, extract_functions

    for source in corpus_files:
        art = artifact_for(source)
        fresh = fresh_copy(source)
        code = [t for t in fresh.tokens if t.is_code()]
        assert [repr(t) for t in art.code_tokens] == [
            repr(t) for t in code
        ], source.path
        assert art.call_sites == [
            i for i in range(len(code) - 1)
            if code[i].kind == TokenKind.IDENT and code[i + 1].text == "("
        ], source.path
        # Class matching fills in each method's ``owner`` on the shared
        # function table, so derive the reference table the same way.
        functions = extract_functions(fresh)
        classes = extract_classes(fresh, functions=functions)
        assert repr(art.classes) == repr(classes), source.path
        assert repr(art.classes) == repr(extract_classes(fresh_copy(source)))
        assert repr(art.functions) == repr(functions), source.path
        assert [_cfg_shape(g) for g in art.cfgs] == [
            _cfg_shape(build_cfg(f, fresh)) for f in functions
        ], source.path


def _round_trip(value):
    """JSON round trip, as the per-file cache stores records."""
    return json.loads(json.dumps(value))


#: Hand-written trees for the fold's edge semantics.
EDGE_TREES = {
    # First definition wins; the second body still counts as helper's.
    "two_definitions": {
        "a.c": "static int helper(int x) {\n    return x;\n}\n"
               "int main(void) {\n    return helper(1) + puts(\"a\");\n}\n",
        "b.c": "int helper(int x, int y) {\n    return helper(x) + y;\n}\n",
    },
    # obj.f() inside f is another object's method, not recursion.
    "self_method_call": {
        "conn.py": "def close(sock):\n    sock.close()\n    return flush()\n",
        "wire.c": "int send(struct conn *c) {\n    return c->send(c);\n}\n",
    },
    "python_self_fields": {
        "tool.py": "class Tool:\n"
                   "    def __init__(self):\n"
                   "        self.name = 'x'\n"
                   "        self._cache = {}\n"
                   "        self.reset()\n"
                   "\n"
                   "    def reset(self):\n"
                   "        self.count = 0\n"
                   "        return helper()\n"
                   "\n"
                   "\n"
                   "class Runner(Tool):\n"
                   "    def go(self):\n"
                   "        return reset()\n",
    },
    "java_fields": {
        "Account.java": "public class Account {\n"
                        "    public int balance;\n"
                        "    private String owner;\n"
                        "    protected static final int LIMIT = 10;\n"
                        "    public int total;\n"
                        "\n"
                        "    public void deposit(int amount) {\n"
                        "        balance = balance + amount;\n"
                        "    }\n"
                        "}\n",
    },
    "cpp_public_base": {
        "shape.cpp": "class Shape {\n"
                     "public:\n"
                     "    int area() { return 0; }\n"
                     "};\n"
                     "class Circle : public Shape {\n"
                     "public:\n"
                     "    int radius() { return area(); }\n"
                     "};\n"
                     "class Ring : public Circle {\n"
                     "public:\n"
                     "    int inner() { return radius(); }\n"
                     "};\n",
    },
    "cyclic_inheritance": {
        "A.java": "class A extends B {\n    void a() { b(); }\n}\n",
        "B.java": "class B extends A {\n    void b() { a(); }\n}\n",
    },
    # A later file's edge for the same child replaces the earlier one;
    # a method name stays with the first class that defines it.
    "later_edge_replaces": {
        "One.java": "class Leaf extends Mid {\n    void run() { }\n}\n"
                    "class Mid extends Root {\n    void run() { }\n}\n",
        "Two.java": "class Leaf extends Root {\n    void stop() { run(); }\n}\n",
    },
}


class TestTreeLevelAnalyzers:
    """The merge's fold over cached records == the live analyzers."""

    def _folded(self, files):
        """(records as the cache replays them, an independent live tree)."""
        cached = Codebase("t", [fresh_copy(f) for f in files])
        records = _round_trip([file_record(f) for f in cached.files])
        live = Codebase("t", [fresh_copy(f) for f in files])
        return cached, records, live

    def _calls(self, codebase, records):
        return callgraph.metrics_from_facts(
            (source.path, record["calls"])
            for source, record in zip(codebase.files, records))

    def _oo(self, records):
        return oo.metrics_from_facts(record["oo"] for record in records)

    def test_callgraph(self, corpus_files):
        cb, records, live = self._folded(corpus_files)
        assert self._calls(cb, records) == callgraph.measure_codebase(live)

    def test_oo(self, corpus_files):
        _, records, live = self._folded(corpus_files)
        assert self._oo(records) == oo.measure_codebase(live)

    def _warmed(self, files):
        """(a tree whose views ``file_record`` already built, a fresh one)."""
        warm = Codebase("t", [fresh_copy(f) for f in files])
        for source in warm.files:
            file_record(source)
        return warm, Codebase("t", [fresh_copy(f) for f in files])

    def test_rasq(self, corpus_files):
        cb, plain = self._warmed(corpus_files)
        fused = rasq.measure_codebase(cb)
        reference = rasq.measure_codebase(plain)
        assert fused == reference
        assert list(fused.channel_counts) == list(reference.channel_counts)

    def test_attack_graph(self, corpus_files):
        _, records, live = self._folded(corpus_files)
        surface = _merged_surface(records)
        assert surface == rasq.measure_codebase(live)
        assert list(surface.channel_counts) == \
            list(rasq.measure_codebase(live).channel_counts)
        assert attack_graph.metrics_from_surface(surface) == \
            attack_graph.measure_codebase(live)

    def test_dynamic(self, corpus_files):
        cb, plain = self._warmed(corpus_files)
        assert dynamic.measure_codebase(cb) == dynamic.measure_codebase(plain)

    @pytest.mark.parametrize("name", sorted(EDGE_TREES))
    def test_edge_trees_fold_equals_live(self, name):
        files = Codebase.from_sources(name, EDGE_TREES[name]).files
        cb, records, live = self._folded(files)
        assert self._calls(cb, records) == callgraph.measure_codebase(live)
        assert self._oo(records) == oo.measure_codebase(live)

    def _edge(self, name):
        cb = Codebase.from_sources(name, EDGE_TREES[name])
        records = _round_trip([file_record(f) for f in cb.files])
        return cb, records

    def test_function_defined_in_two_files(self):
        cb, records = self._edge("two_definitions")
        graph = callgraph.graph_from_facts(
            (source.path, record["calls"])
            for source, record in zip(cb.files, records))
        assert dict(graph.nodes["helper"]) == {
            "file": "a.c", "public": False, "params": 1, "external": 0}
        assert sorted(graph.edges) == [("helper", "helper"),
                                       ("main", "helper")]
        calls = self._calls(cb, records)
        assert (calls.n_functions, calls.n_external_calls,
                calls.max_fan_in, calls.n_recursive_cycles) == (2, 1, 2, 1)

    def test_self_method_call_is_not_recursion(self):
        cb, records = self._edge("self_method_call")
        assert [facts for record in records for facts in record["calls"]] \
            == [["close", 1, 1, {"flush": 1}], ["send", 1, 1, {}]]
        calls = self._calls(cb, records)
        assert (calls.n_edges, calls.n_external_calls,
                calls.n_recursive_cycles) == (0, 1, 0)

    def test_python_self_fields(self):
        _, records = self._edge("python_self_fields")
        tool, runner = records[0]["oo"]["classes"]
        # name, count public; _cache private; self.reset() is a call.
        assert tool[2:4] == [2, 3]
        assert runner[2:4] == [0, 0]
        design = self._oo(records)
        assert design.public_field_fraction == pytest.approx(2 / 3)
        assert design.max_coupling == 1  # Runner.go -> Tool.reset
        assert design.max_inheritance_depth == 1

    def test_java_visibility_fields(self):
        _, records = self._edge("java_fields")
        (account,) = records[0]["oo"]["classes"]
        assert account[2:4] == [2, 4]  # balance, total of four
        assert self._oo(records).public_field_fraction == 0.5

    def test_cpp_public_base(self):
        _, records = self._edge("cpp_public_base")
        assert records[0]["oo"]["inheritance"] == [["Circle", "Shape"],
                                                  ["Ring", "Circle"]]
        design = self._oo(records)
        assert design.max_inheritance_depth == 2
        assert design.mean_coupling == pytest.approx(2 / 3)

    def test_cyclic_inheritance_terminates(self):
        _, records = self._edge("cyclic_inheritance")
        design = self._oo(records)
        assert design.max_inheritance_depth == 1
        assert design.max_coupling == 1

    def test_later_edge_replaces_first_owner_stays(self):
        _, records = self._edge("later_edge_replaces")
        design = self._oo(records)
        # Leaf -> Root replaced Leaf -> Mid -> Root.
        assert design.max_inheritance_depth == 1
        # run() belongs to the first Leaf, so the second Leaf's call to
        # it is not coupling.
        assert design.max_coupling == 0


def test_merged_row_fused_equals_legacy(corpus_files):
    fused_cb = Codebase("corpus", [fresh_copy(f) for f in corpus_files])
    reference_cb = Codebase("corpus", [fresh_copy(f) for f in corpus_files])
    fused_records = [file_record(f) for f in fused_cb.files]
    reference_records = [reference_record(f) for f in reference_cb.files]
    fused_row = merge_records(fused_cb, fused_records, include_dynamic=True)
    reference_row = merge_records(reference_cb, reference_records,
                                  include_dynamic=True)
    assert repr(fused_row) == repr(reference_row)
    assert list(fused_row) == list(reference_row)
    assert json.dumps(fused_row) == json.dumps(reference_row)


def test_rasq_measure_file_matches_single_file_codebase(corpus_files):
    for source in corpus_files:
        per_file = rasq.measure_file(fresh_copy(source))
        wrapped = rasq.measure_codebase(
            Codebase(source.path, [fresh_copy(source)])
        )
        assert per_file == wrapped, source.path
        assert list(per_file.channel_counts) == list(wrapped.channel_counts)

"""Whole-codebase call-graph construction and metrics.

Nodes are functions defined anywhere in the codebase; an edge ``f -> g``
means the body of ``f`` contains a call site of ``g``. Name-based
resolution is standard for lightweight multi-language analysis and is how
the paper's proposed testbed would approximate "numbers of calling and
returning targets" (§4.1).

The graph is folded from per-file *facts* (:func:`file_facts`): each
function's name, visibility, arity and call-site counts. The feature
merge folds the facts stored in cached per-file records
(:func:`metrics_from_facts`), so a warm re-analysis builds the graph
without lexing or parsing any unchanged file.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

import networkx as nx

from repro.analysis.artifact import artifact_for
from repro.lang.sourcefile import Codebase, SourceFile

#: Conventional program entry points per language.
ENTRY_POINT_NAMES = frozenset({"main", "__main__", "run", "start"})


def file_facts(source: SourceFile) -> List[list]:
    """The call-graph facts of one file's function table.

    One ``[name, public, params, {callee: count}]`` entry per function,
    in table order: ``public`` is 0/1 and the counter tallies the body's
    call sites (an identifier followed by ``(``) by callee name. A call
    ``obj.f()`` inside ``f`` itself names another object's method, not
    recursion, and is skipped. The facts are plain JSON, so they ride in
    the cached per-file record and the tree-level fold never needs the
    file's tokens again.
    """
    facts: List[list] = []
    texts = source.columns.texts
    artifact = artifact_for(source)
    # The file's call sites are found once; each body bisects its run
    # of them, so nested bodies do not rescan each other's tokens.
    sites = artifact.call_sites
    for func in artifact.functions:
        name = func.name
        calls: Dict[str, int] = {}
        lo = func.body_start
        for k in range(bisect_left(sites, lo),
                       bisect_left(sites, func.body_end - 1)):
            i = sites[k]
            callee = texts[i]
            if callee == name and i > lo and texts[i - 1] in (".", "->"):
                continue
            calls[callee] = calls.get(callee, 0) + 1
        facts.append([name, 1 if func.is_public else 0, func.param_count,
                      calls])
    return facts


def graph_from_facts(files: Iterable[Tuple[str, List[list]]]) -> nx.DiGraph:
    """Fold ``(path, file_facts)`` pairs, in path order, into the call graph.

    Node attributes: ``file`` (defining path), ``public`` (visibility
    heuristic), ``params`` (parameter count). Calls to undefined names
    (library functions) are recorded on the caller as the ``external``
    attribute count rather than as graph nodes.
    """
    graph = nx.DiGraph()
    bodies: List[Tuple[str, Dict[str, int]]] = []
    for path, facts in files:
        for name, public, params, calls in facts:
            # First definition wins; duplicates (overloads, per-file statics)
            # merge into one node, which is the right granularity for
            # codebase-level fan-in/fan-out statistics.
            if name not in graph:
                graph.add_node(name, file=path, public=bool(public),
                               params=params, external=0)
            bodies.append((name, calls))

    for caller, calls in bodies:
        external = 0
        for callee, count in calls.items():
            if callee in graph:
                graph.add_edge(caller, callee)
            else:
                external += count
        graph.nodes[caller]["external"] += external
    return graph


def codebase_facts(codebase: Codebase) -> List[Tuple[str, List[list]]]:
    """``(path, file_facts)`` for every file, in path order."""
    return [(source.path, file_facts(source)) for source in codebase]


def build_callgraph(codebase: Codebase) -> nx.DiGraph:
    """Build the name-resolved call graph of ``codebase``."""
    return graph_from_facts(codebase_facts(codebase))


@dataclass(frozen=True)
class CallGraphMetrics:
    """Summary metrics of a codebase's call graph."""

    n_functions: int
    n_edges: int
    n_external_calls: int
    max_fan_in: int
    max_fan_out: int
    mean_fan_out: float
    n_entry_points: int
    reachable_from_entry: int
    n_recursive_cycles: int

    @property
    def reachable_fraction(self) -> float:
        """Share of defined functions reachable from an entry point."""
        if self.n_functions == 0:
            return 0.0
        return self.reachable_from_entry / self.n_functions


def metrics_from_facts(files: Iterable[Tuple[str, List[list]]]
                       ) -> CallGraphMetrics:
    """:class:`CallGraphMetrics` of the graph folded from per-file facts."""
    graph = graph_from_facts(files)
    n = graph.number_of_nodes()
    fan_in = [graph.in_degree(v) for v in graph]
    fan_out = [graph.out_degree(v) for v in graph]
    entries = [v for v in graph if v in ENTRY_POINT_NAMES]
    reachable: Set[str] = set()
    for entry in entries:
        reachable |= nx.descendants(graph, entry) | {entry}
    cycles = sum(1 for scc in nx.strongly_connected_components(graph)
                 if len(scc) > 1 or graph.has_edge(*(list(scc) * 2)[:2]))
    return CallGraphMetrics(
        n_functions=n,
        n_edges=graph.number_of_edges(),
        n_external_calls=sum(d["external"] for _, d in graph.nodes(data=True)),
        max_fan_in=max(fan_in, default=0),
        max_fan_out=max(fan_out, default=0),
        mean_fan_out=sum(fan_out) / n if n else 0.0,
        n_entry_points=len(entries),
        reachable_from_entry=len(reachable),
        n_recursive_cycles=cycles,
    )


def measure_codebase(codebase: Codebase) -> CallGraphMetrics:
    """Compute :class:`CallGraphMetrics` for ``codebase``."""
    return metrics_from_facts(codebase_facts(codebase))

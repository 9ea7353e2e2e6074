"""Dynamic-trace collection via CFG simulation (§5.3).

"One potential improvement is to collect dynamic traces; dynamic
properties of a program may further yield additional insights or
accuracy." With no testbed to execute real programs, we approximate a
tracer by random-walking each function's control-flow graph: entry to
exit, statement by statement through the basic blocks, uniform choice
at branches, bounded steps. The walks yield the
classic dynamic-analysis aggregates — node/edge coverage, hot-path
concentration, trace length, and how often dangerous calls actually
*execute* (as opposed to merely existing, which the static features
already count).

Deterministic per (codebase name, seed), so feature extraction stays
reproducible.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.artifact import artifact_for
from repro.analysis.cfg import CFG, ENTRY, EXIT, SINK
from repro.lang.sourcefile import Codebase


@dataclass(frozen=True)
class TraceResult:
    """Aggregated simulation result for one function."""

    n_walks: int
    node_coverage: float  # fraction of CFG nodes ever visited
    edge_coverage: float  # fraction of CFG edges ever taken
    mean_trace_length: float
    hot_concentration: float  # max node visit share (1.0 = single hot node)
    dangerous_executions: int  # sink-call statements actually reached
    truncated_walks: int  # walks that hit the step cap (loops)


def _statement_succs(cfg: CFG) -> List[List[int]]:
    """Statement-level successor lists of the block IR.

    A statement inside a block has the next one as its only successor;
    a block's last statement has the first statements of the block's
    successors, in the block's successor order.
    """
    starts, ends = cfg.starts, cfg.ends
    succs: List[List[int]] = [[] for _ in range(cfg.n_nodes)]
    for block, out in enumerate(cfg.succs):
        last = ends[block] - 1
        for s in range(starts[block], last):
            succs[s].append(s + 1)
        succs[last] = [starts[succ] for succ in out]
    return succs


def simulate_cfg(
    cfg: CFG, n_walks: int = 20, max_steps: int = 200, seed: int = 0
) -> TraceResult:
    """Random-walk ``cfg`` statement by statement; aggregate the traces.

    Every step draws its successor with ``rng.choice``, a one-element
    list inside a block included, so walks, step caps and visit counts
    are those of the statement-level graph.
    """
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    rng = random.Random(seed)
    visited_nodes: Set[int] = set()
    visited_edges: Set[Tuple[int, int]] = set()
    visit_counts: Dict[int, int] = {}
    total_length = 0
    dangerous = 0
    truncated = 0
    stmt_succs = _statement_succs(cfg)
    entry = cfg.starts[ENTRY]
    exit_node = cfg.starts[EXIT]
    flags = cfg.facts[2]
    dangerous_nodes = {
        node for node, fl in enumerate(flags) if fl & SINK
    }

    for _ in range(n_walks):
        node = entry
        steps = 0
        while node != exit_node and steps < max_steps:
            visited_nodes.add(node)
            visit_counts[node] = visit_counts.get(node, 0) + 1
            if node in dangerous_nodes:
                dangerous += 1
            successors = stmt_succs[node]
            if not successors:
                break
            nxt = rng.choice(successors)
            visited_edges.add((node, nxt))
            node = nxt
            steps += 1
        total_length += steps
        if steps >= max_steps:
            truncated += 1
        if node == exit_node:
            visited_nodes.add(node)
            visit_counts[node] = visit_counts.get(node, 0) + 1

    n_nodes = max(cfg.n_nodes, 1)
    n_edges = max(cfg.n_edges, 1)
    total_visits = max(sum(visit_counts.values()), 1)
    return TraceResult(
        n_walks=n_walks,
        node_coverage=len(visited_nodes) / n_nodes,
        edge_coverage=len(visited_edges) / n_edges,
        mean_trace_length=total_length / n_walks,
        hot_concentration=max(visit_counts.values(), default=0) / total_visits,
        dangerous_executions=dangerous,
        truncated_walks=truncated,
    )


@dataclass(frozen=True)
class DynamicMetrics:
    """Codebase-level dynamic-trace feature summary."""

    mean_node_coverage: float
    mean_edge_coverage: float
    mean_trace_length: float
    mean_hot_concentration: float
    dangerous_executions: int
    truncation_rate: float


def measure_codebase(
    codebase: Codebase,
    n_walks: int = 10,
    max_steps: int = 150,
    seed: int = 0,
) -> DynamicMetrics:
    """Simulate every function of ``codebase`` and aggregate.

    The walks run over each file's shared CFGs (``artifact_for``); walk
    seeds depend only on the function's index in the file's table.
    """
    results: List[TraceResult] = []
    for source in codebase:
        for index, cfg in enumerate(artifact_for(source).cfgs):
            # zlib.crc32, not hash(): str hashing is salted per process
            # and would make feature extraction non-reproducible.
            walk_seed = zlib.crc32(
                f"{codebase.name}:{source.path}:{index}:{seed}".encode()
            )
            results.append(
                simulate_cfg(
                    cfg, n_walks=n_walks, max_steps=max_steps, seed=walk_seed
                )
            )
    if not results:
        return DynamicMetrics(0.0, 0.0, 0.0, 0.0, 0, 0.0)
    n = len(results)
    total_walks = sum(r.n_walks for r in results)
    return DynamicMetrics(
        mean_node_coverage=sum(r.node_coverage for r in results) / n,
        mean_edge_coverage=sum(r.edge_coverage for r in results) / n,
        mean_trace_length=sum(r.mean_trace_length for r in results) / n,
        mean_hot_concentration=sum(r.hot_concentration for r in results) / n,
        dangerous_executions=sum(r.dangerous_executions for r in results),
        truncation_rate=sum(r.truncated_walks for r in results)
        / max(total_walks, 1),
    )

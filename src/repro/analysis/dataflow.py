"""Data-flow analysis [56].

Classic reaching definitions, a def-use chain count, and a lightweight
taint propagation from attacker-influenced sources (function parameters,
input routines) to dangerous sinks, over the block CFG of
:mod:`repro.analysis.cfg`. The paper proposes data-flow counts —
"numbers of expressions or functions influencing the execution of other
parts of the code" (§4.1) — as model features; taint flow counts double
as an attack-surface-adjacent signal.

The lowering scans each statement's defined and used variables into int
masks, so both analyses are bit operations. Reaching definitions has
one bit per definition site (statement, variable) and composes a
block's statements into one ``gen``/``keep`` pair; taint has one bit per
variable and applies each defining statement of a block in turn. Both
run in one dirty-flag sweep over the blocks in reverse postorder until
nothing changes; one statement sweep over the fixpoint then yields the
statement-level counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

# The taint tables live with the lowering, which flags source and sink
# calls while it scans; they are part of this module's interface too.
from repro.analysis.cfg import (  # noqa: F401
    CFG,
    SINK,
    SOURCE,
    TAINT_SINKS,
    TAINT_SOURCES,
)
from repro.analysis.artifact import artifact_for
from repro.lang.sourcefile import Codebase


@dataclass(frozen=True)
class FlowCounts:
    """Statement-level data-flow counts for one function."""

    #: Definition sites: (statement, variable) pairs.
    defs: int
    #: Use sites: (statement, variable) pairs.
    uses: int
    #: (definition, use site) pairs where the definition reaches.
    def_use_pairs: int
    #: Largest number of definitions reaching one statement.
    max_reaching: int
    #: Statements calling a taint source / a taint sink.
    source_sites: int
    sink_sites: int
    #: Sink-calling statements that use a tainted variable.
    tainted_sink_calls: int
    #: Variables some statement taints, as a mask over ``CFG.names``.
    tainted_mask: int


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def flow_counts(cfg: CFG, params: List[str]) -> FlowCounts:
    """Run reaching definitions and taint over ``cfg``; count the results.

    A statement taints the variables it defines when its right-hand side
    mentions a tainted variable or calls a known source, and a plain
    reassignment from untainted data clears them. ``params`` seed the
    taint at entry. A sink call whose statement mentions a tainted
    variable counts as a tainted flow.
    """
    defs, uses, flags = cfg.facts
    starts, ends, succs = cfg.starts, cfg.ends, cfg.succs
    n_blocks = len(starts)

    # One bit per definition site; ``sites[v]`` holds every site of the
    # variable with bit ``v``.
    sites: dict = {}
    n_sites = 0
    gen = [0] * len(defs)
    for s, d in enumerate(defs):
        if d:
            g = 0
            for var in _bits(d):
                bit = 1 << n_sites
                n_sites += 1
                g |= bit
                sites[var] = sites.get(var, 0) | bit
            gen[s] = g

    # Per block: the composed reaching-definitions transfer
    # ``out = in & keep | gen`` and the defining statements' taint
    # transfers as (defs, rhs uses, calls a source).
    block_gen = [0] * n_blocks
    block_keep = [-1] * n_blocks
    block_taint: List[tuple] = [()] * n_blocks
    keep = [-1] * len(defs)
    for b in range(n_blocks):
        g = 0
        k = -1
        steps = []
        for s in range(starts[b], ends[b]):
            d = defs[s]
            if d:
                kill = 0
                for var in _bits(d):
                    kill |= sites[var]
                keep[s] = ~kill
                g = (g & ~kill) | gen[s]
                k &= ~kill
                steps.append((d, uses[s] & ~d, flags[s] & SOURCE))
        if steps:
            block_gen[b] = g
            block_keep[b] = k
            block_taint[b] = steps

    seed = 0
    names = cfg.names
    for param in params:
        seed |= names.get(param, 0)

    # Reverse postorder of the reachable blocks, after the unreachable
    # ones (which only feed each other and reachable blocks).
    order = cfg._dag[0]
    if len(order) < n_blocks:
        reached = [False] * n_blocks
        for b in order:
            reached[b] = True
        order = [b for b in range(n_blocks) if not reached[b]] + order
    rd_in = [0] * n_blocks
    rd_out = [0] * n_blocks
    t_in = [0] * n_blocks
    t_in[0] = seed
    t_out = [0] * n_blocks
    dirty = [True] * n_blocks
    # Facts only grow from the all-empty start, so each block's IN is
    # kept as the union of everything its predecessors have sent.
    while True:
        for b in order:
            if not dirty[b]:
                continue
            dirty[b] = False
            r = rd_in[b] & block_keep[b] | block_gen[b]
            t = t_in[b]
            for d, rhs, source in block_taint[b]:
                t = t | d if t & rhs or source else t & ~d
            if r != rd_out[b] or t != t_out[b]:
                rd_out[b] = r
                t_out[b] = t
                for succ in succs[b]:
                    r2 = rd_in[succ] | r
                    t2 = t_in[succ] | t
                    if r2 != rd_in[succ] or t2 != t_in[succ]:
                        rd_in[succ] = r2
                        t_in[succ] = t2
                        dirty[succ] = True
        if True not in dirty:
            break

    # Statement sweep: the IN of a statement inside a block is the OUT
    # of the statement before it.
    n_uses = pairs = max_reach = 0
    sources = sinks = tainted_sinks = 0
    tainted = seed
    use_sites: dict = {}
    for b in range(n_blocks):
        r = rd_in[b]
        t = t_in[b]
        size = r.bit_count()
        if size > max_reach:
            max_reach = size
        for s in range(starts[b], ends[b]):
            u = uses[s]
            fl = flags[s]
            d = defs[s]
            used_reach = 0
            if u:
                n_uses += u.bit_count()
                if r:
                    mask = use_sites.get(u)
                    if mask is None:
                        mask = 0
                        for var in _bits(u):
                            mask |= sites.get(var, 0)
                        use_sites[u] = mask
                    pairs += (r & mask).bit_count()
                used_reach = u & t
            if fl:
                if fl & SOURCE:
                    sources += 1
                if fl & SINK:
                    sinks += 1
                    if used_reach:
                        tainted_sinks += 1
            if d:
                if used_reach or fl & SOURCE:
                    tainted |= d
                r = r & keep[s] | gen[s]
                t = t | d if t & u & ~d or fl & SOURCE else t & ~d
                size = r.bit_count()
                if size > max_reach:
                    max_reach = size
    return FlowCounts(n_sites, n_uses, pairs, max_reach, sources, sinks,
                      tainted_sinks, tainted)


@dataclass(frozen=True)
class TaintResult:
    """Taint propagation result for one function."""

    tainted_vars: FrozenSet[str]
    tainted_sink_calls: int
    source_sites: int
    sink_sites: int


def taint_analysis(cfg: CFG, params: List[str]) -> TaintResult:
    """Propagate taint from parameters/input calls to dangerous sinks."""
    counts = flow_counts(cfg, params)
    tainted = set(params)
    tainted.update(name for name, bit in cfg.names.items()
                   if counts.tainted_mask & bit)
    return TaintResult(
        tainted_vars=frozenset(tainted),
        tainted_sink_calls=counts.tainted_sink_calls,
        source_sites=counts.source_sites,
        sink_sites=counts.sink_sites,
    )


@dataclass(frozen=True)
class DataflowMetrics:
    """Codebase-level data-flow feature summary."""

    n_defs: int
    n_uses: int
    def_use_pairs: int
    max_reaching: int
    source_sites: int
    sink_sites: int
    tainted_sink_calls: int


def measure_codebase(codebase: Codebase) -> DataflowMetrics:
    """Aggregate data-flow metrics across every function in ``codebase``."""
    n_defs = n_uses = pairs = max_reach = 0
    sources = sinks = tainted = 0
    for source in codebase:
        art = artifact_for(source)
        for func, graph in zip(art.functions, art.cfgs):
            counts = flow_counts(graph, func.param_names)
            n_defs += counts.defs
            n_uses += counts.uses
            pairs += counts.def_use_pairs
            max_reach = max(max_reach, counts.max_reaching)
            sources += counts.source_sites
            sinks += counts.sink_sites
            tainted += counts.tainted_sink_calls
    return DataflowMetrics(
        n_defs=n_defs,
        n_uses=n_uses,
        def_use_pairs=pairs,
        max_reaching=max_reach,
        source_sites=sources,
        sink_sites=sinks,
        tainted_sink_calls=tainted,
    )

"""Data-flow analysis [56].

Classic iterative reaching-definitions over the recovered CFG, a def-use
chain count, and a lightweight taint propagation from attacker-influenced
sources (function parameters, input routines) to dangerous sinks. The paper
proposes data-flow counts — "numbers of expressions or functions
influencing the execution of other parts of the code" (§4.1) — as model
features; taint flow counts double as an attack-surface-adjacent signal.
Both fixpoints run over Python-int bitsets on the CFG's node-id lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.lang.parser import FunctionInfo, extract_functions
from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import Token, TokenKind

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ":="}
)

#: Functions whose return value or out-parameter is attacker-influenced.
TAINT_SOURCES = frozenset(
    {"read", "recv", "recvfrom", "fread", "fgets", "gets", "scanf", "fscanf",
     "getenv", "getchar", "input", "raw_input", "readline", "readLine",
     "nextLine", "getParameter", "args", "argv"}
)

#: Functions where attacker-influenced data is dangerous.
TAINT_SINKS = frozenset(
    {"strcpy", "strcat", "sprintf", "vsprintf", "system", "popen", "exec",
     "execl", "execlp", "execv", "execvp", "eval", "memcpy", "alloca",
     "printf", "fprintf", "syslog", "Runtime", "query", "os"}
)


def _node_defs_uses(tokens: List[Token]) -> Tuple[Set[str], Set[str], Set[str]]:
    """(defined vars, used vars, called functions) for one statement."""
    defs: Set[str] = set()
    uses: Set[str] = set()
    calls: Set[str] = set()
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.IDENT:
            continue
        nxt = tokens[i + 1] if i + 1 < n else None
        if nxt is not None and nxt.text == "(":
            calls.add(tok.text)
            continue
        if (
            nxt is not None
            and nxt.kind == TokenKind.OPERATOR
            and nxt.text in _ASSIGN_OPS
        ):
            defs.add(tok.text)
            if nxt.text != "=":  # compound assignment also reads
                uses.add(tok.text)
            continue
        if nxt is not None and nxt.text in ("++", "--"):
            defs.add(tok.text)
            uses.add(tok.text)
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None and prev.text in ("++", "--"):
            defs.add(tok.text)
        uses.add(tok.text)
    return defs, uses, calls


#: Per-node (defs, uses, calls) for a whole CFG, indexed by node id.
NodeFlowInfo = List[Tuple[Set[str], Set[str], Set[str]]]


def node_flow_info(cfg: CFG) -> NodeFlowInfo:
    """(defs, uses, calls) for every CFG node, computed in one pass.

    Both :func:`reaching_definitions` and :func:`taint_analysis` need this
    table; callers running both on the same CFG should compute it once and
    pass it to each. Statement-less nodes (entry/exit/joins) all share
    one empty triple — every consumer treats the sets as read-only.
    """
    empty: Tuple[Set[str], Set[str], Set[str]] = (set(), set(), set())
    return [
        _node_defs_uses(stmt.tokens)
        if stmt is not None and stmt.tokens else empty
        for stmt in cfg.stmts
    ]


@dataclass(frozen=True)
class ReachingDefinitions:
    """Result of the reaching-definitions fixpoint for one function."""

    #: IN set per CFG node: frozenset of (defining node, variable) pairs.
    in_sets: Dict[int, FrozenSet[Tuple[int, str]]]
    #: Definitions generated per node.
    gen: Dict[int, FrozenSet[Tuple[int, str]]]
    #: Variables used per node.
    uses: Dict[int, FrozenSet[str]]

    def def_use_pairs(self) -> int:
        """Number of (definition, use-site) pairs where the def reaches."""
        pairs = 0
        for node, used in self.uses.items():
            reaching = self.in_sets.get(node, frozenset())
            pairs += sum(1 for (_, var) in reaching if var in used)
        return pairs

    def max_reaching(self) -> int:
        """Largest IN set across nodes — a flow-density signal."""
        return max((len(s) for s in self.in_sets.values()), default=0)


def _worklist(cfg: CFG, transfer, seed: int = 0) -> List[int]:
    """Forward may-analysis over bitsets; returns the IN bits per node.

    ``transfer(node, in_bits)`` gives a node's OUT bits; the meet is
    bitwise OR, and ``seed`` is OR-ed into the entry node's IN. The
    result is the least fixpoint, which does not depend on visit order;
    nodes are popped in id order first (roughly entry to exit), which
    propagates facts forward in few sweeps.
    """
    preds = cfg.preds
    succs = cfg.succs
    entry = cfg.entry
    n = len(succs)
    in_bits = [0] * n
    out_bits = [0] * n
    worklist = list(range(n - 1, -1, -1))
    pop = worklist.pop
    extend = worklist.extend
    while worklist:
        node = pop()
        new_in = seed if node == entry else 0
        for pred in preds[node]:
            new_in |= out_bits[pred]
        new_out = transfer(node, new_in)
        if new_in != in_bits[node] or new_out != out_bits[node]:
            in_bits[node] = new_in
            out_bits[node] = new_out
            extend(succs[node])
    return in_bits


def _rd_fixpoint(
    cfg: CFG, node_info: NodeFlowInfo
) -> Tuple[List[int], List[Tuple[int, str]], Dict[str, int]]:
    """The reaching-definitions fixpoint over one bit per definition.

    Bit ``i`` stands for the definition ``sites[i]`` = (node, var);
    ``var_mask[v]`` has the bits of every definition of ``v``. A node's
    transfer is ``out = (in & ~kill) | gen`` with ``kill`` the masks of
    the variables it defines. Returns ``(in_bits, sites, var_mask)``;
    :func:`reaching_definitions` decodes it into frozensets and
    :func:`rd_metrics` counts bits, so the two agree by construction.
    """
    sites: List[Tuple[int, str]] = []
    var_mask: Dict[str, int] = {}
    gen = [0] * len(node_info)
    for node, (defs, _used, _calls) in enumerate(node_info):
        if defs:
            g = 0
            for var in defs:
                bit = 1 << len(sites)
                sites.append((node, var))
                g |= bit
                var_mask[var] = var_mask.get(var, 0) | bit
            gen[node] = g
    # ``in & keep | gen``: keep is ~kill, where kill covers every
    # definition of the variables the node defines (its own included).
    keep = [0] * len(node_info)
    for node, g in enumerate(gen):
        if g:
            kill = 0
            for var in node_info[node][0]:
                kill |= var_mask[var]
            keep[node] = ~kill

    def transfer(node: int, bits: int) -> int:
        g = gen[node]
        return (bits & keep[node]) | g if g else bits

    return _worklist(cfg, transfer), sites, var_mask


def reaching_definitions(
    cfg: CFG, node_info: Optional[NodeFlowInfo] = None
) -> ReachingDefinitions:
    """Run the standard worklist reaching-definitions analysis on ``cfg``."""
    if node_info is None:
        node_info = node_flow_info(cfg)
    in_bits, sites, _var_mask = _rd_fixpoint(cfg, node_info)

    def decode(bits: int) -> FrozenSet[Tuple[int, str]]:
        out = []
        while bits:
            low = bits & -bits
            out.append(sites[low.bit_length() - 1])
            bits ^= low
        return frozenset(out)

    return ReachingDefinitions(
        in_sets={n: decode(bits) for n, bits in enumerate(in_bits)},
        gen={
            n: frozenset((n, var) for var in defs)
            for n, (defs, _used, _calls) in enumerate(node_info)
        },
        uses={
            n: frozenset(used)
            for n, (_defs, used, _calls) in enumerate(node_info)
        },
    )


def rd_metrics(
    cfg: CFG, node_info: Optional[NodeFlowInfo] = None
) -> Tuple[int, int, int, int]:
    """(defs, uses, def-use pairs, max reaching) for one CFG.

    The numbers :class:`ReachingDefinitions` would yield via
    ``def_use_pairs``/``max_reaching`` and the gen/uses set sizes,
    counted straight off the fixpoint's bitsets: a def-use pair is a
    set bit of ``in & var_mask[v]`` for a variable ``v`` the node uses.
    """
    if node_info is None:
        node_info = node_flow_info(cfg)
    in_bits, sites, var_mask = _rd_fixpoint(cfg, node_info)
    n_uses = 0
    pairs = 0
    max_reach = 0
    for node, (_defs, used, _calls) in enumerate(node_info):
        if not used:
            continue
        n_uses += len(used)
        reaching = in_bits[node]
        if reaching:
            mask = 0
            for var in used:
                mask |= var_mask.get(var, 0)
            pairs += (reaching & mask).bit_count()
    for reaching in in_bits:
        size = reaching.bit_count()
        if size > max_reach:
            max_reach = size
    return len(sites), n_uses, pairs, max_reach


@dataclass(frozen=True)
class TaintResult:
    """Taint propagation result for one function."""

    tainted_vars: FrozenSet[str]
    tainted_sink_calls: int
    source_sites: int
    sink_sites: int


def taint_analysis(
    cfg: CFG, params: List[str], node_info: Optional[NodeFlowInfo] = None
) -> TaintResult:
    """Propagate taint from parameters/input calls to dangerous sinks.

    A statement taints the variables it defines when its right-hand side
    mentions a tainted variable or calls a known source. A sink call whose
    statement mentions any tainted variable counts as a tainted flow.
    The fixpoint runs over one bit per variable.
    """
    if node_info is None:
        node_info = node_flow_info(cfg)
    bit_of: Dict[str, int] = {}

    def mask(names) -> int:
        bits = 0
        for name in names:
            bit = bit_of.get(name)
            if bit is None:
                bit = bit_of[name] = 1 << len(bit_of)
            bits |= bit
        return bits

    n = len(node_info)
    def_bits = [0] * n
    use_bits = [0] * n
    rhs_bits = [0] * n  # uses that the node does not also define
    is_source = [False] * n
    is_sink = [False] * n
    for node, (defs, used, calls) in enumerate(node_info):
        if defs:
            def_bits[node] = mask(defs)
        if used:
            use_bits[node] = mask(used)
            rhs_bits[node] = use_bits[node] & ~def_bits[node]
        if calls:
            # ``isdisjoint`` tests overlap without building the
            # intersection sets ``&`` would allocate per node.
            is_source[node] = not calls.isdisjoint(TAINT_SOURCES)
            is_sink[node] = not calls.isdisjoint(TAINT_SINKS)
    seed = mask(params)

    def transfer(node: int, bits: int) -> int:
        defined = def_bits[node]
        if not defined:
            return bits
        if bits & rhs_bits[node] or is_source[node]:
            return bits | defined
        # A plain reassignment from untainted data clears the variable.
        return bits & ~defined

    in_bits = _worklist(cfg, transfer, seed)

    tainted: Set[str] = set(params)
    tainted_sinks = 0
    for node, (defs, _used, _calls) in enumerate(node_info):
        used_reach = use_bits[node] & in_bits[node]
        if used_reach or is_source[node]:
            tainted |= defs
        if used_reach and is_sink[node]:
            tainted_sinks += 1
    return TaintResult(
        tainted_vars=frozenset(tainted),
        tainted_sink_calls=tainted_sinks,
        source_sites=sum(is_source),
        sink_sites=sum(is_sink),
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
        for func in extract_functions(source):
            cfg = build_cfg(func, source)
            info = node_flow_info(cfg)
            defs, used, du_pairs, reach = rd_metrics(cfg, info)
            n_defs += defs
            n_uses += used
            pairs += du_pairs
            max_reach = max(max_reach, reach)
            taint = taint_analysis(cfg, func.param_names, info)
            sources += taint.source_sites
            sinks += taint.sink_sites
            tainted += taint.tainted_sink_calls
    return DataflowMetrics(
        n_defs=n_defs,
        n_uses=n_uses,
        def_use_pairs=pairs,
        max_reaching=max_reach,
        source_sites=sources,
        sink_sites=sinks,
        tainted_sink_calls=tainted,
    )

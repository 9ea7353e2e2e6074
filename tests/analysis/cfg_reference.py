"""Test-only reference copy of the statement-level flow path.

The product lowers each function body straight to a basic-block flow IR
(:mod:`repro.analysis.cfg`) and runs its fixpoints over blocks
(:mod:`repro.analysis.dataflow`). This module keeps the earlier
statement-level pipeline verbatim — statement tree (``Stmt``,
``_BraceStmtParser``, ``_py_parse_*``), statement-level CFG
(``_CFGBuilder``), per-node flow sets (``node_flow_info``), the
reaching-definitions and taint worklists, and the CFG random walk — so
tests can pin statement shapes and check every record field of the IR
against an independent implementation.

One deliberate change from the earlier code: a ``)`` or ``]`` at the
start of a statement is consumed and dropped, like a stray ``}``
(before, ``_consume_simple`` returned without advancing and the parser
looped forever). The product lowering does the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis import cfg as block_cfg
from repro.analysis import dataflow as block_dataflow
from repro.analysis.dataflow import TAINT_SINKS, TAINT_SOURCES
from repro.analysis.dynamic import TraceResult
from repro.lang.parser import FunctionInfo, extract_functions
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import Token, TokenKind

# ---------------------------------------------------------------------------
# Statement tree
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """A node of the recovered statement tree."""

    kind: str  # simple|if|loop|switch|return|break|continue|goto|label|try
    tokens: List[Token] = field(default_factory=list)  # header/expression toks
    body: List["Stmt"] = field(default_factory=list)
    orelse: List["Stmt"] = field(default_factory=list)
    cases: List[List["Stmt"]] = field(default_factory=list)  # switch/try arms


_LOOP_KEYWORDS = {"while", "for", "do"}


class _BraceStmtParser:
    """Parses the statement shape of a brace-language token stream."""

    def __init__(self, tokens: Sequence[Token]):
        # Callers pass parser-produced body tokens, which are already
        # code-filtered (see ``extract_functions``).
        self.tokens = tokens
        self.i = 0

    def parse(self) -> List[Stmt]:
        stmts, _ = self._parse_until({None})
        return stmts

    # -- helpers ----------------------------------------------------------

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _advance(self) -> Optional[Token]:
        tok = self._peek()
        if tok is not None:
            self.i += 1
        return tok

    def _skip_parens(self) -> List[Token]:
        """Consume a balanced ``( ... )`` group; return the inner tokens."""
        toks = self.tokens
        n = len(toks)
        i = self.i
        if i >= n or toks[i].text != "(":
            return []
        inner: List[Token] = []
        append = inner.append
        depth = 1
        i += 1
        while i < n:
            tok = toks[i]
            i += 1
            text = tok.text
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    break
            append(tok)
        self.i = i
        return inner

    def _parse_until(self, terminators) -> Tuple[List[Stmt], Optional[str]]:
        """Parse statements until EOF or a terminator token text."""
        stmts: List[Stmt] = []
        toks = self.tokens
        n = len(toks)
        while self.i < n:
            text = toks[self.i].text
            if text in terminators:
                return stmts, text
            stmt = self._parse_statement()
            if stmt is not None:
                stmts.append(stmt)
        return stmts, None

    def _parse_block_or_statement(self) -> List[Stmt]:
        tok = self._peek()
        if tok is not None and tok.text == "{":
            self._advance()
            stmts, term = self._parse_until({"}"})
            if term == "}":
                self._advance()
            return stmts
        stmt = self._parse_statement()
        return [stmt] if stmt is not None else []

    def _parse_statement(self) -> Optional[Stmt]:
        tok = self._peek()
        if tok is None:
            return None
        text = tok.text

        if text == ";":
            self._advance()
            return None
        if text == "{":
            self._advance()
            stmts, term = self._parse_until({"}"})
            if term == "}":
                self._advance()
            return Stmt("simple", body=stmts) if stmts else None
        if text in ("}", ")", "]"):
            # Unbalanced close: consume so parsing always terminates.
            self._advance()
            return None

        if tok.kind == TokenKind.KEYWORD:
            if text == "if":
                return self._parse_if()
            if text in ("while", "for"):
                self._advance()
                cond = self._skip_parens()
                body = self._parse_block_or_statement()
                return Stmt("loop", tokens=cond, body=body)
            if text == "do":
                self._advance()
                body = self._parse_block_or_statement()
                cond: List[Token] = []
                if self._peek() is not None and self._peek().text == "while":
                    self._advance()
                    cond = self._skip_parens()
                    self._consume_semicolon()
                return Stmt("loop", tokens=cond, body=body)
            if text == "switch":
                return self._parse_switch()
            if text == "try":
                return self._parse_try()
            if text in ("return", "throw"):
                self._advance()
                expr = self._consume_simple()
                return Stmt("return", tokens=expr)
            if text in ("break", "continue"):
                self._advance()
                self._consume_semicolon()
                return Stmt(text)
            if text == "goto":
                self._advance()
                target = self._consume_simple()
                return Stmt("goto", tokens=target)
            if text == "else":
                # Dangling else (shouldn't happen); treat as a block.
                self._advance()
                return Stmt("simple", body=self._parse_block_or_statement())

        # Label: IDENT ':' not inside an expression.
        if (
            tok.kind == TokenKind.IDENT
            and self.i + 1 < len(self.tokens)
            and self.tokens[self.i + 1].text == ":"
        ):
            self._advance()
            self._advance()
            return Stmt("label", tokens=[tok])

        return Stmt("simple", tokens=self._consume_simple(leading=True))

    def _parse_if(self) -> Stmt:
        self._advance()  # if
        cond = self._skip_parens()
        then = self._parse_block_or_statement()
        orelse: List[Stmt] = []
        nxt = self._peek()
        if nxt is not None and nxt.text == "else":
            self._advance()
            orelse = self._parse_block_or_statement()
        return Stmt("if", tokens=cond, body=then, orelse=orelse)

    def _parse_switch(self) -> Stmt:
        self._advance()  # switch
        cond = self._skip_parens()
        cases: List[List[Stmt]] = []
        tok = self._peek()
        if tok is None or tok.text != "{":
            return Stmt("switch", tokens=cond, cases=cases)
        self._advance()
        current: Optional[List[Stmt]] = None
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.text == "}":
                self._advance()
                break
            if tok.kind == TokenKind.KEYWORD and tok.text in ("case", "default"):
                self._advance()
                while self._peek() is not None and self._peek().text != ":":
                    self._advance()
                if self._peek() is not None:
                    self._advance()  # ':'
                current = []
                cases.append(current)
                continue
            stmt = self._parse_statement()
            if stmt is not None:
                if current is None:
                    current = []
                    cases.append(current)
                current.append(stmt)
        return Stmt("switch", tokens=cond, cases=cases)

    def _parse_try(self) -> Stmt:
        self._advance()  # try
        body = self._parse_block_or_statement()
        cases: List[List[Stmt]] = []
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("catch", "finally"):
                break
            self._advance()
            if tok.text == "catch":
                self._skip_parens()
            cases.append(self._parse_block_or_statement())
        return Stmt("try", body=body, cases=cases)

    def _consume_semicolon(self) -> None:
        tok = self._peek()
        if tok is not None and tok.text == ";":
            self._advance()

    def _consume_simple(self, leading: bool = False) -> List[Token]:
        """Consume an expression up to ``;`` (or a block boundary)."""
        toks = self.tokens
        n = len(toks)
        i = self.i
        out: List[Token] = []
        append = out.append
        depth = 0
        while i < n:
            tok = toks[i]
            text = tok.text
            if text in "([":
                depth += 1
            elif text in ")]":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0:
                if text == ";":
                    i += 1
                    break
                if text == "{" or text == "}":
                    break
            append(tok)
            i += 1
        self.i = i
        return out


# ---------------------------------------------------------------------------
# Python statement tree (indentation-based)
# ---------------------------------------------------------------------------

_PY_HEADERS = {"if", "elif", "else", "while", "for", "try", "except",
               "finally", "with", "def", "class", "match", "case"}


def _py_parse_lines(
    source: SourceFile,
    start: int,
    end: int,
    tokens_by_line: Optional[dict] = None,
) -> List[Stmt]:
    """Parse lines [start, end] (1-based, inclusive) into a statement tree.

    ``tokens_by_line`` maps line number -> code tokens on that line; when a
    caller analyses every function in a file (the analysis artifact) it is
    computed once per file instead of once per function.
    """
    if tokens_by_line is None:
        tokens_by_line = code_tokens_by_line(source.tokens)
    return _py_parse_range(source.lines, tokens_by_line, end, start, end)


# The helpers below are module-level functions, not closures: a recursive
# nested function refers to itself through a cell, a reference cycle that
# only the cyclic collector could free, once per parsed function.


def _py_indent_of(lines: List[str], ln: int) -> int:
    """Indent width of line ``ln`` (tabs to the next multiple of 8)."""
    width = 0
    for ch in lines[ln - 1]:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += 8 - width % 8
        else:
            break
    return width


def _py_block_end(
    lines: List[str], by_line: dict, end: int, header: int, base_indent: int
) -> int:
    """Last code line (at most ``end``) of the block opened at ``header``."""
    last = header
    ln = header + 1
    while ln <= end:
        if ln in by_line:
            if _py_indent_of(lines, ln) <= base_indent:
                break
            last = ln
        ln += 1
    return last


def _py_parse_range(
    lines: List[str], by_line: dict, end: int, lo: int, hi: int
) -> List[Stmt]:
    """Statements of lines [lo, hi]; nested blocks stop at line ``end``."""
    stmts: List[Stmt] = []
    ln = lo
    while ln <= hi:
        if ln not in by_line:
            ln += 1
            continue
        toks = by_line[ln]
        head = toks[0]
        word = head.text if head.kind == TokenKind.KEYWORD else None
        indent = _py_indent_of(lines, ln)
        if word in ("if", "while", "for", "with", "try", "match"):
            body_end = _py_block_end(lines, by_line, end, ln, indent)
            body = _py_parse_range(lines, by_line, end, ln + 1, body_end)
            kind = {"if": "if", "while": "loop", "for": "loop",
                    "with": "simple", "try": "try", "match": "switch"}[word]
            root = Stmt(kind, tokens=toks, body=body)
            tail = root
            ln = body_end + 1
            while (ln <= hi and ln in by_line
                   and _py_indent_of(lines, ln) == indent):
                nxt = by_line[ln][0]
                nword = nxt.text if nxt.kind == TokenKind.KEYWORD else None
                if nword not in ("elif", "else", "except", "finally", "case"):
                    break
                arm_end = _py_block_end(lines, by_line, end, ln, indent)
                arm = _py_parse_range(lines, by_line, end, ln + 1, arm_end)
                if nword == "elif":
                    nested = Stmt("if", tokens=by_line[ln], body=arm)
                    tail.orelse = [nested]
                    tail = nested
                elif nword == "else":
                    tail.orelse = arm
                else:
                    tail.cases.append(arm)
                ln = arm_end + 1
            stmts.append(root)
            continue
        if word in ("return", "raise"):
            stmts.append(Stmt("return", tokens=toks))
        elif word == "break":
            stmts.append(Stmt("break"))
        elif word == "continue":
            stmts.append(Stmt("continue"))
        elif word in ("def", "class"):
            body_end = _py_block_end(lines, by_line, end, ln, indent)
            stmts.append(Stmt("simple", tokens=toks))
            ln = body_end + 1
            continue
        else:
            stmts.append(Stmt("simple", tokens=toks))
        ln += 1
    return stmts


def code_tokens_by_line(tokens: Sequence[Token]) -> dict:
    """Group code tokens by their (1-based) line number."""
    by_line: dict = {}
    for tok in tokens:
        if tok.is_code():
            by_line.setdefault(tok.line, []).append(tok)
    return by_line


def parse_statements(
    func: FunctionInfo,
    source: SourceFile,
    tokens_by_line: Optional[dict] = None,
) -> List[Stmt]:
    """Recover the statement tree for one function."""
    if source.spec.function_style == "indent":
        return _py_parse_lines(
            source, func.start_line + 1, func.end_line, tokens_by_line
        )
    body = func.body_tokens
    # ``body_tokens`` come from the parser already code-filtered; strip
    # the enclosing braces if present.
    if body and body[0].text == "{" and body[-1].text == "}":
        body = body[1:-1]
    return _BraceStmtParser(body).parse()


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CFG:
    """A function's control-flow graph plus derived metrics.

    Nodes are the ints ``0 .. n_nodes - 1``. ``kinds[n]`` and
    ``stmts[n]`` describe node ``n``; ``succs[n]`` lists its successors
    once each, in the order the lowering first added the edge. The
    lists are never mutated after :func:`build_cfg` returns, so the
    derived views below are memoized.
    """

    kinds: List[str]
    stmts: List[Optional[Stmt]]
    succs: List[List[int]]
    entry: int
    exit: int

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.succs))

    @property
    def cyclomatic(self) -> int:
        """Cyclomatic number from graph shape: E - N + 2."""
        return self.n_edges - self.n_nodes + 2

    @property
    def n_branch_nodes(self) -> int:
        return sum(1 for out in self.succs if len(out) > 1)

    @cached_property
    def preds(self) -> List[List[int]]:
        """Predecessor lists, the reverse of :attr:`succs`."""
        preds: List[List[int]] = [[] for _ in self.kinds]
        for node, out in enumerate(self.succs):
            for succ in out:
                preds[succ].append(node)
        return preds

    def path_count(self, cap: int = 10**9) -> int:
        """Number of acyclic entry→exit paths (NPATH-like), capped.

        Back edges are removed first, so loops contribute their fall-through
        structure only; the count is exact on the resulting DAG. Nodes
        unreachable from entry cannot lie on an entry→exit path, so the
        walk covers reachable nodes only.
        """
        order, succs = self._dag
        counts = [0] * len(self.kinds)
        counts[self.entry] = 1
        for node in order:
            c = counts[node]
            if not c:
                continue
            for succ in succs[node]:
                total = counts[succ] + c
                counts[succ] = total if total < cap else cap
        return counts[self.exit]

    def max_depth(self) -> int:
        """Longest acyclic path length from entry (statement depth proxy)."""
        order, succs = self._dag
        # -1 marks nodes no walk from entry has reached.
        depth = [-1] * len(self.kinds)
        depth[self.entry] = 0
        for node in order:
            d = depth[node]
            if d < 0:
                continue
            d += 1
            for succ in succs[node]:
                if depth[succ] < d:
                    depth[succ] = d
        return max(depth)

    @cached_property
    def _dag(self):
        """Shared back-edge-free DAG: both path metrics walk the same one."""
        return _acyclic_dag(self.succs, self.entry)


def _acyclic_dag(adj: List[List[int]], entry: int):
    """Back-edge-free reachable DAG of the graph ``adj``.

    Returns ``(order, succs)`` where ``order`` is a topological order
    (DFS reverse postorder) of the nodes reachable from ``entry`` and
    ``succs[n]`` lists the non-back successors of each of them (empty
    for unreachable nodes). One DFS classifies back edges (targets on
    the active DFS stack) and produces the ordering. Which edges count
    as back edges depends on the successor order in ``adj``.
    """
    # State: 0 unvisited, 1 on the active DFS path, 2 finished.
    state = [0] * len(adj)
    state[entry] = 1
    succs: List[List[int]] = [[] for _ in adj]
    postorder: List[int] = []
    stack = [(entry, iter(adj[entry]))]
    while stack:
        node, it = stack[-1]
        advanced = False
        keep = succs[node]
        for succ in it:
            s = state[succ]
            if s == 1:
                continue  # back edge: drop it from the DAG
            keep.append(succ)
            if s == 0:
                state[succ] = 1
                stack.append((succ, iter(adj[succ])))
                advanced = True
                break
        if not advanced:
            state[node] = 2
            postorder.append(node)
            stack.pop()
    postorder.reverse()
    return postorder, succs


class _CFGBuilder:
    """Lowers a statement tree to a CFG of abstract nodes."""

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.stmts: List[Optional[Stmt]] = []
        self.succs: List[List[int]] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self._labels: dict = {}
        self._pending_gotos: List[Tuple[int, str]] = []

    def _new(self, kind: str, stmt: Optional[Stmt] = None) -> int:
        node = len(self.kinds)
        self.kinds.append(kind)
        self.stmts.append(stmt)
        self.succs.append([])
        return node

    def _edge(self, u: int, v: int) -> None:
        # A repeated edge keeps its first position, as a DiGraph would.
        out = self.succs[u]
        if v not in out:
            out.append(v)

    def build(self, stmts: List[Stmt]) -> CFG:
        tails = self._lower_seq(stmts, [self.entry], None, None)
        for tail in tails:
            self._edge(tail, self.exit)
        for node, label in self._pending_gotos:
            self._edge(node, self._labels.get(label, self.exit))
        if not self.succs[self.entry]:
            self._edge(self.entry, self.exit)
        return CFG(self.kinds, self.stmts, self.succs, self.entry, self.exit)

    def _connect(self, preds: List[int], node: int) -> None:
        for p in preds:
            self._edge(p, node)

    def _lower_seq(
        self,
        stmts: List[Stmt],
        preds: List[int],
        break_to: Optional[int],
        continue_to: Optional[int],
    ) -> List[int]:
        """Lower a statement list; return the open fall-through nodes."""
        current = preds
        for stmt in stmts:
            if not current:
                current = []  # unreachable code still lowered, dangling
            current = self._lower_stmt(stmt, current, break_to, continue_to)
        return current

    def _lower_stmt(
        self,
        stmt: Stmt,
        preds: List[int],
        break_to: Optional[int],
        continue_to: Optional[int],
    ) -> List[int]:
        kind = stmt.kind
        if kind == "simple":
            node = self._new("stmt", stmt)
            self._connect(preds, node)
            if stmt.body:  # brace block wrapped as simple
                return self._lower_seq(stmt.body, [node], break_to, continue_to)
            return [node]
        if kind == "if":
            cond = self._new("branch", stmt)
            self._connect(preds, cond)
            then_tails = self._lower_seq(stmt.body, [cond], break_to, continue_to)
            if stmt.orelse:
                else_tails = self._lower_seq(stmt.orelse, [cond], break_to, continue_to)
                return then_tails + else_tails
            return then_tails + [cond]
        if kind == "loop":
            head = self._new("loop", stmt)
            after = self._new("join")
            self._connect(preds, head)
            body_tails = self._lower_seq(stmt.body, [head], after, head)
            for tail in body_tails:
                self._edge(tail, head)
            self._edge(head, after)
            return [after]
        if kind == "switch":
            head = self._new("branch", stmt)
            after = self._new("join")
            self._connect(preds, head)
            arms = stmt.cases or [stmt.body]
            for arm in arms:
                tails = self._lower_seq(arm, [head], after, continue_to)
                for tail in tails:
                    self._edge(tail, after)
            self._edge(head, after)  # no-match / fallthrough
            return [after]
        if kind == "try":
            head = self._new("stmt", stmt)
            self._connect(preds, head)
            tails = self._lower_seq(stmt.body, [head], break_to, continue_to)
            all_tails = list(tails)
            for handler in stmt.cases:
                h_tails = self._lower_seq(handler, [head], break_to, continue_to)
                all_tails.extend(h_tails)
            return all_tails
        if kind == "return":
            node = self._new("return", stmt)
            self._connect(preds, node)
            self._edge(node, self.exit)
            return []
        if kind == "break":
            node = self._new("break", stmt)
            self._connect(preds, node)
            self._edge(node, break_to if break_to is not None else self.exit)
            return []
        if kind == "continue":
            node = self._new("continue", stmt)
            self._connect(preds, node)
            self._edge(node, continue_to if continue_to is not None else self.exit)
            return []
        if kind == "goto":
            node = self._new("goto", stmt)
            self._connect(preds, node)
            label = stmt.tokens[0].text if stmt.tokens else ""
            self._pending_gotos.append((node, label))
            return []
        if kind == "label":
            node = self._new("label", stmt)
            self._connect(preds, node)
            if stmt.tokens:
                self._labels[stmt.tokens[0].text] = node
            return [node]
        raise ValueError(f"unknown statement kind: {kind!r}")


def build_cfg(
    func: FunctionInfo,
    source: SourceFile,
    tokens_by_line: Optional[dict] = None,
) -> CFG:
    """Build the control-flow graph for one function.

    Node ids are assigned by a per-build counter, so building the same
    function twice yields structurally identical graphs — which is what
    lets one CFG be shared between the control-flow and data-flow
    analyzers without changing either's output.
    """
    return _CFGBuilder().build(parse_statements(func, source, tokens_by_line))


# ---------------------------------------------------------------------------
# Per-node flow sets and fixpoints
# ---------------------------------------------------------------------------

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ":="}
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


# ---------------------------------------------------------------------------
# CFG random walk
# ---------------------------------------------------------------------------

def _node_is_dangerous(cfg: CFG, node: int) -> bool:
    stmt = cfg.stmts[node]
    if stmt is None:
        return False
    tokens = stmt.tokens
    for i, tok in enumerate(tokens[:-1]):
        if (
            tok.kind == TokenKind.IDENT
            and tok.text in TAINT_SINKS
            and tokens[i + 1].text == "("
        ):
            return True
    return False


def simulate_cfg(
    cfg: CFG, n_walks: int = 20, max_steps: int = 200, seed: int = 0
) -> TraceResult:
    """Random-walk ``cfg`` and aggregate the trace statistics."""
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    rng = random.Random(seed)
    visited_nodes: Set[int] = set()
    visited_edges: Set[Tuple[int, int]] = set()
    visit_counts: Dict[int, int] = {}
    total_length = 0
    dangerous = 0
    truncated = 0
    dangerous_nodes = {
        node for node in range(cfg.n_nodes) if _node_is_dangerous(cfg, node)
    }

    for _ in range(n_walks):
        node = cfg.entry
        steps = 0
        while node != cfg.exit and steps < max_steps:
            visited_nodes.add(node)
            visit_counts[node] = visit_counts.get(node, 0) + 1
            if node in dangerous_nodes:
                dangerous += 1
            successors = cfg.succs[node]
            if not successors:
                break
            nxt = rng.choice(successors)
            visited_edges.add((node, nxt))
            node = nxt
            steps += 1
        total_length += steps
        if steps >= max_steps:
            truncated += 1
        if node == cfg.exit:
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


# ---------------------------------------------------------------------------
# Record fields of both implementations
# ---------------------------------------------------------------------------

#: ``repro.core.features._PATH_CAP``.
PATH_CAP = 10 ** 6

#: A small cap, so capped path counting is compared too.
SMALL_CAP = 7


def reference_fields(func: FunctionInfo, source: SourceFile) -> Tuple[int, ...]:
    """Every ``cfg``/``dataflow`` record field of one function, by the
    statement-level reference: (nodes, edges, branches, returns, paths,
    small-cap paths, cyclomatic, defs, uses, def-use pairs, max
    reaching, source sites, sink sites, tainted sink calls)."""
    cfg = build_cfg(func, source)
    info = node_flow_info(cfg)
    defs, uses, pairs, reach = rd_metrics(cfg, info)
    taint = taint_analysis(cfg, func.param_names, info)
    return (cfg.n_nodes, cfg.n_edges, cfg.n_branch_nodes,
            cfg.kinds.count("return"), cfg.path_count(cap=PATH_CAP),
            cfg.path_count(cap=SMALL_CAP), cfg.cyclomatic,
            defs, uses, pairs, reach, taint.source_sites, taint.sink_sites,
            taint.tainted_sink_calls)


def ir_fields(func: FunctionInfo, source: SourceFile) -> Tuple[int, ...]:
    """The same fields from the product's block IR."""
    cfg = block_cfg.build_cfg(func, source)
    counts = block_dataflow.flow_counts(cfg, func.param_names)
    return (cfg.n_nodes, cfg.n_edges, cfg.n_branch_nodes, cfg.n_returns,
            cfg.path_count(cap=PATH_CAP), cfg.path_count(cap=SMALL_CAP),
            cfg.cyclomatic, counts.defs, counts.uses, counts.def_use_pairs,
            counts.max_reaching, counts.source_sites, counts.sink_sites,
            counts.tainted_sink_calls)


def assert_ir_matches_reference(text: str, path: str) -> None:
    """The IR's record fields equal the reference's for every function."""
    source = SourceFile(path, text)
    for func in extract_functions(source):
        assert ir_fields(func, source) == reference_fields(func, source), (
            path, func.name, text)

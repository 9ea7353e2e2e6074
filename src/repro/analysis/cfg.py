"""Control-flow analysis [15].

Lowers each function body straight to a control-flow graph of basic
blocks in one explicit-stack walk: a token walk for C/C++/Java, and an
indentation stack over the body's code lines for Python. No statement
tree is built, so no input nests deep enough to exhaust the interpreter
stack. The CFG yields the control-flow features the paper proposes in
§4.1 — numbers of calling/returning targets, branch and edge counts —
plus an independent cyclomatic number (E - N + 2) that cross-checks the
token-counting McCabe implementation.

Every count is at statement granularity. Each statement the lowering
recovers (plus the entry, exit and loop/switch join nodes) is one CFG
node; a block is a chain of them in which every statement after the
first has exactly one predecessor, the statement before it, and every
statement before the last has exactly one successor, the statement
after it. Labels, loop heads and joins always start a block; blocks
need not be maximal. Condensing a chain removes as many nodes as edges,
so E - N is unchanged, and a block's successors are its last
statement's in the order the lowering first added each edge, so the
back-edge-free DAG the path count walks is unchanged too.

The walk that finds a statement's end also scans it for data-flow
facts: the variables it defines and uses, as int masks over a
per-function variable index, and whether it calls a taint source or
sink (:data:`SOURCE`, :data:`SINK`). :mod:`repro.analysis.dataflow`
runs its fixpoints over the blocks with those masks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.parser import FunctionInfo
from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import TokenKind

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_OPERATOR = TokenKind.OPERATOR

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

#: Statement flag bits: the statement calls a taint source / sink.
SOURCE = 1
SINK = 2

# Block ids of the entry and exit nodes.
ENTRY = 0
EXIT = 1


# ---------------------------------------------------------------------------
# The block IR
# ---------------------------------------------------------------------------


class CFG:
    """A function's control-flow graph of basic blocks.

    Statements are the ints ``0 .. n_nodes - 1``. Block ``b`` holds
    statements ``starts[b] .. ends[b] - 1`` in chain order and
    ``succs[b]`` lists its successor blocks once each, in the order the
    lowering first added the edge. Block :data:`ENTRY` starts with the
    entry node and block :data:`EXIT` is the exit node alone.
    ``facts`` is ``(defs, uses, flags)``, one int per statement: the
    defined and used variables as masks over ``names`` (variable ->
    bit), and the :data:`SOURCE`/:data:`SINK` call flags. Nothing is
    mutated after :func:`build_cfg` returns, so derived views are
    memoized.
    """

    def __init__(self, starts: List[int], ends: List[int],
                 succs: List[List[int]], facts: Tuple[List[int], ...],
                 n_returns: int, names: Dict[str, int]):
        self.starts = starts
        self.ends = ends
        self.succs = succs
        self.facts = facts
        self.names = names
        #: Return/throw/raise statements.
        self.n_returns = n_returns
        self.n_nodes = len(facts[0])
        # Each chained statement contributes one edge inside its block.
        self.n_edges = (self.n_nodes - len(starts)
                        + sum(map(len, succs)))
        self.n_branch_nodes = sum(len(out) > 1 for out in succs)

    @property
    def cyclomatic(self) -> int:
        """Cyclomatic number from graph shape: E - N + 2."""
        return self.n_edges - self.n_nodes + 2

    def path_count(self, cap: int = 10**9) -> int:
        """Number of acyclic entry→exit paths (NPATH-like), capped.

        Back edges are removed first, so loops contribute their fall-through
        structure only; the count is exact on the resulting DAG. A chain
        has one path through it, so counting over blocks counts the
        statement-level paths.
        """
        order, succs = self._dag
        counts = [0] * len(succs)
        counts[ENTRY] = 1
        for block in order:
            c = counts[block]
            if not c:
                continue
            for succ in succs[block]:
                total = counts[succ] + c
                counts[succ] = total if total < cap else cap
        return counts[EXIT]

    @cached_property
    def _dag(self):
        """Back-edge-free DAG of the blocks reachable from entry."""
        return _acyclic_dag(self.succs, ENTRY)


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


class _Blocks:
    """Block emitter shared by both lowerings.

    ``chain`` is the block the next statement may join: the block of
    the statement emitted last, if that statement will have no
    successor but the next one. A statement joins it when that block is
    its only predecessor; otherwise it starts a new block.
    """

    __slots__ = ("starts", "ends", "succs", "defs", "uses", "flags",
                 "chain", "returns")

    def __init__(self) -> None:
        # Block ENTRY holds statement 0; block EXIT is filled last.
        self.starts = [0, -1]
        self.ends = [1, -1]
        self.succs: List[List[int]] = [[], []]
        self.defs = [0]
        self.uses = [0]
        self.flags = [0]
        self.chain = ENTRY
        self.returns = 0

    def stmt(self, preds: List[int], d: int, u: int, fl: int,
             ends: bool) -> int:
        """Emit a statement whose predecessors are all known now."""
        s = len(self.defs)
        self.defs.append(d)
        self.uses.append(u)
        self.flags.append(fl)
        c = self.chain
        if len(preds) == 1 and preds[0] == c:
            self.ends[c] = s + 1
            block = c
        else:
            block = len(self.starts)
            self.starts.append(s)
            self.ends.append(s + 1)
            self.succs.append([])
            succs = self.succs
            for p in preds:
                out = succs[p]
                if block not in out:
                    out.append(block)
        self.chain = -1 if ends else block
        return block

    def start(self, preds: List[int], d: int, u: int, fl: int, ends: bool,
              block: int = -1) -> int:
        """Emit a statement that starts a block (label, loop head, join).

        ``block`` is a block id from :meth:`reserve`, or -1 for a new one.
        """
        s = len(self.defs)
        self.defs.append(d)
        self.uses.append(u)
        self.flags.append(fl)
        if block < 0:
            block = self.reserve()
        self.starts[block] = s
        self.ends[block] = s + 1
        for p in preds:
            self.edge(p, block)
        self.chain = -1 if ends else block
        return block

    def reserve(self) -> int:
        """A block id for a join whose statement is emitted later."""
        block = len(self.starts)
        self.starts.append(-1)
        self.ends.append(-1)
        self.succs.append([])
        return block

    def edge(self, p: int, block: int) -> None:
        # A repeated edge keeps its first position.
        out = self.succs[p]
        if block not in out:
            out.append(block)
        if p == self.chain:
            self.chain = -1

    def close(self, names: Dict[str, int]) -> CFG:
        """Give entry an edge to exit if it has none; emit exit."""
        if self.ends[ENTRY] == 1 and not self.succs[ENTRY]:
            self.edge(ENTRY, EXIT)
        self.start([], 0, 0, 0, True, EXIT)
        return CFG(self.starts, self.ends, self.succs,
                   (self.defs, self.uses, self.flags), self.returns, names)


# ---------------------------------------------------------------------------
# Def/use scanning
# ---------------------------------------------------------------------------
#
# A statement defines an identifier followed by an assignment operator
# or ``++``/``--`` (or preceded by ``++``/``--``), and uses every
# identifier that is not a call target or a plain ``=`` target. An
# identifier followed by ``(`` is a call. Peeks never look outside the
# statement's own tokens.


def _scan(kinds: Sequence[TokenKind], texts: Sequence[str], i: int,
          end: int, names: Dict[str, int]) -> Tuple[int, int, int]:
    """(defs, uses, flags) of the statement at tokens ``i:end``."""
    first = i
    d = u = fl = 0
    while i < end:
        if kinds[i] is _IDENT:
            name = texts[i]
            bit = names.get(name)
            if bit is None:
                bit = names[name] = 1 << len(names)
            if i + 1 < end:
                text = texts[i + 1]
                if text == "(":
                    if name in TAINT_SOURCES:
                        fl |= SOURCE
                    if name in TAINT_SINKS:
                        fl |= SINK
                    i += 1
                    continue
                if kinds[i + 1] is _OPERATOR and text in _ASSIGN_OPS:
                    d |= bit
                    if text != "=":
                        u |= bit
                    i += 1
                    continue
                if text == "++" or text == "--":
                    d |= bit
                    u |= bit
                    i += 1
                    continue
            if i > first and texts[i - 1] in ("++", "--"):
                d |= bit
            u |= bit
        i += 1
    return d, u, fl


def _simple(kinds: Sequence[TokenKind], texts: Sequence[str], i: int, n: int,
            names: Dict[str, int]) -> Tuple[int, int, int, int]:
    """Consume an expression statement up to ``;`` or a block boundary.

    Returns ``(next index, defs, uses, flags)``: the statement's end is
    found and its facts scanned in the same walk. The statement stops
    before a ``{``/``}`` or unbalanced ``)``/``]``, and after a ``;``
    (which is not part of it).
    """
    first = i
    depth = 0
    d = u = fl = 0
    while i < n:
        text = texts[i]
        if kinds[i] is _IDENT:
            bit = names.get(text)
            if bit is None:
                bit = names[text] = 1 << len(names)
            if i + 1 < n:
                ntext = texts[i + 1]
                if ntext == "(":
                    if text in TAINT_SOURCES:
                        fl |= SOURCE
                    if text in TAINT_SINKS:
                        fl |= SINK
                    i += 1
                    continue
                if kinds[i + 1] is _OPERATOR and ntext in _ASSIGN_OPS:
                    d |= bit
                    if ntext != "=":
                        u |= bit
                    i += 1
                    continue
                if ntext == "++" or ntext == "--":
                    d |= bit
                    u |= bit
                    i += 1
                    continue
            if i > first and texts[i - 1] in ("++", "--"):
                d |= bit
            u |= bit
        elif text in "([":
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
        i += 1
    return i, d, u, fl


def _parens(kinds: Sequence[TokenKind], texts: Sequence[str], i: int, n: int,
            names: Dict[str, int]) -> Tuple[int, int, int, int]:
    """Consume a balanced ``( ... )`` group at ``i``, if there is one.

    Returns ``(next index, defs, uses, flags)`` of the inner tokens.
    """
    if i >= n or texts[i] != "(":
        return i, 0, 0, 0
    depth = 1
    j = i + 1
    while j < n:
        text = texts[j]
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth == 0:
                return (j + 1,) + _scan(kinds, texts, i + 1, j, names)
        j += 1
    return (n,) + _scan(kinds, texts, i + 1, n, names)


# ---------------------------------------------------------------------------
# Brace-language lowering (C/C++/Java)
# ---------------------------------------------------------------------------

# Frame types of the explicit stack. A statement that needs nested
# statements pushes a frame; the tails (open fall-through blocks) of a
# finished statement are handed to the frame below it.
_SEQ, _IF, _LOOP, _DO, _SWITCH, _TRY, _ELSE, _ARMS = range(8)

_CLOSERS = frozenset({";", "}", ")", "]"})


def _materialize(stack: list, pending: int, em: _Blocks) -> List[int]:
    """Emit what the top ``pending`` frames deferred; the new preds.

    A braced block used as a statement lowers to a statement node
    followed by its body, but only when it holds a statement; a switch
    arm opens at its first statement. Both wait for the first node the
    walk emits inside them.
    """
    preds: Optional[List[int]] = None
    for frame in stack[len(stack) - pending:]:
        if frame[0] is _SWITCH:
            preds = frame[4] = [frame[1]]
        else:
            block = em.stmt(frame[1] if preds is None else preds,
                            0, 0, 0, False)
            preds = frame[1] = [block]
    return preds


def _lower_brace(kinds: Sequence[TokenKind], texts: Sequence[str], i: int,
                 n: int) -> CFG:
    """Lower the statements at tokens ``i:n`` to a block CFG."""
    em = _Blocks()
    names: Dict[str, int] = {}
    labels: Dict[str, int] = {}
    gotos: List[Tuple[int, str]] = []
    # _SEQ frames: [type, cur tails, break, continue, braced].
    stack: list = [[_SEQ, [ENTRY], None, None, False]]
    pending = 0  # how many frames on top wait for a first node
    tails: Optional[List[int]] = None
    want_body = False  # a frame asked for a block-or-statement child
    preds: List[int] = []
    brk = cont = None
    while True:
        if tails is not None:
            frame = stack[-1]
            kind = frame[0]
            if kind is _SEQ:
                frame[1] = tails
                tails = None
            elif kind is _SWITCH:
                if frame[4] is not None:
                    frame[4] = tails
                tails = None
            elif kind is _IF:
                # [type, cond, break, continue, then tails or None]
                if frame[4] is None:
                    frame[4] = tails
                    if i < n and texts[i] == "else":
                        i += 1
                        preds, brk, cont = [frame[1]], frame[2], frame[3]
                        tails = None
                        want_body = True
                    else:
                        tails = tails + [frame[1]]
                        stack.pop()
                        continue
                else:
                    tails = frame[4] + tails
                    stack.pop()
                    continue
            elif kind is _LOOP or kind is _DO:
                # [type, head, join]
                head = frame[1]
                for tail in tails:
                    em.edge(tail, head)
                if kind is _DO and i < n and texts[i] == "while":
                    i, d, u, fl = _parens(kinds, texts, i + 1, n, names)
                    s = em.starts[head]
                    em.defs[s], em.uses[s], em.flags[s] = d, u, fl
                    if i < n and texts[i] == ";":
                        i += 1
                em.edge(head, frame[2])
                tails = [em.start([], 0, 0, 0, False, frame[2])]
                stack.pop()
                continue
            else:  # _TRY: [type, head, break, continue, tails so far]
                frame[4] += tails
                if i < n and texts[i] in ("catch", "finally"):
                    i += 1
                    if texts[i - 1] == "catch":
                        i = _parens(kinds, texts, i, n, names)[0]
                    preds, brk, cont = [frame[1]], frame[2], frame[3]
                    tails = None
                    want_body = True
                else:
                    tails = frame[4]
                    stack.pop()
                    continue

        if want_body:
            want_body = False
            if i < n and texts[i] == "{":
                i += 1
                stack.append([_SEQ, preds, brk, cont, True])
                continue
        else:
            frame = stack[-1]
            if frame[0] is _SEQ:
                if i >= n or (frame[4] and texts[i] == "}"):
                    if i < n:
                        i += 1
                    tails = frame[1]
                    stack.pop()
                    if pending:
                        pending -= 1
                    if not stack:
                        break
                    continue
                preds, brk, cont = frame[1], frame[2], frame[3]
            else:  # _SWITCH: [type, head, join, continue, arm tails]
                head, join = frame[1], frame[2]
                text = texts[i] if i < n else None
                if text is None or text == "}":
                    if text is not None:
                        i += 1
                    if frame[4] is not None:
                        for tail in frame[4]:
                            em.edge(tail, join)
                    em.edge(head, join)  # no-match / fallthrough
                    tails = [em.start([], 0, 0, 0, False, join)]
                    stack.pop()
                    if pending:
                        pending -= 1
                    continue
                if kinds[i] is _KEYWORD and text in ("case", "default"):
                    i += 1
                    while i < n and texts[i] != ":":
                        i += 1
                    if i < n:
                        i += 1
                    if frame[4] is None:
                        pending -= 1
                    else:
                        for tail in frame[4]:
                            em.edge(tail, join)
                    frame[4] = [head]
                    continue
                preds = frame[4] if frame[4] is not None else [head]
                brk, cont = join, frame[3]

        # -- one statement, with predecessors ``preds`` -----------------
        if i >= n:
            tails = preds
            continue
        text = texts[i]
        if text in _CLOSERS:
            # An empty statement, or an unbalanced closer: consume it so
            # the walk always advances.
            i += 1
            tails = preds
            continue
        if text == "{":
            i += 1
            stack.append([_SEQ, preds, brk, cont, True])
            pending += 1
            continue
        if pending:
            preds = _materialize(stack, pending, em)
            pending = 0
        if kinds[i] is _KEYWORD:
            if text == "if":
                i, d, u, fl = _parens(kinds, texts, i + 1, n, names)
                cond = em.stmt(preds, d, u, fl, True)
                stack.append([_IF, cond, brk, cont, None])
                preds = [cond]
                want_body = True
                continue
            if text == "while" or text == "for":
                i, d, u, fl = _parens(kinds, texts, i + 1, n, names)
                head = em.start(preds, d, u, fl, True)
                join = em.reserve()
                stack.append([_LOOP, head, join])
                preds, brk, cont = [head], join, head
                want_body = True
                continue
            if text == "do":
                i += 1
                head = em.start(preds, 0, 0, 0, True)
                join = em.reserve()
                stack.append([_DO, head, join])
                preds, brk, cont = [head], join, head
                want_body = True
                continue
            if text == "switch":
                i, d, u, fl = _parens(kinds, texts, i + 1, n, names)
                head = em.stmt(preds, d, u, fl, True)
                join = em.reserve()
                if i < n and texts[i] == "{":
                    i += 1
                    stack.append([_SWITCH, head, join, cont, None])
                    pending = 1
                    continue
                em.edge(head, join)
                tails = [em.start([], 0, 0, 0, False, join)]
                continue
            if text == "try":
                i += 1
                head = em.stmt(preds, 0, 0, 0, True)
                stack.append([_TRY, head, brk, cont, []])
                preds = [head]
                want_body = True
                continue
            if text == "return" or text == "throw":
                i, d, u, fl = _simple(kinds, texts, i + 1, n, names)
                em.edge(em.stmt(preds, d, u, fl, True), EXIT)
                em.returns += 1
                tails = []
                continue
            if text == "break" or text == "continue":
                i += 1
                if i < n and texts[i] == ";":
                    i += 1
                target = brk if text == "break" else cont
                em.edge(em.stmt(preds, 0, 0, 0, True),
                        EXIT if target is None else target)
                tails = []
                continue
            if text == "goto":
                i += 1
                label = texts[i] if i < n else ""
                if label in _CLOSERS or label == "{":
                    label = ""
                i, d, u, fl = _simple(kinds, texts, i, n, names)
                gotos.append((em.stmt(preds, d, u, fl, True), label))
                tails = []
                continue
            if text == "else":
                # Dangling else: a statement node, then its body.
                i += 1
                preds = [em.stmt(preds, 0, 0, 0, False)]
                want_body = True
                continue
        elif kinds[i] is _IDENT and i + 1 < n and texts[i + 1] == ":":
            i += 2
            bit = names.get(text)
            if bit is None:
                bit = names[text] = 1 << len(names)
            block = labels[text] = em.start(preds, 0, bit, 0, False)
            tails = [block]
            continue
        i, d, u, fl = _simple(kinds, texts, i, n, names)
        tails = [em.stmt(preds, d, u, fl, False)]

    for tail in tails:
        em.edge(tail, EXIT)
    for block, label in gotos:
        em.edge(block, labels.get(label, EXIT))
    return em.close(names)


# ---------------------------------------------------------------------------
# Python lowering (indentation)
# ---------------------------------------------------------------------------

_PY_BLOCKS = frozenset({"if", "while", "for", "with", "try", "match"})
_PY_ARMS = frozenset({"elif", "else", "except", "finally", "case"})


def _code_lines(source: SourceFile):
    """A Python file's code lines, grouped once for every function.

    Returns ``(numbers, firsts, indents, words, block_end)``, cached on
    the file: code line ``k`` is line ``numbers[k]`` and holds the code
    tokens ``firsts[k]:firsts[k + 1]``; ``indents[k]`` is its width and
    ``words[k]`` its leading keyword (else None). ``block_end[k]`` is
    the first later code line of the file indented no deeper than line
    ``k``. Within a function whose code lines are ``lo_k..hi_k - 1``,
    line ``k``'s block ends at ``min(block_end[k], hi_k)``, which is
    the block end a walk over that function's lines alone would find.
    """
    if source._code_lines is not None:
        return source._code_lines
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    firsts: List[int] = []
    numbers: List[int] = []
    last = -1
    for i, ln in enumerate(columns.lines):
        if ln != last:
            firsts.append(i)
            numbers.append(ln)
            last = ln
    firsts.append(len(kinds))
    line_indents = source.indents
    indents = [line_indents[ln - 1] for ln in numbers]
    words = [texts[head] if kinds[head] is _KEYWORD else None
             for head in firsts[:-1]]
    m = len(numbers)
    block_end = [m] * m
    open_lines: List[int] = []
    for k, width in enumerate(indents):
        while open_lines and indents[open_lines[-1]] >= width:
            block_end[open_lines.pop()] = k
        open_lines.append(k)
    source._code_lines = (numbers, firsts, indents, words, block_end)
    return source._code_lines


def _lower_indent(kinds: Sequence[TokenKind], texts: Sequence[str],
                  code_lines: tuple, lo: int, hi: int) -> CFG:
    """Lower the code lines ``lo..hi`` (1-based, inclusive) to a block CFG.

    Every code line is one statement. A block header (``if``, loops,
    ``with``, ``try``, ``match``) owns the following lines indented
    deeper than it; arms (``elif``, ``else``, ``except``, ...) at its
    indent directly below continue it. ``def``/``class`` bodies are
    skipped whole, so a function costs its own lines, not its nested
    functions' too.
    """
    numbers, firsts, indents, words, file_block_end = code_lines
    first = bisect_left(numbers, lo)
    m = bisect_right(numbers, hi, first)

    def block_end(k: int) -> int:
        end = file_block_end[k]
        return end if end < m else m

    em = _Blocks()
    names: Dict[str, int] = {}
    # _SEQ frames: [type, cur tails, break, continue, next line, end line].
    stack: list = [[_SEQ, [ENTRY], None, None, first, m]]
    tails: Optional[List[int]] = None
    while True:
        frame = stack[-1]
        if tails is not None:
            kind = frame[0]
            if kind is _SEQ:
                frame[1] = tails
                tails = None
            elif kind is _IF:
                # [type, cond, break, continue, tails so far, elif lines,
                #  next elif, else line or -1]
                frame[4] += tails
                pos = frame[6]
                if pos < len(frame[5]):
                    k = frame[5][pos]
                    frame[6] = pos + 1
                    cond = em.stmt([frame[1]], *_scan(
                        kinds, texts, firsts[k], firsts[k + 1], names), True)
                    frame[1] = cond
                    stack.append([_SEQ, [cond], frame[2], frame[3],
                                  k + 1, block_end(k)])
                    tails = None
                    continue
                k = frame[7]
                if k < 0:
                    tails = frame[4] + [frame[1]]
                    stack.pop()
                    continue
                frame[0] = _ELSE
                stack.append([_SEQ, [frame[1]], frame[2], frame[3],
                              k + 1, block_end(k)])
                tails = None
                continue
            elif kind is _ELSE:
                tails = frame[4] + tails
                stack.pop()
                continue
            elif kind is _LOOP:
                head = frame[1]
                for tail in tails:
                    em.edge(tail, head)
                em.edge(head, frame[2])
                tails = [em.start([], 0, 0, 0, False, frame[2])]
                stack.pop()
                continue
            elif kind is _TRY:
                # [type, head, break, continue, tails so far, handlers, next]
                frame[4] += tails
                pos = frame[6]
                if pos < len(frame[5]):
                    k = frame[5][pos]
                    frame[6] = pos + 1
                    stack.append([_SEQ, [frame[1]], frame[2], frame[3],
                                  k + 1, block_end(k)])
                    tails = None
                    continue
                tails = frame[4]
                stack.pop()
                continue
            else:  # _ARMS (match): [type, head, join, continue, arms, next]
                join = frame[2]
                for tail in tails:
                    em.edge(tail, join)
                pos = frame[5]
                if pos < len(frame[4]):
                    frame[5] = pos + 1
                    lo_k, hi_k = frame[4][pos]
                    stack.append([_SEQ, [frame[1]], join, frame[3],
                                  lo_k, hi_k])
                    tails = None
                    continue
                em.edge(frame[1], join)
                tails = [em.start([], 0, 0, 0, False, join)]
                stack.pop()
                continue

        k = frame[4]
        if k >= frame[5]:
            tails = frame[1]
            stack.pop()
            if not stack:
                break
            continue
        preds, brk, cont = frame[1], frame[2], frame[3]
        word = words[k]
        if word in _PY_BLOCKS:
            body_end = block_end(k)
            # Arms directly below the body at the header's indent.
            arms = []
            j = body_end
            stop = frame[5]
            width = indents[k]
            while (j < stop and numbers[j] == numbers[j - 1] + 1
                   and indents[j] == width and words[j] in _PY_ARMS):
                arms.append(j)
                j = block_end(j)
            frame[4] = j
            d, u, fl = _scan(kinds, texts, firsts[k], firsts[k + 1], names)
            if word == "if":
                # Each elif nests in the previous one's else; an else
                # arm is the last if's else unless a later elif or else
                # replaces it. Other arms are not lowered.
                elifs = []
                orelse = -1
                for arm in arms:
                    if words[arm] == "elif":
                        elifs.append(arm)
                        orelse = -1
                    elif words[arm] == "else":
                        orelse = arm
                cond = em.stmt(preds, d, u, fl, True)
                stack.append([_IF, cond, brk, cont, [], elifs, 0, orelse])
                stack.append([_SEQ, [cond], brk, cont, k + 1, body_end])
                continue
            if word == "while" or word == "for":
                head = em.start(preds, d, u, fl, True)
                join = em.reserve()
                stack.append([_LOOP, head, join])
                stack.append([_SEQ, [head], join, head, k + 1, body_end])
                continue
            if word == "with":
                node = em.stmt(preds, d, u, fl, False)
                stack.append([_SEQ, [node], brk, cont, k + 1, body_end])
                continue
            # try / match: the except/finally/case arms before any elif
            # are handlers (try) or cases (match).
            handlers = []
            for arm in arms:
                if words[arm] == "elif":
                    break
                if words[arm] != "else":
                    handlers.append(arm)
            head = em.stmt(preds, d, u, fl, True)
            if word == "try":
                stack.append([_TRY, head, brk, cont, [], handlers, 0])
                stack.append([_SEQ, [head], brk, cont, k + 1, body_end])
                continue
            cases = [(arm + 1, block_end(arm)) for arm in handlers]
            if not cases:
                cases = [(k + 1, body_end)]
            join = em.reserve()
            lo_k, hi_k = cases[0]
            stack.append([_ARMS, head, join, cont, cases, 1])
            stack.append([_SEQ, [head], join, cont, lo_k, hi_k])
            continue
        frame[4] = k + 1
        if word == "return" or word == "raise":
            d, u, fl = _scan(kinds, texts, firsts[k], firsts[k + 1], names)
            em.edge(em.stmt(preds, d, u, fl, True), EXIT)
            em.returns += 1
            frame[1] = []
        elif word == "break" or word == "continue":
            target = brk if word == "break" else cont
            em.edge(em.stmt(preds, 0, 0, 0, True),
                    EXIT if target is None else target)
            frame[1] = []
        else:
            if word == "def" or word == "class":
                frame[4] = block_end(k)
            d, u, fl = _scan(kinds, texts, firsts[k], firsts[k + 1], names)
            frame[1] = [em.stmt(preds, d, u, fl, False)]
    for tail in tails:
        em.edge(tail, EXIT)
    return em.close(names)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def build_cfg(func: FunctionInfo, source: SourceFile) -> CFG:
    """Build the block control-flow graph of one function.

    Bodies are read from the file's code-token columns. Building the
    same function twice yields identical graphs, which is what lets one
    CFG be shared between the control-flow and data-flow analyzers
    without changing either's output.
    """
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    if source.spec.function_style == "indent":
        return _lower_indent(kinds, texts, _code_lines(source),
                             func.start_line + 1, func.end_line)
    lo, hi = func.body_start, func.body_end
    # Skip the body's enclosing braces if present.
    if hi > lo and texts[lo] == "{" and texts[hi - 1] == "}":
        return _lower_brace(kinds, texts, lo + 1, hi - 1)
    return _lower_brace(kinds, texts, lo, hi)


@dataclass(frozen=True)
class ControlFlowMetrics:
    """Codebase-level control-flow feature summary."""

    n_cfg_nodes: int
    n_cfg_edges: int
    n_branch_nodes: int
    n_return_nodes: int
    total_paths: int
    max_paths: int
    mean_cyclomatic: float


def measure_codebase(codebase: Codebase, path_cap: int = 10**6) -> ControlFlowMetrics:
    """Aggregate CFG metrics across every function in ``codebase``."""
    # The artifact module builds on this one, so import it at call time.
    from repro.analysis.artifact import artifact_for

    nodes = edges = branches = returns = 0
    total_paths = 0
    max_paths = 0
    cyclomatics: List[int] = []
    for source in codebase:
        for cfg in artifact_for(source).cfgs:
            nodes += cfg.n_nodes
            edges += cfg.n_edges
            branches += cfg.n_branch_nodes
            returns += cfg.n_returns
            paths = cfg.path_count(cap=path_cap)
            total_paths = min(path_cap, total_paths + paths)
            max_paths = max(max_paths, paths)
            cyclomatics.append(cfg.cyclomatic)
    mean_cc = sum(cyclomatics) / len(cyclomatics) if cyclomatics else 0.0
    return ControlFlowMetrics(
        n_cfg_nodes=nodes,
        n_cfg_edges=edges,
        n_branch_nodes=branches,
        n_return_nodes=returns,
        total_paths=total_paths,
        max_paths=max_paths,
        mean_cyclomatic=mean_cc,
    )

"""Single-parse analysis artifact: lex and parse each file exactly once.

Before this module existed, every analyzer re-derived its own view of a
file: the function table was extracted up to a dozen times per file
(cyclomatic twice, functions, control flow, data flow, three smell
detectors, the call graph, the OO metrics, the attack-surface scan), each
function's CFG was built twice (control flow and data flow), and almost
every analyzer re-filtered the token stream down to code tokens.

A :class:`FileArtifact` computes each of those views once, lazily, and
caches it on the :class:`~repro.lang.sourcefile.SourceFile` itself (via
:func:`artifact_for`), so whichever analyzer asks first pays and everyone
after shares. The contract is strict byte-identity: every cached view is
produced by exactly the code the analyzers previously called themselves
(same functions, same argument order), so analyzer outputs — feature rows,
``file_record`` dicts, cached digests — are bit-for-bit unchanged. The
differential harness in ``tests/analysis/test_fused_equivalence.py``
enforces this against the preserved legacy collectors.

Sharing notes (why reuse cannot change results):

- ``FunctionInfo.body_tokens`` produced by the parser are already
  code-filtered, so analyzers that re-filter them get the same list back.
- CFG node ids are list indices assigned in lowering order, so a CFG
  built here is identical to one an analyzer would have built itself.
  Its ``kinds``/``stmts``/``succs`` lists are never mutated after the
  build: the control-flow consumer reads metrics, the data-flow
  consumer runs read-only fixpoints, and the memoized views
  (``CFG.preds``, and the back-edge-free DAG ``CFG._dag`` the path
  metrics walk) cannot go stale.
- ``extract_classes`` fills in ``FunctionInfo.owner`` on the shared
  function list; no analyzer reads ``owner`` from a fresh extraction, so
  the mutation is unobservable.
- The SourceFile owns its artifact (``source._artifact``) and the
  artifact refers back to it only through a weak reference, so no
  per-file object is part of a reference cycle: dropping the
  SourceFile frees the artifact and every token, statement, CFG and
  flow-info set it cached by refcount alone, without the cyclic
  collector. Extraction relies on that to run with the collector paused
  (``repro.core.features``). An artifact kept past its SourceFile
  cannot recompute anything; :attr:`FileArtifact.source` raises
  ``ReferenceError`` naming the file.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import CFG, build_cfg, code_tokens_by_line
from repro.analysis.dataflow import NodeFlowInfo, node_flow_info
from repro.lang.parser import (
    ClassInfo,
    FunctionInfo,
    extract_classes,
    extract_functions,
)
from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import Token, TokenKind


class FileArtifact:
    """Memoized per-file analysis views, each computed at most once."""

    __slots__ = (
        "path",
        "_source_ref",
        "_code_tokens",
        "_functions",
        "_classes",
        "_cfgs",
        "_tokens_by_line",
        "_node_infos",
        "_call_sites",
    )

    def __init__(self, source: SourceFile):
        self.path = source.path
        self._source_ref = weakref.ref(source)
        self._code_tokens: Optional[List[Token]] = None
        self._functions: Optional[List[FunctionInfo]] = None
        self._classes: Optional[List[ClassInfo]] = None
        self._cfgs: Optional[List[CFG]] = None
        self._tokens_by_line: Optional[dict] = None
        self._node_infos: Optional[List[Optional[NodeFlowInfo]]] = None
        self._call_sites: Optional[List[int]] = None

    @property
    def source(self) -> SourceFile:
        """The file these views describe (held weakly, see module notes)."""
        source = self._source_ref()
        if source is None:
            raise ReferenceError(
                f"analysis artifact for {self.path!r} outlived its "
                "SourceFile; get a fresh one with artifact_for()")
        return source

    # -- raw views --------------------------------------------------------

    @property
    def tokens(self) -> List[Token]:
        """Full token stream (lexed once by the SourceFile)."""
        return self.source.tokens

    @property
    def lines(self) -> List[str]:
        """Physical lines (cached by the SourceFile)."""
        return self.source.lines

    @property
    def code_tokens(self) -> List[Token]:
        """Tokens with comments/newlines filtered out."""
        if self._code_tokens is None:
            self._code_tokens = [t for t in self.source.tokens if t.is_code()]
        return self._code_tokens

    @property
    def tokens_by_line(self) -> dict:
        """Code tokens grouped by line (Python statement recovery)."""
        if self._tokens_by_line is None:
            self._tokens_by_line = code_tokens_by_line(self.source.tokens)
        return self._tokens_by_line

    # -- structural views -------------------------------------------------

    @property
    def functions(self) -> List[FunctionInfo]:
        """The file's function table, extracted once."""
        if self._functions is None:
            self._functions = extract_functions(self.source, self.code_tokens)
        return self._functions

    @property
    def classes(self) -> List[ClassInfo]:
        """The file's class table, matched against the shared functions."""
        if self._classes is None:
            self._classes = extract_classes(
                self.source, self.code_tokens, self.functions
            )
        return self._classes

    @property
    def cfgs(self) -> List[CFG]:
        """One CFG per entry of :attr:`functions`, index-aligned."""
        if self._cfgs is None:
            by_line = (
                self.tokens_by_line
                if self.source.spec.function_style == "indent"
                else None
            )
            self._cfgs = [
                build_cfg(func, self.source, by_line) for func in self.functions
            ]
        return self._cfgs

    @property
    def call_sites(self) -> List[int]:
        """Indices into :attr:`code_tokens` of call sites (ident + ``(``).

        The shared symbol index the bug-finding checkers scan: computed
        with exactly the predicate ``c_checkers._call_sites`` uses, so a
        checker receiving this list sees the same indices it would have
        derived itself.
        """
        if self._call_sites is None:
            toks = self.code_tokens
            open_paren = "("
            self._call_sites = [
                i
                for i in range(len(toks) - 1)
                if toks[i].kind is TokenKind.IDENT
                and toks[i + 1].text == open_paren
            ]
        return self._call_sites

    def node_info(self, index: int) -> NodeFlowInfo:
        """Per-node (defs, uses, calls) for ``cfgs[index]``, computed once."""
        if self._node_infos is None:
            self._node_infos = [None] * len(self.cfgs)
        info = self._node_infos[index]
        if info is None:
            info = self._node_infos[index] = node_flow_info(self.cfgs[index])
        return info

    def function_cfgs(self) -> List[Tuple[FunctionInfo, CFG]]:
        """(function, cfg) pairs in function-table order."""
        return list(zip(self.functions, self.cfgs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileArtifact({self.path!r})"


def artifact_for(source: SourceFile) -> FileArtifact:
    """The file's :class:`FileArtifact`, created on first request.

    The artifact rides on the SourceFile (``source._artifact``), so
    per-file and tree-level analyzers running in the same process share
    one parse no matter which asks first. It holds the SourceFile only
    weakly, so it lives exactly as long as the file does; keep the
    SourceFile, not the artifact, when a view is needed later. It is
    deliberately excluded from pickling (``SourceFile.__getstate__``):
    worker processes rebuild it lazily from the shipped text.
    """
    artifact = source._artifact
    if artifact is None:
        artifact = source._artifact = FileArtifact(source)
    return artifact


def artifacts_for(codebase: Codebase) -> Dict[str, FileArtifact]:
    """Artifacts for every file in ``codebase``, keyed by path."""
    return {f.path: artifact_for(f) for f in codebase.files}

"""Single-parse analysis artifact: lex and parse each file exactly once.

Every per-file analyzer takes a :class:`~repro.lang.sourcefile.SourceFile`
and nothing else. The views it needs come from one place: the code
tokens are ``SourceFile.columns`` (parallel kind/text/line lists, cached
next to ``lines``), and the function table, class table, CFGs and
call-site index come from the file's :class:`FileArtifact`
(:func:`artifact_for`). No analyzer reads the ``Token`` views
(``SourceFile.tokens``/``code_tokens``), so extraction builds no
``Token``.
Each view is computed once, lazily, by whichever analyzer asks first,
and every analyzer after it shares it. There is no second derivation:
an analyzer run on a fresh SourceFile computes the same views the same
way, and ``tests/analysis/test_fused_equivalence.py`` holds
``file_record`` to that reference, each collector on its own fresh copy
of the file.

Sharing notes (why reuse cannot change results):

- A ``FunctionInfo`` body is an index range into the file's columns,
  so every analyzer reads the same tokens without copying them.
- Statement and block ids are list indices assigned in lowering order,
  so a CFG built here is identical to one an analyzer would have built
  itself. Its block lists and per-statement flow facts are never
  mutated after the build: the control-flow consumer reads metrics,
  the data-flow consumer runs read-only fixpoints, and the memoized
  back-edge-free DAG ``CFG._dag`` that both walk cannot go stale.
- ``extract_classes`` fills in ``FunctionInfo.owner`` on the shared
  function list; no analyzer reads ``owner`` from a fresh extraction, so
  the mutation is unobservable.
- The SourceFile owns its artifact (``source._artifact``) and the
  artifact refers back to it only through a weak reference, so no
  per-file object is part of a reference cycle: dropping the
  SourceFile frees the artifact and every token, function table and
  CFG it cached by refcount alone, without the cyclic
  collector. Extraction relies on that to run with the collector paused
  (``repro.core.features``). An artifact kept past its SourceFile
  cannot recompute anything; :attr:`FileArtifact.source` raises
  ``ReferenceError`` naming the file.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.lang.parser import (
    ClassInfo,
    FunctionInfo,
    extract_classes,
    extract_functions,
)
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import Token, TokenKind


class FileArtifact:
    """Memoized per-file analysis views, each computed at most once."""

    __slots__ = (
        "path",
        "_source_ref",
        "_functions",
        "_classes",
        "_cfgs",
        "_call_sites",
    )

    def __init__(self, source: SourceFile):
        self.path = source.path
        self._source_ref = weakref.ref(source)
        self._functions: Optional[List[FunctionInfo]] = None
        self._classes: Optional[List[ClassInfo]] = None
        self._cfgs: Optional[List[CFG]] = None
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
        """Full ``Token`` stream (the SourceFile's view, built on demand)."""
        return self.source.tokens

    @property
    def code_tokens(self) -> List[Token]:
        """``Token``s without comments/newlines (the SourceFile's view)."""
        return self.source.code_tokens

    # -- structural views -------------------------------------------------

    @property
    def functions(self) -> List[FunctionInfo]:
        """The file's function table, extracted once."""
        if self._functions is None:
            self._functions = extract_functions(self.source)
        return self._functions

    @property
    def classes(self) -> List[ClassInfo]:
        """The file's class table, matched against the shared functions."""
        if self._classes is None:
            self._classes = extract_classes(self.source, self.functions)
        return self._classes

    @property
    def cfgs(self) -> List[CFG]:
        """One CFG per entry of :attr:`functions`, index-aligned."""
        if self._cfgs is None:
            source = self.source
            self._cfgs = [build_cfg(func, source) for func in self.functions]
        return self._cfgs

    @property
    def call_sites(self) -> List[int]:
        """Code-token indices of call sites (ident + ``(``).

        The shared symbol index the C/C++ bug-finding checkers scan.
        """
        if self._call_sites is None:
            columns = self.source.columns
            kinds = columns.kinds
            ident = TokenKind.IDENT
            # "(" is rarer than an identifier, so test it first.
            self._call_sites = [
                i - 1 for i, text in enumerate(columns.texts)
                if text == "(" and i and kinds[i - 1] is ident
            ]
        return self._call_sites

    def node_info(self, index: int) -> Tuple[List[int], ...]:
        """Per-statement ``(defs, uses, flags)`` masks of ``cfgs[index]``.

        The lowering scans them while it builds the CFG (``CFG.facts``).
        """
        return self.cfgs[index].facts

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


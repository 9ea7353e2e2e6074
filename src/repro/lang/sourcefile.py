"""Source-file and codebase models.

A :class:`SourceFile` pairs a path with its text and detected language and
lazily caches its code-token columns (what every analyzer reads), its
lines, and the ``Token`` views outside callers use. A
:class:`Codebase` is the unit the paper's testbed operates on: the complete
set of source files for one application, which every analyzer in
:mod:`repro.analysis` consumes.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, List, Optional

from repro.lang.languages import LanguageSpec, detect_language, language_by_name
from repro.lang.lexer import Lexer, TokenColumns
from repro.lang.tokens import Token


def line_indent(line: str) -> int:
    """Indentation width of a line, tabs to the next multiple of 8."""
    lead = len(line) - len(line.lstrip(" \t"))
    if "\t" not in line[:lead]:
        return lead
    width = 0
    for ch in line[:lead]:
        width = width + 1 if ch == " " else width + 8 - width % 8
    return width


class SourceFile:
    """One source file: path, text, language, and cached token views.

    :attr:`columns` is the lexed form every analyzer reads. :attr:`tokens`
    and :attr:`code_tokens` are ``Token`` lists built from the same
    pattern on first access, for callers outside the analysis path.
    """

    def __init__(self, path: str, text: str, spec: Optional[LanguageSpec] = None):
        if spec is None:
            spec = detect_language(path)
        if spec is None:
            raise ValueError(f"cannot detect language for {path!r}")
        self.path = path
        self.text = text
        self.spec = spec
        self._columns: Optional[TokenColumns] = None
        self._tokens: Optional[List[Token]] = None
        self._code_tokens: Optional[List[Token]] = None
        self._lines: Optional[List[str]] = None
        self._indents: Optional[List[int]] = None
        self._suites = None  # Python suite extents, see repro.lang.parser
        self._code_lines = None  # Python code lines, see repro.analysis.cfg
        self._artifact = None  # lazily-built repro.analysis.artifact.FileArtifact

    def __getstate__(self) -> dict:
        # Ship only path/text/language-name across process boundaries:
        # the columns and token caches re-lex lazily on the other side,
        # and the spec is re-resolved by name so it stays the module
        # singleton that identity checks (``f.spec is spec``) rely on.
        return {"path": self.path, "text": self.text,
                "language": self.spec.name}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.text = state["text"]
        self.spec = language_by_name(state["language"])
        self._columns = None
        self._tokens = None
        self._code_tokens = None
        self._lines = None
        self._indents = None
        self._suites = None
        self._code_lines = None
        self._artifact = None

    @property
    def columns(self) -> TokenColumns:
        """The file's code tokens as columns (lexed on first access)."""
        if self._columns is None:
            self._columns = Lexer(self.spec, as_columns=True).tokenize(
                self.text)
        return self._columns

    @property
    def tokens(self) -> List[Token]:
        """The file's full ``Token`` stream, with newlines and comments.

        Built on first access, after the columns, so timing this property
        on a fresh file covers the lexing the analyzers pay for.
        """
        if self._tokens is None:
            self.columns
            self._tokens = Lexer(self.spec).tokenize(self.text)
        return self._tokens

    @property
    def code_tokens(self) -> List[Token]:
        """The ``Token`` stream without comments and newlines (cached).

        Index-aligned with :attr:`columns`: ``code_tokens[i]`` is the
        columns' i-th token.
        """
        if self._code_tokens is None:
            self._code_tokens = [t for t in self.tokens if t.is_code()]
        return self._code_tokens

    @property
    def lines(self) -> List[str]:
        """Physical lines of the file, without trailing newlines (cached)."""
        if self._lines is None:
            self._lines = self.text.splitlines()
        return self._lines

    @property
    def indents(self) -> List[int]:
        """Each physical line's :func:`line_indent` width (cached)."""
        if self._indents is None:
            self._indents = [line_indent(line) for line in self.lines]
        return self._indents

    @property
    def language(self) -> str:
        """Canonical language name (c, cpp, java, python)."""
        return self.spec.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceFile({self.path!r}, {self.language})"


class Codebase:
    """A named collection of source files — one application's code.

    This is the object the testbed (``repro.core.features``) analyses, and
    the object the synthetic application generator produces.
    """

    def __init__(self, name: str, files: Iterable[SourceFile] = ()):
        self.name = name
        self._files: Dict[str, SourceFile] = {}
        for f in files:
            self.add(f)

    def add(self, source: SourceFile) -> None:
        """Add (or replace) a source file by path."""
        self._files[source.path] = source

    def remove(self, path: str) -> None:
        """Remove the file at ``path``; KeyError if absent."""
        del self._files[path]

    def get(self, path: str) -> Optional[SourceFile]:
        """Return the file at ``path`` or None."""
        return self._files.get(path)

    @property
    def files(self) -> List[SourceFile]:
        """All files, in deterministic (path-sorted) order."""
        return [self._files[p] for p in sorted(self._files)]

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self._files)

    def by_language(self, name: str) -> List[SourceFile]:
        """All files whose language is ``name``."""
        spec = language_by_name(name)
        return [f for f in self.files if f.spec is spec]

    def languages(self) -> Dict[str, int]:
        """Map of language name -> number of files in that language."""
        counts: Dict[str, int] = {}
        for f in self.files:
            counts[f.language] = counts.get(f.language, 0) + 1
        return counts

    def primary_language(self) -> Optional[str]:
        """The language with the most non-blank source lines.

        The paper categorises each application by the language it is
        *primarily* written in (Figure 2); ties break alphabetically for
        determinism.
        """
        weights: Dict[str, int] = {}
        for f in self.files:
            loc = sum(1 for line in f.lines if line.strip())
            weights[f.language] = weights.get(f.language, 0) + loc
        if not weights:
            return None
        return min(weights, key=lambda lang: (-weights[lang], lang))

    @classmethod
    def from_directory(cls, root: str, name: Optional[str] = None) -> "Codebase":
        """Load every recognised source file under ``root``.

        Files with unrecognised extensions are skipped; undecodable files
        are read with replacement characters rather than failing the scan.
        """
        cb = cls(name or os.path.basename(os.path.abspath(root)))
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fname in sorted(filenames):
                full = os.path.join(dirpath, fname)
                spec = detect_language(fname)
                if spec is None:
                    continue
                with open(full, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
                rel = os.path.relpath(full, root)
                cb.add(SourceFile(rel, text, spec))
        return cb

    @classmethod
    def from_sources(cls, name: str, sources: Dict[str, str]) -> "Codebase":
        """Build a codebase from an in-memory {path: text} mapping."""
        return cls(name, (SourceFile(p, t) for p, t in sorted(sources.items())))

"""Content-addressed digests for the feature cache.

A cache entry is valid only while *everything* that feeds the feature
row is unchanged: the codebase's file contents (and their paths — a
rename moves findings), the commit history behind the churn features,
the extraction arguments, and the analyzer set itself. Each of those is
folded into one hex key here.

The digest deliberately ignores *how* a :class:`~repro.lang.sourcefile.
Codebase` was assembled: files are hashed in path-sorted order, so two
byte-identical codebases built in different insertion orders (or loaded
from disk vs memory) share a key, while editing, adding, deleting, or
renaming any file produces a new one.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.analysis.churn import CommitHistory
from repro.lang.sourcefile import Codebase, SourceFile

#: Version of the analyzer set feeding :func:`repro.core.features
#: .extract_features`. Bump whenever any analyzer, the bug-finding
#: rules, or the feature-row schema changes in a way that alters
#: emitted values — every cached entry keyed on the old version then
#: misses cleanly instead of serving stale rows. Per-file records share
#: this version: their partial layout is part of the analyzer set.
ANALYZER_SET_VERSION = "2026.10.16-1"


def _hasher() -> "hashlib._Hash":
    return hashlib.sha256()


def codebase_digest(codebase: Codebase) -> str:
    """Digest of a codebase's contents, invariant to assembly order.

    Hashes ``(path, language, sha256(text))`` per file, iterating in the
    codebase's canonical path-sorted order. The application *name* is
    excluded on purpose: the same tree analysed under two names yields
    the same features (only densities and counts depend on content).

    Every text field is hashed as ``\\x00``-delimited UTF-8 — a
    non-ASCII language tag (or path) must never abort extraction, and
    the delimiters keep adjacent fields from aliasing each other.
    """
    h = _hasher()
    for source in codebase.files:
        h.update(source.path.encode("utf-8"))
        h.update(b"\x00")
        h.update(source.language.encode("utf-8"))
        h.update(b"\x00")
        h.update(hashlib.sha256(source.text.encode("utf-8")).digest())
        h.update(b"\x01")
    return h.hexdigest()


def file_digest(source: SourceFile,
                analyzer_version: str = ANALYZER_SET_VERSION) -> str:
    """The cache key for one file's per-file analyzer record.

    Keyed on the file's path, language, content bytes, and the analyzer
    set version, under a ``file-record`` domain prefix so a file-record
    key can never alias a task or manifest key. The path is included on
    purpose: per-file records carry path-dependent facts (bug-finding
    dedup keys pin the path), so a renamed file must miss and recompute
    rather than resurrect another path's record.
    """
    h = _hasher()
    h.update(b"file-record\x00")
    h.update(analyzer_version.encode("utf-8"))
    h.update(b"\x00")
    h.update(source.path.encode("utf-8"))
    h.update(b"\x00")
    h.update(source.language.encode("utf-8"))
    h.update(b"\x00")
    h.update(hashlib.sha256(source.text.encode("utf-8")).digest())
    return h.hexdigest()


def manifest_key(app: str,
                 analyzer_version: str = ANALYZER_SET_VERSION) -> str:
    """The cache key of an application's file-digest manifest.

    Keyed on the application *name* (not content — the manifest exists
    precisely to survive content changes) under its own domain prefix.
    The manifest is advisory: it only classifies a warm run's files as
    changed/added/removed for the delta counters, never gates reuse.
    """
    h = _hasher()
    h.update(b"manifest\x00")
    h.update(analyzer_version.encode("utf-8"))
    h.update(b"\x00")
    h.update(app.encode("utf-8"))
    return h.hexdigest()


def history_digest(history: Optional[CommitHistory]) -> str:
    """Digest of a commit history (``no-history`` sentinel for None).

    Every field — author, day, per-delta path and line counts — is
    hashed as ``\\x00``-delimited UTF-8, with ``\\x1e`` closing each
    delta and ``\\x01`` closing each commit. Unambiguous framing
    matters: the old scheme appended ``:added:deleted`` straight onto
    the path, so a path that itself ended in ``:2:3`` could collide
    with a different (path, counts) split.
    """
    h = _hasher()
    if history is None:
        h.update(b"no-history")
        return h.hexdigest()
    for commit in history.commits:
        h.update(commit.author.encode("utf-8"))
        h.update(b"\x00")
        h.update(str(commit.day).encode("utf-8"))
        h.update(b"\x00")
        for delta in commit.deltas:
            h.update(delta.path.encode("utf-8"))
            h.update(b"\x00")
            h.update(str(delta.lines_added).encode("utf-8"))
            h.update(b"\x00")
            h.update(str(delta.lines_deleted).encode("utf-8"))
            h.update(b"\x1e")
        h.update(b"\x01")
    return h.hexdigest()


def task_digest(
    codebase: Codebase,
    nominal_kloc: Optional[float] = None,
    history: Optional[CommitHistory] = None,
    include_dynamic: bool = False,
    analyzer_version: str = ANALYZER_SET_VERSION,
) -> str:
    """The cache key for one feature-extraction task.

    Combines the codebase and history digests with the extraction
    arguments and the analyzer-set version. ``nominal_kloc`` enters via
    ``repr`` so the float round-trips exactly.
    """
    payload = json.dumps(
        {
            "analyzer_version": analyzer_version,
            "codebase": codebase_digest(codebase),
            "history": history_digest(history),
            "include_dynamic": include_dynamic,
            "nominal_kloc": repr(nominal_kloc),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

"""Memory-lifecycle checkers for C/C++ (tool "memlint").

Flow-insensitive but order-aware token patterns over each function body:
double free (CWE-415), use after free (CWE-416), and leaked allocations
(CWE-401, allocation with no reachable free in the same function —
deliberately noisy, like the real tools §4.2 proposes to amortise).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.artifact import artifact_for
from repro.bugfind.findings import Finding, Severity
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import TokenKind

TOOL = "memlint"

_ALLOC = frozenset({"malloc", "calloc", "realloc", "strdup"})


def check_memory_lifecycle(source: SourceFile) -> List[Finding]:
    """Per-function double-free / use-after-free / leak detection.

    One pass over each body's tokens, in order: ``free(p)`` frees ``p``
    (the argument is consumed), ``p = malloc(...)``-style calls allocate
    it, ``p = ...`` reassigns it, and any other mention of a freed
    variable (``p[``, ``p->``, a bare read) is a use after free.
    """
    findings: List[Finding] = []
    ident = TokenKind.IDENT
    columns = source.columns
    kinds, texts, lines = columns.kinds, columns.texts, columns.lines
    for func in artifact_for(source).functions:
        lo, n = func.body_start, func.body_end
        freed: Set[str] = set()
        allocated: Dict[str, int] = {}
        skip = -1  # the argument of the last free, consumed by it
        for i in range(lo, n):
            if i == skip or kinds[i] is not ident:
                continue
            var = texts[i]
            nxt = texts[i + 1] if i + 1 < n else None
            if nxt == "(" and var == "free":
                if i + 2 < n and kinds[i + 2] is ident:
                    skip = i + 2
                    var = texts[skip]
                    if var in freed:
                        findings.append(
                            Finding(TOOL, "double-free", source.path,
                                    lines[i], Severity.CRITICAL,
                                    f"{var!r} freed twice in {func.name}()",
                                    cwe=415)
                        )
                    freed.add(var)
                    allocated.pop(var, None)
                continue
            if nxt == "(" and var in _ALLOC:
                # `p = malloc(...)` — the assigned variable is two back.
                if i >= lo + 2 and texts[i - 1] == "=" \
                        and kinds[i - 2] is ident:
                    var = texts[i - 2]
                    allocated[var] = lines[i]
                    freed.discard(var)  # realloc-style reuse
                continue
            if var not in freed:
                continue  # only a freed variable's next mention matters
            if nxt == "=" and i + 2 < n and texts[i + 2] != "=":
                freed.discard(var)  # reassignment gives a fresh object
            elif nxt in ("[", "->") or (var not in _ALLOC and var != "free"):
                findings.append(
                    Finding(TOOL, "use-after-free", source.path, lines[i],
                            Severity.CRITICAL,
                            f"{var!r} used after free in {func.name}()",
                            cwe=416)
                )
                freed.discard(var)  # one report per free
        for var, line in allocated.items():
            findings.append(
                Finding(TOOL, "memory-leak", source.path, line,
                        Severity.LOW,
                        f"{var!r} allocated in {func.name}() but never "
                        "freed here", cwe=401)
            )
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def run(source: SourceFile) -> List[Finding]:
    """Run the lifecycle checker (C/C++ only)."""
    if source.spec.name not in ("c", "cpp"):
        return []
    return check_memory_lifecycle(source)

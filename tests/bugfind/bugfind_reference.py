"""Test-only reference copies of the memlint and weak-random checkers.

The product streams each C/C++ function body once
(:func:`repro.bugfind.lifecycle_checkers.check_memory_lifecycle`) and
only builds the identifier set when a ``rand``-family call exists
(:func:`repro.bugfind.c_checkers.check_weak_random`). These are the
earlier event-list and set-first versions, kept verbatim so a
differential test can hold the product to the same findings.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.bugfind import c_checkers
from repro.bugfind.c_checkers import _call_sites, _code_tokens
from repro.bugfind.findings import Finding, Severity
from repro.bugfind.lifecycle_checkers import _ALLOC, TOOL
from repro.lang.parser import extract_functions
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import Token, TokenKind


def _events(tokens: List[Token]) -> List[Tuple[str, str, int]]:
    """(kind, variable, line) events: alloc / free / use, in token order."""
    events: List[Tuple[str, str, int]] = []
    n = len(tokens)
    skip: Set[int] = set()
    for i, tok in enumerate(tokens):
        if i in skip or tok.kind != TokenKind.IDENT:
            continue
        nxt = tokens[i + 1] if i + 1 < n else None
        if nxt is not None and nxt.text == "(" and tok.text == "free":
            if i + 2 < n and tokens[i + 2].kind == TokenKind.IDENT:
                events.append(("free", tokens[i + 2].text, tok.line))
                skip.add(i + 2)  # the argument is consumed by the free
            continue
        if nxt is not None and nxt.text == "(" and tok.text in _ALLOC:
            # `p = malloc(...)` — the assigned variable is two back.
            if i >= 2 and tokens[i - 1].text == "=" \
                    and tokens[i - 2].kind == TokenKind.IDENT:
                events.append(("alloc", tokens[i - 2].text, tok.line))
            continue
        if nxt is not None and (
            nxt.text in ("[", "->")
            or (nxt.text == "=" and i + 2 < n and tokens[i + 2].text != "=")
        ):
            kind = "assign" if nxt.text == "=" else "use"
            events.append((kind, tok.text, tok.line))
        elif tok.text not in _ALLOC and tok.text != "free":
            events.append(("read", tok.text, tok.line))
    return events


def check_memory_lifecycle(source: SourceFile, functions=None) -> List[Finding]:
    """Per-function double-free / use-after-free / leak detection.

    ``functions`` lets the analysis artifact supply its cached function
    table instead of re-extracting.
    """
    findings: List[Finding] = []
    if functions is None:
        functions = extract_functions(source)
    for func in functions:
        tokens = func.body_tokens  # already code-filtered by the parser
        freed: Set[str] = set()
        allocated: Dict[str, int] = {}
        for kind, var, line in _events(tokens):
            if kind == "alloc":
                allocated[var] = line
                freed.discard(var)  # realloc-style reuse
            elif kind == "free":
                if var in freed:
                    findings.append(
                        Finding(TOOL, "double-free", source.path, line,
                                Severity.CRITICAL,
                                f"{var!r} freed twice in {func.name}()",
                                cwe=415)
                    )
                freed.add(var)
                allocated.pop(var, None)
            elif kind == "assign":
                freed.discard(var)  # reassignment gives a fresh object
            elif kind in ("use", "read") and var in freed:
                findings.append(
                    Finding(TOOL, "use-after-free", source.path, line,
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


def check_weak_random(source: SourceFile, tokens=None,
                      call_sites=None) -> List[Finding]:
    """CWE-338: rand()/random() used where unpredictability matters."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    security_idents = {"key", "token", "nonce", "seed", "secret", "session",
                       "password", "salt"}
    idents = {t.text.lower() for t in tokens if t.kind == TokenKind.IDENT}
    relevant = bool(idents & security_idents)
    if call_sites is None:
        call_sites = _call_sites(tokens)
    for i in call_sites:
        if tokens[i].text in ("rand", "random", "srand") and relevant:
            findings.append(
                Finding(c_checkers.TOOL, "weak-random", source.path,
                        tokens[i].line, Severity.MEDIUM,
                        f"{tokens[i].text}() is predictable; use a CSPRNG",
                        cwe=338)
            )
    return findings


def lifecycle_run(source: SourceFile) -> List[Finding]:
    """The reference twin of ``lifecycle_checkers.run``."""
    if source.spec.name not in ("c", "cpp"):
        return []
    return check_memory_lifecycle(source)


def c_run(source: SourceFile) -> List[Finding]:
    """The reference twin of ``c_checkers.run``: the product's other
    checkers with the reference ``check_weak_random``."""
    if source.spec.name not in ("c", "cpp"):
        return []
    findings: List[Finding] = []
    for checker in c_checkers.C_CHECKERS:
        if checker is c_checkers.check_weak_random:
            checker = check_weak_random
        findings.extend(checker(source, None, None))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings

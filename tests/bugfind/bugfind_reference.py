"""Test-only reference copies of the memlint, weak-random and generic checkers.

The product streams each C/C++ function body once
(:func:`repro.bugfind.lifecycle_checkers.check_memory_lifecycle`), only
builds the identifier set when a ``rand``-family call exists
(:func:`repro.bugfind.c_checkers.check_weak_random`), and runs every
generic rule in one kind-dispatched pass
(:func:`repro.bugfind.generic_checkers.run`). These are the earlier
event-list, set-first and one-walk-per-rule versions, kept verbatim so
differential tests can hold the product to the same findings.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.bugfind import c_checkers
from repro.bugfind.findings import Finding, Severity
from repro.bugfind.generic_checkers import (
    _DESERIAL_FUNCS,
    _DESERIAL_MODULES,
    _EVAL_FUNCS,
    _SECRET_NAMES,
    _SQL_VERBS,
    _WEAK_CRYPTO,
    TOOL,
)
from repro.bugfind.lifecycle_checkers import _ALLOC
from repro.bugfind.lifecycle_checkers import TOOL as _MEMLINT
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
                        Finding(_MEMLINT, "double-free", source.path, line,
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
                    Finding(_MEMLINT, "use-after-free", source.path, line,
                            Severity.CRITICAL,
                            f"{var!r} used after free in {func.name}()",
                            cwe=416)
                )
                freed.discard(var)  # one report per free
        for var, line in allocated.items():
            findings.append(
                Finding(_MEMLINT, "memory-leak", source.path, line,
                        Severity.LOW,
                        f"{var!r} allocated in {func.name}() but never "
                        "freed here", cwe=401)
            )
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def _code_tokens(source: SourceFile) -> List[Token]:
    return [t for t in source.tokens if t.is_code()]


def _call_sites(tokens: List[Token]) -> List[int]:
    """Indices of identifier tokens that are call sites (followed by '(')."""
    return [
        i
        for i in range(len(tokens) - 1)
        if tokens[i].kind == TokenKind.IDENT and tokens[i + 1].text == "("
    ]


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
        findings.extend(checker(source))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


# -- generic checkers, one walk per rule ---------------------------------------


def check_hardcoded_secret(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-798: a secret-named variable assigned a string literal."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for i in range(len(tokens) - 2):
        tok = tokens[i]
        if tok.kind != TokenKind.IDENT:
            continue
        if tok.text.lower() not in _SECRET_NAMES:
            continue
        if tokens[i + 1].text != "=":
            continue
        value = tokens[i + 2]
        if value.kind == TokenKind.STRING and len(value.text) > 4:
            findings.append(
                Finding(TOOL, "hardcoded-secret", source.path, tok.line,
                        Severity.HIGH,
                        f"{tok.text!r} assigned a literal secret", cwe=798)
            )
    return findings


def check_dynamic_eval(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-95: eval/exec of a non-literal expression."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for i in range(len(tokens) - 2):
        tok = tokens[i]
        if tok.kind != TokenKind.IDENT or tok.text not in _EVAL_FUNCS:
            continue
        if tokens[i + 1].text != "(":
            continue
        arg = tokens[i + 2]
        if arg.kind != TokenKind.STRING:
            findings.append(
                Finding(TOOL, "dynamic-eval", source.path, tok.line,
                        Severity.CRITICAL,
                        f"{tok.text}() evaluates a dynamic expression", cwe=95)
            )
    return findings


def check_sql_concatenation(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-89: SQL text concatenated with a variable."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.STRING:
            continue
        lowered = tok.text.lower()
        if not any(verb in lowered for verb in _SQL_VERBS):
            continue
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        after = tokens[i + 2] if i + 2 < len(tokens) else None
        if nxt is not None and nxt.text == "+" and after is not None \
                and after.kind == TokenKind.IDENT:
            findings.append(
                Finding(TOOL, "sql-concatenation", source.path, tok.line,
                        Severity.HIGH,
                        "SQL statement built by string concatenation", cwe=89)
            )
    return findings


def check_weak_crypto(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-327: use of a broken or risky cryptographic primitive."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for tok in tokens:
        if tok.kind not in (TokenKind.IDENT, TokenKind.STRING):
            continue
        lowered = tok.text.lower().strip("\"'")
        if lowered in _WEAK_CRYPTO:
            findings.append(
                Finding(TOOL, "weak-crypto", source.path, tok.line,
                        Severity.MEDIUM,
                        f"{lowered.upper()} is cryptographically broken",
                        cwe=327)
            )
    return findings


def check_permissive_mode(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-732: chmod/open with a world-writable mode literal."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.IDENT or tok.text not in ("chmod", "open",
                                                           "umask", "mkdir"):
            continue
        window = tokens[i : i + 10]
        for w in window:
            if w.kind == TokenKind.NUMBER and w.text in ("0777", "0o777",
                                                         "777", "0666",
                                                         "0o666"):
                findings.append(
                    Finding(TOOL, "permissive-mode", source.path, tok.line,
                            Severity.MEDIUM,
                            f"{tok.text}() with world-writable mode {w.text}",
                            cwe=732)
                )
                break
    return findings


def check_swallowed_exception(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-390: catch/except block whose body is empty or only `pass`."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.KEYWORD or tok.text not in ("catch", "except"):
            continue
        # Find the block opener then check for an empty body.
        j = i + 1
        depth = 0
        while j < len(tokens) and tokens[j].text not in ("{", ":"):
            if tokens[j].text == "(":
                depth += 1
            elif tokens[j].text == ")":
                depth -= 1
            j += 1
        if j >= len(tokens):
            continue
        if tokens[j].text == "{":
            if j + 1 < len(tokens) and tokens[j + 1].text == "}":
                findings.append(
                    Finding(TOOL, "swallowed-exception", source.path, tok.line,
                            Severity.LOW, "empty catch block", cwe=390)
                )
        else:  # Python ':'
            if j + 1 < len(tokens) and tokens[j + 1].text == "pass":
                findings.append(
                    Finding(TOOL, "swallowed-exception", source.path, tok.line,
                            Severity.LOW, "except clause only passes", cwe=390)
                )
    return findings


def check_unsafe_deserialization(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-502: deserialising with pickle/yaml.load/readObject."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for i in range(len(tokens) - 2):
        tok = tokens[i]
        if tok.kind != TokenKind.IDENT:
            continue
        # module.load(...) style (pickle.loads, yaml.load, ...).
        if (
            tok.text in _DESERIAL_MODULES
            and tokens[i + 1].text == "."
            and tokens[i + 2].text in _DESERIAL_FUNCS
        ):
            if tok.text == "yaml" and "safe" in tokens[i + 2].text:
                continue
            findings.append(
                Finding(TOOL, "unsafe-deserialization", source.path, tok.line,
                        Severity.HIGH,
                        f"{tok.text}.{tokens[i + 2].text}() deserialises "
                        "untrusted data", cwe=502)
            )
        # Java readObject().
        if tok.text == "readObject" and tokens[i + 1].text == "(":
            findings.append(
                Finding(TOOL, "unsafe-deserialization", source.path, tok.line,
                        Severity.HIGH, "readObject() deserialises untrusted "
                        "data", cwe=502)
            )
    return findings


def check_insecure_tempfile(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-377: predictable temporary files (mktemp, tmpnam, /tmp paths)."""
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    for i, tok in enumerate(tokens):
        if tok.kind == TokenKind.IDENT and tok.text in ("mktemp", "tmpnam",
                                                        "tempnam"):
            if i + 1 < len(tokens) and tokens[i + 1].text == "(":
                findings.append(
                    Finding(TOOL, "insecure-tempfile", source.path, tok.line,
                            Severity.MEDIUM,
                            f"{tok.text}() creates a predictable temp path",
                            cwe=377)
                )
        if tok.kind == TokenKind.STRING and "/tmp/" in tok.text:
            findings.append(
                Finding(TOOL, "insecure-tempfile", source.path, tok.line,
                        Severity.LOW,
                        "hardcoded /tmp path invites symlink races", cwe=377)
            )
    return findings


def check_assert_validation(source: SourceFile, tokens=None) -> List[Finding]:
    """CWE-617: input validation via assert (stripped with -O)."""
    if source.spec.name != "python":
        return []
    findings = []
    if tokens is None:
        tokens = _code_tokens(source)
    input_names = {"request", "input", "arg", "args", "param", "params",
                   "data", "payload", "user"}
    for i, tok in enumerate(tokens):
        if tok.kind != TokenKind.KEYWORD or tok.text != "assert":
            continue
        window = {t.text.lower() for t in tokens[i + 1 : i + 8]
                  if t.kind == TokenKind.IDENT}
        if window & input_names:
            findings.append(
                Finding(TOOL, "assert-validation", source.path, tok.line,
                        Severity.MEDIUM,
                        "assert validates external input but vanishes "
                        "under -O", cwe=617)
            )
    return findings


GENERIC_CHECKERS = (
    check_hardcoded_secret,
    check_dynamic_eval,
    check_sql_concatenation,
    check_weak_crypto,
    check_permissive_mode,
    check_swallowed_exception,
    check_unsafe_deserialization,
    check_insecure_tempfile,
    check_assert_validation,
)


def generic_run(source: SourceFile) -> List[Finding]:
    """The reference twin of ``generic_checkers.run``: every checker's
    output, concatenated and sorted on ``(line, rule)``."""
    findings: List[Finding] = []
    for checker in GENERIC_CHECKERS:
        findings.extend(checker(source))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings

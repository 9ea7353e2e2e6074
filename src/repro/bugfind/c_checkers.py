"""Lint-style security checkers for C/C++ (after lint [17], MOPS [25]).

Each checker encodes one "safe programming practice" as a token-pattern
property, the way Chen & Wagner's MOPS encodes safety properties, and maps
its violations to the relevant CWE so the feature testbed can correlate
tool output with CWE-classified vulnerability history.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.artifact import artifact_for
from repro.bugfind.findings import Finding, Severity
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import TokenKind

TOOL = "clint"

#: Unbounded-copy routines -> stack/heap buffer overflow (CWE-121/120).
_UNBOUNDED_COPY: Dict[str, int] = {
    "gets": 242,
    "strcpy": 121,
    "strcat": 121,
    "sprintf": 121,
    "vsprintf": 121,
    "scanf": 120,
    "stpcpy": 121,
}

_FORMAT_FUNCS = frozenset(
    {"printf", "fprintf", "sprintf", "snprintf", "syslog", "vprintf"}
)

_ALLOC_FUNCS = frozenset({"malloc", "calloc", "realloc", "alloca"})

_EXEC_FUNCS = frozenset({"system", "popen", "execl", "execlp", "execv", "execvp"})

_SECURITY_IDENTS = frozenset({"key", "token", "nonce", "seed", "secret",
                              "session", "password", "salt"})

_RACE_PAIRS = (("access", "open"), ("stat", "open"), ("access", "fopen"),
               ("stat", "fopen"))


def check_unbounded_copy(source: SourceFile) -> List[Finding]:
    """CWE-121/120/242: use of inherently unbounded copy/input routines."""
    findings = []
    columns = source.columns
    texts, lines = columns.texts, columns.lines
    for i in artifact_for(source).call_sites:
        name = texts[i]
        cwe = _UNBOUNDED_COPY.get(name)
        if cwe is None:
            continue
        severity = Severity.CRITICAL if name == "gets" else Severity.HIGH
        findings.append(
            Finding(TOOL, f"unbounded-copy/{name}", source.path, lines[i],
                    severity, f"{name}() writes without a bound", cwe=cwe)
        )
    return findings


def check_format_string(source: SourceFile) -> List[Finding]:
    """CWE-134: format function whose format argument is not a literal."""
    findings = []
    columns = source.columns
    texts, lines = columns.texts, columns.lines
    for i in artifact_for(source).call_sites:
        name = texts[i]
        if name not in _FORMAT_FUNCS:
            continue
        fmt = _format_argument(texts, i, name)
        if fmt >= 0 and columns.kinds[fmt] is TokenKind.IDENT:
            findings.append(
                Finding(TOOL, "format-string", source.path, lines[i],
                        Severity.HIGH,
                        f"{name}() format argument {texts[fmt]!r} is not a literal",
                        cwe=134)
            )
    return findings


def _format_argument(texts: Sequence[str], call_idx: int, name: str) -> int:
    """Index of the token holding a format call's format argument, or -1."""
    # printf(fmt, ...): arg 0; fprintf(stream, fmt, ...): arg 1;
    # snprintf(buf, size, fmt, ...): arg 2; syslog(pri, fmt, ...): arg 1.
    position = {"printf": 0, "vprintf": 0, "sprintf": 1, "fprintf": 1,
                "syslog": 1, "snprintf": 2}[name]
    depth = 0
    arg = 0
    for j in range(call_idx + 1, len(texts)):
        text = texts[j]
        if text == "(":
            depth += 1
            continue
        if text == ")":
            depth -= 1
            if depth == 0:
                return -1
            continue
        if text == "," and depth == 1:
            arg += 1
            continue
        if depth >= 1 and arg == position:
            return j
    return -1


def check_unchecked_allocation(source: SourceFile) -> List[Finding]:
    """CWE-476: allocation result never compared against NULL.

    Flags ``p = malloc(...)`` when no ``p == NULL`` / ``!p`` / ``p != NULL``
    test appears within the rest of the same function-sized window.
    """
    findings = []
    columns = source.columns
    texts, lines = columns.texts, columns.lines
    for i in artifact_for(source).call_sites:
        if texts[i] not in _ALLOC_FUNCS:
            continue
        if i < 2 or texts[i - 1] != "=":
            continue
        if columns.kinds[i - 2] is not TokenKind.IDENT:
            continue
        var = texts[i - 2]
        window = texts[i : i + 400]
        checked = False
        for j in range(len(window) - 1):
            a, b = window[j], window[j + 1]
            if (a == var and b in ("==", "!=")) or (a == "!" and b == var):
                checked = True
                break
            if a in ("if", "while") and b == "(" and var in window[j : j + 6]:
                checked = True
                break
        if not checked:
            findings.append(
                Finding(TOOL, "unchecked-allocation", source.path, lines[i],
                        Severity.MEDIUM,
                        f"result of {texts[i]}() assigned to "
                        f"{var!r} but never NULL-checked", cwe=476)
            )
    return findings


def check_multiplication_in_alloc(source: SourceFile) -> List[Finding]:
    """CWE-190: unchecked multiplication inside an allocation size."""
    findings = []
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    for i in artifact_for(source).call_sites:
        if texts[i] not in ("malloc", "alloca", "realloc"):
            continue
        depth = 0
        for j in range(i + 1, len(texts)):
            text = texts[j]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif text == "*" and depth == 1 and texts[j - 1] != "(":
                # pointer deref `*p` has '(' or operator before it; size
                # multiplications sit between operands.
                if kinds[j - 1] in (TokenKind.IDENT, TokenKind.NUMBER):
                    findings.append(
                        Finding(TOOL, "alloc-size-overflow", source.path,
                                columns.lines[i], Severity.MEDIUM,
                                "multiplication in allocation size may "
                                "overflow", cwe=190)
                    )
                    break
    return findings


def check_command_injection(source: SourceFile) -> List[Finding]:
    """CWE-78: exec-family call with a non-literal command."""
    findings = []
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    for i in artifact_for(source).call_sites:
        if texts[i] not in _EXEC_FUNCS:
            continue
        if i + 2 < len(texts) and kinds[i + 2] is not TokenKind.STRING:
            findings.append(
                Finding(TOOL, "command-injection", source.path,
                        columns.lines[i], Severity.CRITICAL,
                        f"{texts[i]}() invoked with non-literal command",
                        cwe=78)
            )
    return findings


def check_toctou(source: SourceFile) -> List[Finding]:
    """CWE-367: check/use race — access()/stat() then open() on any path."""
    findings = []
    columns = source.columns
    texts = columns.texts
    calls = [(i, texts[i]) for i in artifact_for(source).call_sites]
    for (i, first), (j, second) in zip(calls, calls[1:]):
        if (first, second) in _RACE_PAIRS:
            findings.append(
                Finding(TOOL, "toctou", source.path, columns.lines[i],
                        Severity.MEDIUM,
                        f"{first}() followed by {second}() is a check/use race",
                        cwe=367)
            )
    return findings


def check_weak_random(source: SourceFile) -> List[Finding]:
    """CWE-338: rand()/random() used where unpredictability matters.

    A call site only counts when the file also names something
    security-relevant (a key, token, nonce, ...), case-insensitively.
    """
    columns = source.columns
    texts = columns.texts
    calls = [i for i in artifact_for(source).call_sites
             if texts[i] in ("rand", "random", "srand")]
    if not calls:
        return []
    ident = TokenKind.IDENT
    idents = {text.lower() for kind, text in zip(columns.kinds, texts)
              if kind is ident}
    if idents.isdisjoint(_SECURITY_IDENTS):
        return []
    return [
        Finding(TOOL, "weak-random", source.path, columns.lines[i],
                Severity.MEDIUM,
                f"{texts[i]}() is predictable; use a CSPRNG", cwe=338)
        for i in calls
    ]


C_CHECKERS = (
    check_unbounded_copy,
    check_format_string,
    check_unchecked_allocation,
    check_multiplication_in_alloc,
    check_command_injection,
    check_toctou,
    check_weak_random,
)


def run(source: SourceFile) -> List[Finding]:
    """Run every C/C++ checker over one file (no-op for other languages).

    The checkers share the file's code-token columns and its artifact's
    call-site index.
    """
    if source.spec.name not in ("c", "cpp"):
        return []
    findings: List[Finding] = []
    for checker in C_CHECKERS:
        findings.extend(checker(source))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings

"""Lint-style security checkers for C/C++ (after lint [17], MOPS [25]).

Each checker encodes one "safe programming practice" as a token-pattern
property, the way Chen & Wagner's MOPS encodes safety properties, and maps
its violations to the relevant CWE so the feature testbed can correlate
tool output with CWE-classified vulnerability history.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.artifact import artifact_for
from repro.bugfind.findings import Finding, Severity
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import Token, TokenKind

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
    tokens = source.code_tokens
    for i in artifact_for(source).call_sites:
        name = tokens[i].text
        cwe = _UNBOUNDED_COPY.get(name)
        if cwe is None:
            continue
        severity = Severity.CRITICAL if name == "gets" else Severity.HIGH
        findings.append(
            Finding(TOOL, f"unbounded-copy/{name}", source.path, tokens[i].line,
                    severity, f"{name}() writes without a bound", cwe=cwe)
        )
    return findings


def check_format_string(source: SourceFile) -> List[Finding]:
    """CWE-134: format function whose format argument is not a literal."""
    findings = []
    tokens = source.code_tokens
    for i in artifact_for(source).call_sites:
        name = tokens[i].text
        if name not in _FORMAT_FUNCS:
            continue
        fmt = _format_argument(tokens, i, name)
        if fmt is not None and fmt.kind == TokenKind.IDENT:
            findings.append(
                Finding(TOOL, "format-string", source.path, tokens[i].line,
                        Severity.HIGH,
                        f"{name}() format argument {fmt.text!r} is not a literal",
                        cwe=134)
            )
    return findings


def _format_argument(tokens: List[Token], call_idx: int, name: str) -> Optional[Token]:
    """The token holding the format argument of a format-function call."""
    # printf(fmt, ...): arg 0; fprintf(stream, fmt, ...): arg 1;
    # snprintf(buf, size, fmt, ...): arg 2; syslog(pri, fmt, ...): arg 1.
    position = {"printf": 0, "vprintf": 0, "sprintf": 1, "fprintf": 1,
                "syslog": 1, "snprintf": 2}[name]
    depth = 0
    arg = 0
    for j in range(call_idx + 1, len(tokens)):
        text = tokens[j].text
        if text == "(":
            depth += 1
            continue
        if text == ")":
            depth -= 1
            if depth == 0:
                return None
            continue
        if text == "," and depth == 1:
            arg += 1
            continue
        if depth >= 1 and arg == position:
            return tokens[j]
    return None


def check_unchecked_allocation(source: SourceFile) -> List[Finding]:
    """CWE-476: allocation result never compared against NULL.

    Flags ``p = malloc(...)`` when no ``p == NULL`` / ``!p`` / ``p != NULL``
    test appears within the rest of the same function-sized window.
    """
    findings = []
    tokens = source.code_tokens
    text_stream = [t.text for t in tokens]
    for i in artifact_for(source).call_sites:
        if tokens[i].text not in _ALLOC_FUNCS:
            continue
        if i < 2 or tokens[i - 1].text != "=":
            continue
        var = tokens[i - 2]
        if var.kind != TokenKind.IDENT:
            continue
        window = text_stream[i : i + 400]
        checked = False
        for j in range(len(window) - 1):
            a, b = window[j], window[j + 1]
            if (a == var.text and b in ("==", "!=")) or (a == "!" and b == var.text):
                checked = True
                break
            if a in ("if", "while") and b == "(" and var.text in window[j : j + 6]:
                checked = True
                break
        if not checked:
            findings.append(
                Finding(TOOL, "unchecked-allocation", source.path, tokens[i].line,
                        Severity.MEDIUM,
                        f"result of {tokens[i].text}() assigned to "
                        f"{var.text!r} but never NULL-checked", cwe=476)
            )
    return findings


def check_multiplication_in_alloc(source: SourceFile) -> List[Finding]:
    """CWE-190: unchecked multiplication inside an allocation size."""
    findings = []
    tokens = source.code_tokens
    for i in artifact_for(source).call_sites:
        if tokens[i].text not in ("malloc", "alloca", "realloc"):
            continue
        depth = 0
        for j in range(i + 1, len(tokens)):
            text = tokens[j].text
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif text == "*" and depth == 1 and tokens[j - 1].text != "(":
                # pointer deref `*p` has '(' or operator before it; size
                # multiplications sit between operands.
                if tokens[j - 1].kind in (TokenKind.IDENT, TokenKind.NUMBER):
                    findings.append(
                        Finding(TOOL, "alloc-size-overflow", source.path,
                                tokens[i].line, Severity.MEDIUM,
                                "multiplication in allocation size may "
                                "overflow", cwe=190)
                    )
                    break
    return findings


def check_command_injection(source: SourceFile) -> List[Finding]:
    """CWE-78: exec-family call with a non-literal command."""
    findings = []
    tokens = source.code_tokens
    for i in artifact_for(source).call_sites:
        if tokens[i].text not in _EXEC_FUNCS:
            continue
        nxt = tokens[i + 2] if i + 2 < len(tokens) else None
        if nxt is not None and nxt.kind != TokenKind.STRING:
            findings.append(
                Finding(TOOL, "command-injection", source.path, tokens[i].line,
                        Severity.CRITICAL,
                        f"{tokens[i].text}() invoked with non-literal command",
                        cwe=78)
            )
    return findings


def check_toctou(source: SourceFile) -> List[Finding]:
    """CWE-367: check/use race — access()/stat() then open() on any path."""
    findings = []
    tokens = source.code_tokens
    calls = [(i, tokens[i].text) for i in artifact_for(source).call_sites]
    for (i, first), (j, second) in zip(calls, calls[1:]):
        if (first, second) in _RACE_PAIRS:
            findings.append(
                Finding(TOOL, "toctou", source.path, tokens[i].line,
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
    tokens = source.code_tokens
    calls = [i for i in artifact_for(source).call_sites
             if tokens[i].text in ("rand", "random", "srand")]
    if not calls:
        return []
    idents = {t.text.lower() for t in tokens if t.kind == TokenKind.IDENT}
    if idents.isdisjoint(_SECURITY_IDENTS):
        return []
    return [
        Finding(TOOL, "weak-random", source.path, tokens[i].line,
                Severity.MEDIUM,
                f"{tokens[i].text}() is predictable; use a CSPRNG", cwe=338)
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

    The checkers share the file's code tokens and its artifact's
    call-site index.
    """
    if source.spec.name not in ("c", "cpp"):
        return []
    findings: List[Finding] = []
    for checker in C_CHECKERS:
        findings.extend(checker(source))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings

"""Language-generic security checkers (after PMD [11], FindBugs [40]).

These run on every language and encode cross-language "code smell meets
security" rules: hardcoded secrets, dynamic code evaluation, SQL string
building, weak cryptography, overly permissive file modes, and swallowed
exceptions.
"""

from __future__ import annotations

from typing import List

from repro.bugfind.findings import Finding, Severity
from repro.lang.sourcefile import SourceFile
from repro.lang.tokens import TokenKind

TOOL = "genlint"

_SECRET_NAMES = frozenset(
    {"password", "passwd", "pwd", "secret", "api_key", "apikey", "token",
     "private_key", "auth"}
)

_EVAL_FUNCS = frozenset({"eval", "exec", "execfile", "compile"})

_WEAK_CRYPTO = frozenset({"md5", "sha1", "des", "rc4", "ecb", "md4"})

_SQL_VERBS = ("select ", "insert ", "update ", "delete ", "drop ")

_DESERIAL_FUNCS = frozenset({"loads", "load", "readObject", "unserialize"})
_DESERIAL_MODULES = frozenset({"pickle", "marshal", "yaml", "shelve"})

_PERMISSIVE_CALLS = frozenset({"chmod", "open", "umask", "mkdir"})
_PERMISSIVE_MODES = frozenset({"0777", "0o777", "777", "0666", "0o666"})
_TEMPFILE_FUNCS = frozenset({"mktemp", "tmpnam", "tempnam"})
_ASSERT_INPUT_NAMES = frozenset(
    {"request", "input", "arg", "args", "param", "params", "data",
     "payload", "user"}
)


def run(source: SourceFile) -> List[Finding]:
    """Run every generic rule over one file, in one pass over its tokens.

    The rules are dispatched on token kind, so the file's code tokens are
    walked once for all nine. Findings come out sorted on
    ``(line, rule)``; within one rule they keep token order.
    """
    tokens = source.code_tokens
    n = len(tokens)
    is_python = source.spec.name == "python"
    path = source.path
    ident = TokenKind.IDENT
    string = TokenKind.STRING
    keyword = TokenKind.KEYWORD
    number = TokenKind.NUMBER
    findings: List[Finding] = []
    append = findings.append
    for i, tok in enumerate(tokens):
        kind = tok.kind
        if kind is ident:
            text = tok.text
            lowered = text.lower()
            if (lowered in _SECRET_NAMES and i < n - 2
                    and tokens[i + 1].text == "="):
                value = tokens[i + 2]
                if value.kind is string and len(value.text) > 4:
                    append(Finding(
                        TOOL, "hardcoded-secret", path, tok.line,
                        Severity.HIGH,
                        f"{text!r} assigned a literal secret", cwe=798))
            if (text in _EVAL_FUNCS and i < n - 2
                    and tokens[i + 1].text == "("
                    and tokens[i + 2].kind is not string):
                append(Finding(
                    TOOL, "dynamic-eval", path, tok.line,
                    Severity.CRITICAL,
                    f"{text}() evaluates a dynamic expression", cwe=95))
            if lowered in _WEAK_CRYPTO:
                append(Finding(
                    TOOL, "weak-crypto", path, tok.line, Severity.MEDIUM,
                    f"{lowered.upper()} is cryptographically broken",
                    cwe=327))
            if text in _PERMISSIVE_CALLS:
                for w in tokens[i:i + 10]:
                    if w.kind is number and w.text in _PERMISSIVE_MODES:
                        append(Finding(
                            TOOL, "permissive-mode", path, tok.line,
                            Severity.MEDIUM,
                            f"{text}() with world-writable mode {w.text}",
                            cwe=732))
                        break
            if i < n - 2:
                if (text in _DESERIAL_MODULES
                        and tokens[i + 1].text == "."
                        and tokens[i + 2].text in _DESERIAL_FUNCS
                        and not (text == "yaml"
                                 and "safe" in tokens[i + 2].text)):
                    append(Finding(
                        TOOL, "unsafe-deserialization", path, tok.line,
                        Severity.HIGH,
                        f"{text}.{tokens[i + 2].text}() deserialises "
                        "untrusted data", cwe=502))
                if text == "readObject" and tokens[i + 1].text == "(":
                    append(Finding(
                        TOOL, "unsafe-deserialization", path, tok.line,
                        Severity.HIGH,
                        "readObject() deserialises untrusted data",
                        cwe=502))
            if (text in _TEMPFILE_FUNCS and i + 1 < n
                    and tokens[i + 1].text == "("):
                append(Finding(
                    TOOL, "insecure-tempfile", path, tok.line,
                    Severity.MEDIUM,
                    f"{text}() creates a predictable temp path", cwe=377))
        elif kind is string:
            text = tok.text
            lowered = text.lower()
            if any(verb in lowered for verb in _SQL_VERBS):
                nxt = tokens[i + 1] if i + 1 < n else None
                after = tokens[i + 2] if i + 2 < n else None
                if (nxt is not None and nxt.text == "+"
                        and after is not None and after.kind is ident):
                    append(Finding(
                        TOOL, "sql-concatenation", path, tok.line,
                        Severity.HIGH,
                        "SQL statement built by string concatenation",
                        cwe=89))
            stripped = lowered.strip("\"'")
            if stripped in _WEAK_CRYPTO:
                append(Finding(
                    TOOL, "weak-crypto", path, tok.line, Severity.MEDIUM,
                    f"{stripped.upper()} is cryptographically broken",
                    cwe=327))
            if "/tmp/" in text:
                append(Finding(
                    TOOL, "insecure-tempfile", path, tok.line,
                    Severity.LOW,
                    "hardcoded /tmp path invites symlink races", cwe=377))
        elif kind is keyword:
            text = tok.text
            if text in ("catch", "except"):
                j = i + 1
                while j < n and tokens[j].text not in ("{", ":"):
                    j += 1
                if j < n:
                    if tokens[j].text == "{":
                        if j + 1 < n and tokens[j + 1].text == "}":
                            append(Finding(
                                TOOL, "swallowed-exception", path, tok.line,
                                Severity.LOW, "empty catch block", cwe=390))
                    elif j + 1 < n and tokens[j + 1].text == "pass":
                        append(Finding(
                            TOOL, "swallowed-exception", path, tok.line,
                            Severity.LOW, "except clause only passes",
                            cwe=390))
            elif is_python and text == "assert":
                window = {t.text.lower() for t in tokens[i + 1:i + 8]
                          if t.kind is ident}
                if window & _ASSERT_INPUT_NAMES:
                    append(Finding(
                        TOOL, "assert-validation", path, tok.line,
                        Severity.MEDIUM,
                        "assert validates external input but vanishes "
                        "under -O", cwe=617))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings

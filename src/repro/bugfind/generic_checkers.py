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
    columns = source.columns
    kinds, texts, lines = columns.kinds, columns.texts, columns.lines
    n = len(texts)
    is_python = source.spec.name == "python"
    path = source.path
    ident = TokenKind.IDENT
    string = TokenKind.STRING
    keyword = TokenKind.KEYWORD
    number = TokenKind.NUMBER
    findings: List[Finding] = []
    append = findings.append
    for i, (kind, text) in enumerate(zip(kinds, texts)):
        if kind is ident:
            lowered = text.lower()
            if (lowered in _SECRET_NAMES and i < n - 2
                    and texts[i + 1] == "="):
                if kinds[i + 2] is string and len(texts[i + 2]) > 4:
                    append(Finding(
                        TOOL, "hardcoded-secret", path, lines[i],
                        Severity.HIGH,
                        f"{text!r} assigned a literal secret", cwe=798))
            if (text in _EVAL_FUNCS and i < n - 2
                    and texts[i + 1] == "("
                    and kinds[i + 2] is not string):
                append(Finding(
                    TOOL, "dynamic-eval", path, lines[i],
                    Severity.CRITICAL,
                    f"{text}() evaluates a dynamic expression", cwe=95))
            if lowered in _WEAK_CRYPTO:
                append(Finding(
                    TOOL, "weak-crypto", path, lines[i], Severity.MEDIUM,
                    f"{lowered.upper()} is cryptographically broken",
                    cwe=327))
            if text in _PERMISSIVE_CALLS:
                for w in range(i, min(i + 10, n)):
                    if kinds[w] is number and texts[w] in _PERMISSIVE_MODES:
                        append(Finding(
                            TOOL, "permissive-mode", path, lines[i],
                            Severity.MEDIUM,
                            f"{text}() with world-writable mode {texts[w]}",
                            cwe=732))
                        break
            if i < n - 2:
                if (text in _DESERIAL_MODULES
                        and texts[i + 1] == "."
                        and texts[i + 2] in _DESERIAL_FUNCS
                        and not (text == "yaml"
                                 and "safe" in texts[i + 2])):
                    append(Finding(
                        TOOL, "unsafe-deserialization", path, lines[i],
                        Severity.HIGH,
                        f"{text}.{texts[i + 2]}() deserialises "
                        "untrusted data", cwe=502))
                if text == "readObject" and texts[i + 1] == "(":
                    append(Finding(
                        TOOL, "unsafe-deserialization", path, lines[i],
                        Severity.HIGH,
                        "readObject() deserialises untrusted data",
                        cwe=502))
            if (text in _TEMPFILE_FUNCS and i + 1 < n
                    and texts[i + 1] == "("):
                append(Finding(
                    TOOL, "insecure-tempfile", path, lines[i],
                    Severity.MEDIUM,
                    f"{text}() creates a predictable temp path", cwe=377))
        elif kind is string:
            lowered = text.lower()
            if any(verb in lowered for verb in _SQL_VERBS):
                if (i + 2 < n and texts[i + 1] == "+"
                        and kinds[i + 2] is ident):
                    append(Finding(
                        TOOL, "sql-concatenation", path, lines[i],
                        Severity.HIGH,
                        "SQL statement built by string concatenation",
                        cwe=89))
            stripped = lowered.strip("\"'")
            if stripped in _WEAK_CRYPTO:
                append(Finding(
                    TOOL, "weak-crypto", path, lines[i], Severity.MEDIUM,
                    f"{stripped.upper()} is cryptographically broken",
                    cwe=327))
            if "/tmp/" in text:
                append(Finding(
                    TOOL, "insecure-tempfile", path, lines[i],
                    Severity.LOW,
                    "hardcoded /tmp path invites symlink races", cwe=377))
        elif kind is keyword:
            if text in ("catch", "except"):
                j = i + 1
                while j < n and texts[j] not in ("{", ":"):
                    j += 1
                if j < n:
                    if texts[j] == "{":
                        if j + 1 < n and texts[j + 1] == "}":
                            append(Finding(
                                TOOL, "swallowed-exception", path, lines[i],
                                Severity.LOW, "empty catch block", cwe=390))
                    elif j + 1 < n and texts[j + 1] == "pass":
                        append(Finding(
                            TOOL, "swallowed-exception", path, lines[i],
                            Severity.LOW, "except clause only passes",
                            cwe=390))
            elif is_python and text == "assert":
                window = {texts[w].lower() for w in range(i + 1, min(i + 8, n))
                          if kinds[w] is ident}
                if window & _ASSERT_INPUT_NAMES:
                    append(Finding(
                        TOOL, "assert-validation", path, lines[i],
                        Severity.MEDIUM,
                        "assert validates external input but vanishes "
                        "under -O", cwe=617))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings

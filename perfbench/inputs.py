"""Seeded inputs for every workload.

Everything here is a pure function of the seed: the same seed gives the
same corpus order, warm tree, edit series and request schedule. The
program under test only ever sees the generated trees, rows and
requests.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: Warm-edit edit kinds, in the order a shuffled block draws from.
EDIT_KINDS = ("comment", "statement", "function")

#: Serve-mix endpoints and how many of each one mix cycle holds.
CYCLE_MIX = (("predict", 7), ("analyze", 2), ("gate", 1))

_INT_LITERAL = re.compile(r"(?<![\w.])(\d+)(?![\w.])")
_COMMENT_START = ("//", "/*", "*", "#")


def line_count(text: str) -> int:
    """Physical lines, the unit kLoC figures are quoted in."""
    return text.count("\n") + (0 if text.endswith("\n") or not text else 1)


def stratified_pick(items: Sequence, size_of, count: int,
                    rng: random.Random) -> List:
    """Pick ``count`` items, one from each of ``count`` size strata.

    Sorting by size and drawing one item per contiguous stratum keeps
    the total size of the pick close to the same for every seed, so the
    seed varies which inputs run, not how much work they are.
    """
    ordered = sorted(items, key=lambda item: (size_of(item), item.name))
    picks = []
    for stratum in range(count):
        lo = stratum * len(ordered) // count
        hi = max(lo + 1, (stratum + 1) * len(ordered) // count)
        picks.append(ordered[rng.randrange(lo, hi)])
    return picks


def app_lines(app) -> int:
    return sum(line_count(source.text) for source in app.codebase.files)


def shuffled_apps(apps: Sequence, seed: int) -> List:
    """The corpus in a seeded order, so any prefix mixes languages."""
    order = sorted(apps, key=lambda app: app.name)
    random.Random(f"{seed}:cold-order").shuffle(order)
    return order


def warm_tree_apps(apps: Sequence, seed: int, count: int) -> List:
    return stratified_pick(apps, app_lines, count,
                           random.Random(f"{seed}:warm-tree"))


def prefixed_sources(apps: Sequence) -> Dict[str, str]:
    """One tree holding every app under its own ``<app>/`` prefix."""
    sources: Dict[str, str] = {}
    for app in apps:
        for source in app.codebase.files:
            sources[f"{app.name}/{source.path}"] = source.text
    return sources


# -- warm-edit edits ------------------------------------------------------


@dataclass(frozen=True)
class Edit:
    """One single-file edit: which file, which kind, the new text."""

    index: int
    kind: str  # what the edit set out to do
    realised: str  # what it did ("comment" when no site fitted)
    path: str
    text: str


def _is_code_line(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith(_COMMENT_START)


def _indent(line: str) -> str:
    return line[:len(line) - len(line.lstrip())]


def _comment_edit(lines: List[str], language: str, index: int,
                  rng: random.Random) -> List[str]:
    at = rng.randrange(len(lines) + 1)
    comment = (f"# edit {index}: reviewed" if language == "python"
               else f"/* edit {index}: reviewed */")
    return lines[:at] + [comment] + lines[at:]


def _statement_edit(lines: List[str], language: str, index: int,
                    rng: random.Random):
    """Change one integer literal in an indented statement line."""
    sites = [pos for pos, line in enumerate(lines)
             if line[:1] in (" ", "\t") and _is_code_line(line)
             and _INT_LITERAL.search(line)]
    if not sites:
        return None
    pos = rng.choice(sites)
    line = lines[pos]
    match = _INT_LITERAL.search(line)
    value = int(match.group(1)) + 1 + index % 7
    edited = line[:match.start(1)] + str(value) + line[match.end(1):]
    return lines[:pos] + [edited] + lines[pos + 1:]


def _function_edit(lines: List[str], language: str, index: int,
                   rng: random.Random):
    """Append a small function (a method, inside the class, for Java)."""
    bound = 3 + rng.randrange(40)
    name = f"bench_added_{index}"
    if language == "python":
        body = [f"def {name}(value):",
                f"    if value > {bound}:",
                f"        return value - {bound}",
                f"    return value + {bound}"]
        return lines + [""] + body
    body = [f"int {name}(int value) {{",
            f"    if (value > {bound}) {{",
            f"        return value - {bound};",
            "    }",
            f"    return value + {bound};",
            "}"]
    if language == "java":
        closers = [pos for pos, line in enumerate(lines)
                   if line.strip() == "}"]
        if not closers:
            return None
        at = closers[-1]
        method = ["    public static " + body[0]] + \
            ["    " + line for line in body[1:]]
        return lines[:at] + method + lines[at:]
    return lines + [""] + ["static " + body[0]] + body[1:]


_EDITORS = {
    "comment": _comment_edit,
    "statement": _statement_edit,
    "function": _function_edit,
}


def apply_edit(text: str, language: str, kind: str, index: int,
               rng: random.Random) -> Tuple[str, str]:
    """(new text, realised kind) for one edit of ``text``."""
    lines = text.split("\n")
    trailing = lines and lines[-1] == ""
    if trailing:
        lines = lines[:-1]
    edited = _EDITORS[kind](lines, language, index, rng)
    realised = kind
    if edited is None:
        edited = _comment_edit(lines, language, index, rng)
        realised = "comment"
    return "\n".join(edited) + ("\n" if trailing else ""), realised


def edit_series(sources: Dict[str, str], languages: Dict[str, str],
                seed: int) -> Iterator[Edit]:
    """An endless seeded series of cumulative single-file edits.

    Kinds come in shuffled blocks of one of each, so every prefix of
    the series holds the kinds in near-equal shares. ``sources`` is not
    modified; each edit applies to the text the previous edits left.
    """
    current = dict(sources)
    paths = sorted(current)
    rng = random.Random(f"{seed}:warm-edits")
    index = 0
    while True:
        block = list(EDIT_KINDS)
        rng.shuffle(block)
        for kind in block:
            path = rng.choice(paths)
            text, realised = apply_edit(current[path], languages[path],
                                        kind, index, rng)
            current[path] = text
            yield Edit(index=index, kind=kind, realised=realised,
                       path=path, text=text)
            index += 1


# -- serve-mix schedule ---------------------------------------------------


@dataclass(frozen=True)
class Request:
    endpoint: str
    target: int  # index into that endpoint's inputs


def mix_cycles(seed: int, connection: int, targets: Dict[str, int]
               ) -> Iterator[List[Request]]:
    """Endless seeded request cycles for one client.

    Each cycle holds exactly the ``CYCLE_MIX`` counts in a shuffled
    order; ``targets`` gives how many inputs each endpoint draws from.
    """
    rng = random.Random(f"{seed}:serve:{connection}")
    while True:
        endpoints = [name for name, count in CYCLE_MIX
                     for _ in range(count)]
        rng.shuffle(endpoints)
        yield [Request(endpoint, rng.randrange(targets[endpoint]))
               for endpoint in endpoints]

"""Object-oriented design-security metrics (Alshammari et al. [16]).

§3.2 discusses "security metrics for object-oriented class designs [that]
measure accessibility of objects … interactions among classes". These are
the implementable core of that family on recovered class structure:

- class counts and method distribution;
- *accessibility*: how much of a class's surface (methods, fields) is
  public — Alshammari's central quantity;
- *coupling*: calls from one class's methods to another class's methods
  (CBO-style, name-resolved);
- inheritance depth (deep hierarchies widen the accessible surface).

C code yields zeros throughout (no classes), which is itself a signal
the model can use.

Like the call graph, the metrics are a fold over per-file *facts*
(:func:`file_facts`), so the feature merge computes them from cached
per-file records without re-reading any file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.artifact import artifact_for
from repro.lang.parser import ClassInfo
from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import TokenKind

_JAVA_FIELD_RE = re.compile(
    r"^\s*(public|private|protected)\s+(?:static\s+|final\s+)*"
    r"[A-Za-z_][\w<>\[\]]*\s+([A-Za-z_]\w*)\s*[;=]",
    re.MULTILINE,
)


@dataclass(frozen=True)
class ClassDesignMetrics:
    """Codebase-level OO design-security summary."""

    n_classes: int
    mean_methods_per_class: float
    max_methods_per_class: int
    public_method_fraction: float
    public_field_fraction: float  # Java fields / Python public attributes
    mean_coupling: float  # cross-class call edges per class
    max_coupling: int
    max_inheritance_depth: int

    @property
    def accessibility(self) -> float:
        """Alshammari-style accessibility: public share of the surface."""
        return (self.public_method_fraction + self.public_field_fraction) / 2.0


def _inheritance_edges(source: SourceFile) -> Dict[str, str]:
    """Child-class -> parent-class edges recovered from headers."""
    edges: Dict[str, str] = {}
    if "class" not in source.text:
        return edges  # no `class` keyword token (most C files)
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    n = len(texts)
    keyword, ident = TokenKind.KEYWORD, TokenKind.IDENT
    for i in range(n):
        if kinds[i] is not keyword or texts[i] != "class":
            continue
        if i + 1 >= n or kinds[i + 1] is not ident:
            continue
        child = texts[i + 1]
        # Java: class A extends B | Python: class A(B) | C++: class A : B
        j = i + 2
        while j < n and texts[j] not in ("{", ":", "(", ";"):
            if texts[j] == "extends" and j + 1 < n:
                edges[child] = texts[j + 1]
                break
            j += 1
        if child in edges or j >= n:
            continue
        # Python bases sit in parens (the header colon opens the block);
        # C++ bases follow a colon (after access specifiers).
        opener = "(" if source.spec.name == "python" else ":"
        if texts[j] == opener and source.spec.name in ("python", "cpp"):
            k = j + 1
            while k < n and kinds[k] is keyword:
                k += 1
            if k < n and kinds[k] is ident:
                edges[child] = texts[k]
    return edges


def _depth(edges: Dict[str, str], cls: str) -> int:
    depth = 0
    seen = {cls}
    while cls in edges:
        cls = edges[cls]
        if cls in seen:  # defensive: cyclic header noise
            break
        seen.add(cls)
        depth += 1
    return depth


def _field_visibility(source: SourceFile, cls: ClassInfo) -> Tuple[int, int]:
    """(public fields, total visibility-annotated fields) for one class."""
    if source.spec.name == "java":
        body = "\n".join(
            source.lines[cls.start_line - 1 : cls.end_line]
        )
        public = total = 0
        for match in _JAVA_FIELD_RE.finditer(body):
            total += 1
            if match.group(1) == "public":
                public += 1
        return public, total
    if source.spec.name == "python":
        # Attributes assigned as self.<name> inside methods.
        names: Set[str] = set()
        columns = source.columns
        kinds, texts = columns.kinds, columns.texts
        ident = TokenKind.IDENT
        for method in cls.methods:
            end = method.body_end
            for i in range(method.body_start, end - 2):
                if (
                    texts[i] == "self"
                    and texts[i + 1] == "."
                    and kinds[i + 2] is ident
                ):
                    # self.name( is a method call, not a field.
                    if i + 3 < end and texts[i + 3] == "(":
                        continue
                    names.add(texts[i + 2])
        if not names:
            return 0, 0
        public = sum(1 for n in names if not n.startswith("_"))
        return public, len(names)
    return 0, 0


def _call_names(source: SourceFile, cls: ClassInfo) -> List[str]:
    """Sorted names called anywhere in ``cls``'s methods (coupling input)."""
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    ident = TokenKind.IDENT
    names: Set[str] = set()
    for method in cls.methods:
        for i in range(method.body_start, method.body_end - 1):
            if kinds[i] is ident and texts[i + 1] == "(":
                names.add(texts[i])
    return sorted(names)


def file_facts(source: SourceFile) -> Dict[str, list]:
    """The OO facts of one file's class table, as plain JSON.

    ``classes`` holds one ``[name, [[method, public], ...], public_fields,
    fields, call_names]`` entry per class, in table order (``public`` is
    0/1; ``call_names`` feeds coupling). ``inheritance`` holds the file's
    child -> parent header edges as ordered ``[child, parent]`` pairs.
    """
    facts = []
    for cls in artifact_for(source).classes:
        public_fields, fields = _field_visibility(source, cls)
        facts.append([
            cls.name,
            [[m.name, 1 if m.is_public else 0] for m in cls.methods],
            public_fields,
            fields,
            _call_names(source, cls),
        ])
    return {
        "classes": facts,
        "inheritance": [
            [child, parent] for child, parent
            in _inheritance_edges(source).items()
        ],
    }


def metrics_from_facts(files: Iterable[Dict[str, list]]) -> ClassDesignMetrics:
    """Fold per-file :func:`file_facts`, in path order, into the metrics.

    A method name belongs to the first class that defines it; a later
    file's inheritance edge for the same child replaces an earlier one.
    """
    all_classes: List[list] = []
    inheritance: Dict[str, str] = {}
    method_owner: Dict[str, str] = {}
    for facts in files:
        for cls in facts["classes"]:
            all_classes.append(cls)
            for method, _public in cls[1]:
                method_owner.setdefault(method, cls[0])
        inheritance.update(facts["inheritance"])

    if not all_classes:
        return ClassDesignMetrics(0, 0.0, 0, 0.0, 0.0, 0.0, 0, 0)

    methods_per_class: List[int] = []
    couplings: List[int] = []
    depths: List[int] = []
    public_methods = public_fields = total_fields = 0
    for name, methods, public, fields, calls in all_classes:
        methods_per_class.append(len(methods))
        public_methods += sum(flag for _, flag in methods)
        public_fields += public
        total_fields += fields
        # Coupling: distinct other classes owning a method this one calls.
        couplings.append(len({method_owner.get(c) for c in calls}
                             - {None, name}))
        depths.append(_depth(inheritance, name))
    total_methods = sum(methods_per_class)

    return ClassDesignMetrics(
        n_classes=len(all_classes),
        mean_methods_per_class=total_methods / len(all_classes),
        max_methods_per_class=max(methods_per_class),
        public_method_fraction=(
            public_methods / total_methods if total_methods else 0.0
        ),
        public_field_fraction=(
            public_fields / total_fields if total_fields else 0.0
        ),
        mean_coupling=sum(couplings) / len(couplings),
        max_coupling=max(couplings),
        max_inheritance_depth=max(depths, default=0),
    )


def measure_codebase(codebase: Codebase) -> ClassDesignMetrics:
    """Compute OO design metrics over every class in ``codebase``."""
    return metrics_from_facts(file_facts(source) for source in codebase)

"""Function- and declaration-level metrics.

These are the "most basic properties of code files" that Shin et al. [61]
found predictive of vulnerable files, which the paper builds on (§4):
number of functions, number of declarations, number of input arguments,
function lengths, nesting depth, and variable counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.artifact import artifact_for
from repro.lang.parser import FunctionInfo
from repro.lang.sourcefile import Codebase, SourceFile
from repro.lang.tokens import TokenKind

_C_TYPE_KEYWORDS = frozenset(
    {"int", "char", "float", "double", "long", "short", "unsigned", "signed",
     "void", "bool", "_Bool", "struct", "union", "enum", "const", "static",
     "auto", "register", "volatile"}
)
_JAVA_TYPE_KEYWORDS = frozenset(
    {"int", "char", "float", "double", "long", "short", "boolean", "byte",
     "final", "static", "var"}
)
_PY_DECL_KEYWORDS = frozenset({"def", "class", "lambda", "global", "nonlocal"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                         "<<=", ">>=", ":="})


@dataclass(frozen=True)
class FunctionMetrics:
    """Aggregated function-shape metrics for a file or codebase."""

    n_functions: int
    n_public_functions: int
    total_params: int
    max_params: int
    mean_length: float
    max_length: int
    mean_nesting: float
    max_nesting: int
    n_declarations: int
    n_variables: int

    @property
    def mean_params(self) -> float:
        """Average parameter count per function."""
        return self.total_params / self.n_functions if self.n_functions else 0.0


def count_declarations(source: SourceFile) -> int:
    """Approximate declaration count for a file.

    For C-family/Java: a type keyword followed by an identifier. For
    Python: def/class/lambda/global/nonlocal plus first-bindings via ``=``
    are approximated by counting def/class/lambda statements.
    """
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    keyword = TokenKind.KEYWORD
    if source.spec.name == "python":
        return sum(1 for kind, text in zip(kinds, texts)
                   if kind is keyword and text in _PY_DECL_KEYWORDS)
    type_kw = _JAVA_TYPE_KEYWORDS if source.spec.name == "java" else _C_TYPE_KEYWORDS
    ident = TokenKind.IDENT
    return sum(1 for kind, text, nxt in zip(kinds, texts, kinds[1:])
               if kind is keyword and text in type_kw and nxt is ident)


def count_variables(source: SourceFile) -> int:
    """Number of distinct identifiers assigned anywhere in the file.

    Counts identifiers immediately followed by an assignment operator
    (including compound assignments); a cheap but language-agnostic proxy
    for variable count.
    """
    columns = source.columns
    kinds, texts = columns.kinds, columns.texts
    n = len(texts)
    ident = TokenKind.IDENT
    operator = TokenKind.OPERATOR
    assigned = set()
    for i in range(n - 1):
        if kinds[i] is not ident or kinds[i + 1] is not operator:
            continue
        nxt = texts[i + 1]
        if nxt in _ASSIGN_OPS:
            # `a == b` is a comparison, not an assignment.
            if nxt == "=" and i + 2 < n and texts[i + 2] == "=":
                continue
            assigned.add(texts[i])
    return len(assigned)


def measure_file(source: SourceFile) -> FunctionMetrics:
    """Function-shape metrics for one file."""
    return _aggregate(artifact_for(source).functions, [source])


def measure_codebase(codebase: Codebase) -> FunctionMetrics:
    """Function-shape metrics aggregated over a codebase."""
    functions: List[FunctionInfo] = []
    for source in codebase:
        functions.extend(artifact_for(source).functions)
    return _aggregate(functions, list(codebase))


def _aggregate(functions: List[FunctionInfo], sources: List[SourceFile]) -> FunctionMetrics:
    n = len(functions)
    lengths = [f.length for f in functions]
    nestings = [f.max_nesting for f in functions]
    params = [f.param_count for f in functions]
    return FunctionMetrics(
        n_functions=n,
        n_public_functions=sum(1 for f in functions if f.is_public),
        total_params=sum(params),
        max_params=max(params, default=0),
        mean_length=sum(lengths) / n if n else 0.0,
        max_length=max(lengths, default=0),
        mean_nesting=sum(nestings) / n if n else 0.0,
        max_nesting=max(nestings, default=0),
        n_declarations=sum(count_declarations(s) for s in sources),
        n_variables=sum(count_variables(s) for s in sources),
    )


def function_table(codebase: Codebase) -> Dict[str, List[FunctionInfo]]:
    """Map each file path to its recovered functions (testbed helper)."""
    return {source.path: artifact_for(source).functions for source in codebase}

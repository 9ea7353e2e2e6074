"""Static-analysis substrate: every code-property extractor the testbed runs.

Modules:

- :mod:`repro.analysis.loc` — cloc-equivalent line counting
- :mod:`repro.analysis.cyclomatic` — McCabe complexity
- :mod:`repro.analysis.halstead` — Halstead software-science measures
- :mod:`repro.analysis.functions` — function/declaration/variable shape
- :mod:`repro.analysis.cfg` — basic-block control-flow graphs
- :mod:`repro.analysis.dataflow` — reaching definitions, def-use, taint
- :mod:`repro.analysis.callgraph` — whole-codebase call graphs
- :mod:`repro.analysis.smells` — code-smell counts
- :mod:`repro.analysis.churn` — commit history, churn, developer activity
- :mod:`repro.analysis.artifact` — the shared single-parse FileArtifact
"""

from repro.analysis import (
    artifact,
    callgraph,
    cfg,
    churn,
    cyclomatic,
    dataflow,
    dynamic,
    functions,
    halstead,
    identifiers,
    loc,
    maintainability,
    oo,
    smells,
)
from repro.analysis.artifact import FileArtifact, artifact_for
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.churn import Commit, CommitHistory, FileDelta
from repro.analysis.cyclomatic import codebase_complexity, file_complexity
from repro.analysis.halstead import HalsteadMetrics
from repro.analysis.loc import LineCounts, count_codebase, count_file, kloc
from repro.analysis.smells import smell_counts

__all__ = [
    "CFG",
    "FileArtifact",
    "Commit",
    "CommitHistory",
    "FileDelta",
    "HalsteadMetrics",
    "LineCounts",
    "artifact",
    "artifact_for",
    "build_cfg",
    "callgraph",
    "cfg",
    "churn",
    "codebase_complexity",
    "count_codebase",
    "count_file",
    "cyclomatic",
    "dataflow",
    "dynamic",
    "file_complexity",
    "functions",
    "halstead",
    "identifiers",
    "kloc",
    "loc",
    "maintainability",
    "oo",
    "smell_counts",
    "smells",
]

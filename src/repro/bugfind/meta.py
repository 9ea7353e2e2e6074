"""Meta-tool that combines bug-finding tools (after Rutar et al. [59]).

Rutar et al. compared Java bug finders and built a meta-tool over their
union; Zeng [69] used machine learning to combine three of them. This
module runs every registered tool over a codebase, deduplicates findings
that point at the same defect, and summarises per-tool/per-rule/per-CWE
counts in the exact shape the feature testbed consumes (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro import obs
from repro.bugfind import c_checkers, generic_checkers, lifecycle_checkers
from repro.bugfind.findings import Finding, Severity
from repro.lang.sourcefile import Codebase, SourceFile

#: The registered tools, by name. Each maps a file to findings, reading
#: the file's shared views (``SourceFile.columns``, ``artifact_for``).
TOOLS: Dict[str, Callable[..., List[Finding]]] = {
    c_checkers.TOOL: c_checkers.run,
    generic_checkers.TOOL: generic_checkers.run,
    lifecycle_checkers.TOOL: lifecycle_checkers.run,
}


@dataclass(frozen=True)
class MetaReport:
    """Combined multi-tool report over one codebase."""

    findings: Tuple[Finding, ...]
    per_tool: Dict[str, int]
    per_rule: Dict[str, int]
    per_cwe: Dict[int, int]
    per_severity: Dict[Severity, int]
    duplicates_removed: int

    @property
    def total(self) -> int:
        return len(self.findings)

    def count_at_least(self, severity: Severity) -> int:
        """Findings at or above ``severity``."""
        return sum(1 for f in self.findings if f.severity >= severity)


def run_all(codebase: Codebase) -> MetaReport:
    """Run every registered tool over ``codebase`` and merge the output.

    Findings with the same deduplication key (path, line, CWE-or-rule) are
    collapsed to the most severe instance, mirroring Rutar's observation
    that tools overlap heavily on real defects.

    Each tool runs under a ``bugfind.<tool>`` tracing span. The tool-major
    loop order is equivalent to a file-major one for deduplication: the
    key pins (path, line), so candidates for any key still arrive in
    registry order for that file.
    """
    raw: List[Finding] = []
    with obs.span("bugfind.run_all", files=len(codebase)):
        for name, tool in TOOLS.items():
            with obs.span(f"bugfind.{name}"):
                for source in codebase:
                    raw.extend(tool(source))

    findings = tuple(
        sorted(_dedupe(raw), key=lambda f: (f.path, f.line, f.rule))
    )
    obs.incr("bugfind.findings", len(findings))
    obs.incr("bugfind.duplicates_removed", len(raw) - len(findings))

    per_tool: Dict[str, int] = {name: 0 for name in TOOLS}
    per_rule: Dict[str, int] = {}
    per_cwe: Dict[int, int] = {}
    per_severity: Dict[Severity, int] = {s: 0 for s in Severity}
    for finding in findings:
        per_tool[finding.tool] = per_tool.get(finding.tool, 0) + 1
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
        if finding.cwe:
            per_cwe[finding.cwe] = per_cwe.get(finding.cwe, 0) + 1
        per_severity[finding.severity] += 1

    return MetaReport(
        findings=findings,
        per_tool=per_tool,
        per_rule=per_rule,
        per_cwe=per_cwe,
        per_severity=per_severity,
        duplicates_removed=len(raw) - len(findings),
    )


def _dedupe(raw: List[Finding]) -> List[Finding]:
    """One finding per deduplication key, the most severe of its group.

    Groups keep the order their first member arrived in; within a group
    the first of the most severe findings wins.
    """
    merged: Dict[tuple, Finding] = {}
    for finding in raw:
        key = finding.key()
        existing = merged.get(key)
        if existing is None or finding.severity > existing.severity:
            merged[key] = finding
    return list(merged.values())


def file_summary(source: SourceFile) -> Dict[str, object]:
    """All-integer bug-finding summary for one file (JSON-ready).

    The feature testbed only consumes order-independent aggregates of a
    :class:`MetaReport` — totals, severity tallies, per-rule and per-CWE
    counts — and the deduplication key pins ``(path, line)``, so global
    dedup partitions exactly by file. That makes this per-file summary
    mergeable: summing the dicts over all files reproduces the numbers
    :func:`run_all` computes over the whole tree. Deliberately span- and
    counter-free; the extraction layer owns instrumentation. CWE and
    severity keys are stored as strings so the record round-trips
    through JSON unchanged.
    """
    raw: List[Finding] = []
    for tool in TOOLS.values():
        raw.extend(tool(source))
    merged = _dedupe(raw)
    per_rule: Dict[str, int] = {}
    per_cwe: Dict[str, int] = {}
    severities: Dict[str, int] = {}
    for finding in merged:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
        if finding.cwe:
            cwe = str(finding.cwe)
            per_cwe[cwe] = per_cwe.get(cwe, 0) + 1
        sev = str(int(finding.severity))
        severities[sev] = severities.get(sev, 0) + 1
    return {
        "total": len(merged),
        "severities": severities,
        "per_rule": per_rule,
        "per_cwe": per_cwe,
        "duplicates_removed": len(raw) - len(merged),
    }

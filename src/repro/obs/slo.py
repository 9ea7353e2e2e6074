"""SLO engine: declarative service-level rules over metric snapshots.

A rule set is loaded from TOML (Python ≥ 3.11, via :mod:`tomllib`) or
JSON and evaluated against any registry snapshot — the live one behind
``GET /metricz`` (the daemon folds the verdict into ``/healthz`` as
``ok``/``degraded``) or one replayed offline from a telemetry stream
(``repro slo-check``, which exits non-zero naming the breached rules).
One rule language, two evaluation sites, so what CI gates on is exactly
what the daemon reports.

Rule kinds (the config's ``kind`` key):

- ``latency`` — a percentile of a histogram must stay at or under
  ``max_seconds``. Keys: ``histogram``, ``stat`` (``p50``/``p95``/
  ``p99``/``max``/``mean``, default ``p99``), ``max_seconds``.
- ``ratio_max`` — ``numerator / sum(denominator)`` must stay at or
  under ``max_ratio`` (shed rate, task-failure rate). Keys:
  ``numerator``, ``denominator`` (counter name or list summed),
  ``max_ratio``.
- ``ratio_min`` — the same ratio must stay at or above ``min_ratio``
  (cache hit rate). Keys as above plus ``min_ratio``.
- ``counter_max`` — a counter total must stay at or under
  ``max_value``. Keys: ``counter``, ``max_value``.

A rule whose inputs carry no samples (empty histogram, zero
denominator) evaluates to *ok* — "no traffic" is not a breach.

Config shape (TOML shown; the JSON equivalent is ``{"slo": [{…}]}``)::

    [[slo]]
    name = "predict-p99"
    kind = "latency"
    histogram = "serve.predict.seconds"
    stat = "p99"
    max_seconds = 0.5

    [[slo]]
    name = "shed-rate"
    kind = "ratio_max"
    numerator = "serve.aio.shed"
    denominator = "serve.requests"
    max_ratio = 0.01
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Rule kinds this engine understands, in documentation order.
RULE_KINDS = ("latency", "ratio_max", "ratio_min", "counter_max")

#: Histogram statistics a ``latency`` rule may pin.
LATENCY_STATS = ("p50", "p95", "p99", "max", "mean")


class SloConfigError(ValueError):
    """The rule file is unreadable, unparsable, or malformed."""


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level rule (validated at load time)."""

    name: str
    kind: str
    histogram: str = ""
    stat: str = "p99"
    max_seconds: float = 0.0
    numerator: str = ""
    denominator: Tuple[str, ...] = ()
    max_ratio: float = 0.0
    min_ratio: float = 0.0
    counter: str = ""
    max_value: float = 0.0

    def describe(self) -> str:
        """The rule's bound, in the unit the rule measures."""
        if self.kind == "latency":
            return (f"{self.histogram}.{self.stat} "
                    f"<= {self.max_seconds:g}s")
        ratio = f"{self.numerator}/{'+'.join(self.denominator)}"
        if self.kind == "ratio_max":
            return f"{ratio} <= {self.max_ratio:g}"
        if self.kind == "ratio_min":
            return f"{ratio} >= {self.min_ratio:g}"
        return f"{self.counter} <= {self.max_value:g}"


@dataclass(frozen=True)
class SloResult:
    """One rule's verdict against one snapshot."""

    rule: SloRule
    ok: bool
    value: Optional[float]  # None when the rule had no samples
    detail: str

    def describe(self) -> str:
        status = "ok" if self.ok else "BREACH"
        return (f"[{status:6s}] {self.rule.name}: {self.rule.describe()}"
                f" — {self.detail}")


@dataclass
class SloReport:
    """Every rule's verdict; the daemon and ``slo-check`` both render it."""

    results: List[SloResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def breached(self) -> List[str]:
        """Names of the rules that failed, in rule order."""
        return [r.rule.name for r in self.results if not r.ok]

    def describe(self) -> str:
        if not self.results:
            return "slo: no rules loaded"
        lines = [result.describe() for result in self.results]
        verdict = ("ok" if self.ok
                   else f"DEGRADED — breached: {', '.join(self.breached)}")
        lines.append(f"slo: {verdict} ({len(self.results)} rule(s))")
        return "\n".join(lines)


# -- loading ----------------------------------------------------------


def _require(doc: Dict, key: str, kinds, where: str):
    if key not in doc:
        raise SloConfigError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SloConfigError(
            f"{where}: {key!r} has the wrong type ({type(value).__name__})")
    return value


def _parse_rule(doc: Dict, where: str) -> SloRule:
    if not isinstance(doc, dict):
        raise SloConfigError(f"{where}: rule must be a table/object")
    name = _require(doc, "name", str, where)
    kind = _require(doc, "kind", str, where)
    if kind not in RULE_KINDS:
        raise SloConfigError(
            f"{where}: unknown kind {kind!r} (expected one of {RULE_KINDS})")
    where = f"{where} ({name})"
    if kind == "latency":
        stat = doc.get("stat", "p99")
        if stat not in LATENCY_STATS:
            raise SloConfigError(
                f"{where}: stat must be one of {LATENCY_STATS}, got {stat!r}")
        return SloRule(
            name=name, kind=kind,
            histogram=_require(doc, "histogram", str, where),
            stat=stat,
            max_seconds=float(
                _require(doc, "max_seconds", (int, float), where)),
        )
    if kind in ("ratio_max", "ratio_min"):
        denominator = _require(doc, "denominator", (str, list), where)
        if isinstance(denominator, str):
            denominator = [denominator]
        if not denominator or any(not isinstance(d, str)
                                  for d in denominator):
            raise SloConfigError(
                f"{where}: denominator must be a counter name or a "
                f"non-empty list of counter names")
        bound_key = "max_ratio" if kind == "ratio_max" else "min_ratio"
        bound = float(_require(doc, bound_key, (int, float), where))
        return SloRule(
            name=name, kind=kind,
            numerator=_require(doc, "numerator", str, where),
            denominator=tuple(denominator),
            max_ratio=bound if kind == "ratio_max" else 0.0,
            min_ratio=bound if kind == "ratio_min" else 0.0,
        )
    return SloRule(
        name=name, kind=kind,
        counter=_require(doc, "counter", str, where),
        max_value=float(_require(doc, "max_value", (int, float), where)),
    )


def load_slo_rules(path: str) -> List[SloRule]:
    """Parse a TOML or JSON rule file into validated rules.

    Format is picked by extension: ``.toml`` goes through
    :mod:`tomllib` (stdlib from Python 3.11; on 3.10 a clear
    :class:`SloConfigError` points at the JSON alternative instead of
    an ImportError), anything else is parsed as JSON.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SloConfigError(f"cannot read SLO config {path!r}: {exc}")
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise SloConfigError(
                f"TOML SLO configs need Python >= 3.11 (no tomllib on "
                f"{os.path.basename(path)!r} here); use the JSON form "
                f"instead")
        try:
            doc = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise SloConfigError(f"invalid TOML in {path!r}: {exc}")
    else:
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SloConfigError(f"invalid JSON in {path!r}: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("slo"), list):
        raise SloConfigError(
            f"{path!r} must define an 'slo' array of rule tables")
    if not doc["slo"]:
        raise SloConfigError(f"{path!r} defines no rules")
    rules = [_parse_rule(rule, f"{path} slo[{index}]")
             for index, rule in enumerate(doc["slo"])]
    seen: Dict[str, int] = {}
    for rule in rules:
        seen[rule.name] = seen.get(rule.name, 0) + 1
    duplicates = sorted(name for name, n in seen.items() if n > 1)
    if duplicates:
        raise SloConfigError(
            f"{path!r} has duplicate rule names: {', '.join(duplicates)}")
    return rules


# -- evaluation -------------------------------------------------------


def _evaluate_rule(rule: SloRule, snapshot: Dict[str, Dict]) -> SloResult:
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    if rule.kind == "latency":
        summary = histograms.get(rule.histogram)
        if not summary or not summary.get("count"):
            return SloResult(rule, True, None, "no samples")
        value = float(summary.get(rule.stat, 0.0))
        ok = value <= rule.max_seconds
        return SloResult(
            rule, ok, value,
            f"{rule.stat}={value:.6g}s over {summary['count']:g} samples")
    if rule.kind in ("ratio_max", "ratio_min"):
        numerator = float(counters.get(rule.numerator, 0.0))
        denominator = sum(
            float(counters.get(name, 0.0)) for name in rule.denominator)
        if denominator <= 0:
            return SloResult(rule, True, None, "no samples")
        value = numerator / denominator
        ok = (value <= rule.max_ratio if rule.kind == "ratio_max"
              else value >= rule.min_ratio)
        return SloResult(
            rule, ok, value,
            f"ratio={value:.6g} ({numerator:g}/{denominator:g})")
    value = float(counters.get(rule.counter, 0.0))
    return SloResult(rule, value <= rule.max_value, value,
                     f"total={value:g}")


def evaluate_slos(rules: Sequence[SloRule],
                  snapshot: Dict[str, Dict]) -> SloReport:
    """Every rule's verdict against one registry snapshot."""
    return SloReport(results=[_evaluate_rule(rule, snapshot)
                              for rule in rules])

"""SLO rule loading, validation, and snapshot evaluation."""

import json

import pytest

from repro.obs.slo import (
    SloConfigError,
    SloRule,
    evaluate_slos,
    load_slo_rules,
)


def write_rules(tmp_path, rules, name="slo.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"slo": rules}))
    return str(path)


LATENCY = {"name": "predict-p99", "kind": "latency",
           "histogram": "serve.predict.seconds", "stat": "p99",
           "max_seconds": 0.5}
SHED = {"name": "shed-rate", "kind": "ratio_max",
        "numerator": "serve.aio.shed", "denominator": "serve.requests",
        "max_ratio": 0.01}
CACHE = {"name": "cache-hit", "kind": "ratio_min",
         "numerator": "engine.cache.hits",
         "denominator": ["engine.cache.hits", "engine.cache.misses"],
         "min_ratio": 0.9}
ERRORS = {"name": "error-budget", "kind": "counter_max",
          "counter": "serve.errors", "max_value": 10}


class TestLoading:
    def test_loads_all_rule_kinds_from_json(self, tmp_path):
        path = write_rules(tmp_path, [LATENCY, SHED, CACHE, ERRORS])
        rules = load_slo_rules(path)
        assert [r.name for r in rules] == \
            ["predict-p99", "shed-rate", "cache-hit", "error-budget"]
        assert rules[0].max_seconds == 0.5
        assert rules[1].denominator == ("serve.requests",)
        assert rules[2].denominator == \
            ("engine.cache.hits", "engine.cache.misses")
        assert rules[3].max_value == 10.0

    def test_loads_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[slo]]\n'
            'name = "predict-p99"\n'
            'kind = "latency"\n'
            'histogram = "serve.predict.seconds"\n'
            'max_seconds = 0.5\n')
        (rule,) = load_slo_rules(str(path))
        assert rule.name == "predict-p99"
        assert rule.stat == "p99"  # default percentile

    @pytest.mark.parametrize("rules,fragment", [
        ([{"kind": "latency"}], "missing required key 'name'"),
        ([{"name": "r"}], "missing required key 'kind'"),
        ([{"name": "r", "kind": "bogus"}], "unknown kind"),
        ([{"name": "r", "kind": "latency", "histogram": "h",
           "stat": "p42", "max_seconds": 1}], "stat must be one of"),
        ([{"name": "r", "kind": "latency", "histogram": "h"}],
         "missing required key 'max_seconds'"),
        ([{"name": "r", "kind": "latency", "histogram": 3,
           "max_seconds": 1}], "wrong type"),
        ([{"name": "r", "kind": "ratio_max", "numerator": "n",
           "denominator": [], "max_ratio": 0.1}],
         "non-empty list of counter names"),
        ([{"name": "r", "kind": "counter_max", "counter": "c"}],
         "missing required key 'max_value'"),
        (["not a table"], "must be a table/object"),
    ])
    def test_malformed_rules_rejected(self, tmp_path, rules, fragment):
        path = write_rules(tmp_path, rules)
        with pytest.raises(SloConfigError, match=fragment):
            load_slo_rules(path)

    def test_duplicate_rule_names_rejected(self, tmp_path):
        path = write_rules(tmp_path, [LATENCY, LATENCY])
        with pytest.raises(SloConfigError, match="duplicate rule names"):
            load_slo_rules(path)

    def test_empty_rule_list_rejected(self, tmp_path):
        path = write_rules(tmp_path, [])
        with pytest.raises(SloConfigError, match="defines no rules"):
            load_slo_rules(path)

    def test_non_slo_document_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"rules": []}')
        with pytest.raises(SloConfigError, match="'slo' array"):
            load_slo_rules(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text("{nope")
        with pytest.raises(SloConfigError, match="invalid JSON"):
            load_slo_rules(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SloConfigError, match="cannot read"):
            load_slo_rules(str(tmp_path / "absent.json"))


def snapshot(counters=None, histograms=None):
    return {"counters": counters or {}, "gauges": {},
            "histograms": histograms or {}}


class TestEvaluation:
    def test_latency_ok_and_breach(self):
        rule = SloRule(name="p99", kind="latency",
                       histogram="serve.predict.seconds",
                       stat="p99", max_seconds=0.5)
        ok = evaluate_slos([rule], snapshot(histograms={
            "serve.predict.seconds": {"count": 10, "p99": 0.2}}))
        assert ok.ok and not ok.breached
        breach = evaluate_slos([rule], snapshot(histograms={
            "serve.predict.seconds": {"count": 10, "p99": 0.9}}))
        assert not breach.ok
        assert breach.breached == ["p99"]

    def test_latency_no_samples_is_ok(self):
        rule = SloRule(name="p99", kind="latency", histogram="h",
                       stat="p99", max_seconds=0.001)
        report = evaluate_slos([rule], snapshot(histograms={
            "h": {"count": 0, "p99": 0.0}}))
        assert report.ok
        assert report.results[0].value is None
        assert "no samples" in report.results[0].detail

    def test_ratio_max_ok_and_breach(self):
        rule = SloRule(name="shed", kind="ratio_max",
                       numerator="serve.aio.shed",
                       denominator=("serve.requests",), max_ratio=0.1)
        ok = evaluate_slos([rule], snapshot(counters={
            "serve.aio.shed": 1.0, "serve.requests": 100.0}))
        assert ok.ok
        breach = evaluate_slos([rule], snapshot(counters={
            "serve.aio.shed": 50.0, "serve.requests": 100.0}))
        assert breach.breached == ["shed"]

    def test_ratio_min_sums_denominators(self):
        rule = SloRule(name="cache", kind="ratio_min",
                       numerator="hits", denominator=("hits", "misses"),
                       min_ratio=0.9)
        ok = evaluate_slos([rule], snapshot(counters={
            "hits": 95.0, "misses": 5.0}))
        assert ok.ok
        assert ok.results[0].value == pytest.approx(0.95)
        breach = evaluate_slos([rule], snapshot(counters={
            "hits": 5.0, "misses": 5.0}))
        assert not breach.ok

    def test_ratio_zero_denominator_is_ok(self):
        rule = SloRule(name="shed", kind="ratio_max", numerator="n",
                       denominator=("d",), max_ratio=0.0)
        report = evaluate_slos([rule], snapshot())
        assert report.ok
        assert report.results[0].value is None

    def test_counter_max_ok_and_breach(self):
        rule = SloRule(name="errors", kind="counter_max",
                       counter="serve.errors", max_value=10)
        assert evaluate_slos(
            [rule], snapshot(counters={"serve.errors": 10.0})).ok
        report = evaluate_slos(
            [rule], snapshot(counters={"serve.errors": 11.0}))
        assert report.breached == ["errors"]

    def test_report_describe_names_breached_rules(self):
        rules = [
            SloRule(name="errors", kind="counter_max",
                    counter="serve.errors", max_value=0),
            SloRule(name="shed", kind="ratio_max", numerator="s",
                    denominator=("r",), max_ratio=1.0),
        ]
        report = evaluate_slos(rules, snapshot(counters={
            "serve.errors": 3.0, "s": 1.0, "r": 10.0}))
        text = report.describe()
        assert "BREACH" in text
        assert "DEGRADED — breached: errors" in text
        assert "[ok" in text  # the passing rule still listed

    def test_empty_report_is_ok(self):
        report = evaluate_slos([], snapshot())
        assert report.ok
        assert report.describe() == "slo: no rules loaded"

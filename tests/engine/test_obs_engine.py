"""Observability integration: the engine is visible, not a black box.

Covers the satellite contract: cache hit/miss counters and per-worker
spans show up in the ``--profile`` run report, worker-process spans
graft into the parent trace with valid parent links, and the JSONL
trace schema still validates with the engine enabled.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.pipeline import build_feature_table
from repro.engine import ExtractionEngine, FeatureCache
from repro.obs.stream import SPAN_RECORD_KEYS


@pytest.fixture
def source_tree(tmp_path):
    d = tmp_path / "tree"
    d.mkdir()
    (d / "m.c").write_text(
        "int f(int x) {\n    if (x > 0) {\n        x--;\n    }\n"
        "    return x;\n}\n"
    )
    return str(d)


class TestCounters:
    def test_cold_then_warm_counters(self, engine_corpus, tmp_path):
        cache = FeatureCache(str(tmp_path / "cache"))
        session = obs.configure()
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=1, cache=cache)
        )
        cold = session.metrics.snapshot()["counters"]
        obs.disable()
        n = len(engine_corpus.apps)
        assert cold["engine.cache.misses"] == n
        assert cold["engine.cache.stores"] == n
        assert cold["engine.extracted"] == n

        session = obs.configure()
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=1, cache=cache)
        )
        warm = session.metrics.snapshot()["counters"]
        obs.disable()
        assert warm["engine.cache.hits"] == n
        assert "engine.extracted" not in warm

    def test_counters_render_in_run_report(self, engine_corpus, tmp_path):
        cache = FeatureCache(str(tmp_path / "cache"))
        session = obs.configure(profile=True)
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=1, cache=cache)
        )
        report = obs.format_run_report(session)
        obs.disable()
        assert "engine.cache.misses" in report
        assert "engine.cache.stores" in report

    def test_worker_counters_merge_into_parent(self, engine_corpus):
        session = obs.configure()
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=2)
        )
        counters = session.metrics.snapshot()["counters"]
        obs.disable()
        # testbed.files_analyzed is incremented inside the workers and
        # must be folded back into the parent registry.
        assert counters["testbed.files_analyzed"] == sum(
            len(app.codebase) for app in engine_corpus.apps
        )


class TestWorkerSpans:
    def test_per_worker_spans_present_with_pids(self, engine_corpus):
        session = obs.configure()
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=2)
        )
        workers = session.tracer.spans_named("engine.worker")
        obs.disable()
        assert len(workers) == len(engine_corpus.apps)
        assert all(isinstance(s.attrs["pid"], int) for s in workers)
        apps = {s.attrs["app"] for s in workers}
        assert apps == {app.name for app in engine_corpus.apps}

    def test_grafted_analyzer_spans_under_workers(self, engine_corpus):
        session = obs.configure()
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=2)
        )
        names = {s.name for s in session.tracer.spans}
        by_id = {s.span_id: s for s in session.tracer.spans}
        roots = session.tracer.spans_named("testbed.extract_features")
        obs.disable()
        assert {"analysis.cfg", "analysis.bugfind", "analysis.loc"} <= names
        assert len(roots) == len(engine_corpus.apps)
        for root in roots:
            assert by_id[root.parent_id].name == "engine.worker"

    def test_worker_spans_in_run_report(self, engine_corpus):
        session = obs.configure(profile=True)
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=2)
        )
        report = obs.format_run_report(session)
        obs.disable()
        assert "engine.worker" in report
        assert "analysis.cfg" in report

    def test_grafted_self_time_stays_truthful(self, engine_corpus):
        # Grafted parents must absorb their children's durations, so a
        # worker's span tree never double-counts into self-time.
        session = obs.configure()
        build_feature_table(
            engine_corpus, engine=ExtractionEngine(workers=2)
        )
        for span in session.tracer.spans_named("testbed.extract_features"):
            assert span.child_time > 0.0
            assert span.self_time < span.duration
        obs.disable()


class TestTraceSchema:
    def test_jsonl_schema_validates_with_engine(self, engine_corpus,
                                                tmp_path):
        stream = str(tmp_path / "telemetry.jsonl")
        obs.configure(stream_path=stream)
        build_feature_table(
            engine_corpus,
            engine=ExtractionEngine(
                workers=2, cache=FeatureCache(str(tmp_path / "cache"))
            ),
        )
        obs.disable()
        records = [event["span"] for event in obs.read_events(stream)
                   if event["type"] == "span"]
        assert records
        ids = set()
        for record in records:
            assert sorted(record) == sorted(SPAN_RECORD_KEYS)
            assert isinstance(record["name"], str)
            assert isinstance(record["start"], float)
            assert isinstance(record["duration"], float)
            assert isinstance(record["attrs"], dict)
            ids.add(record["span_id"])
        assert len(ids) == len(records), "span ids must stay unique"
        # every parent link resolves, grafted subtrees included
        for record in records:
            if record["parent"] is not None:
                assert record["parent"] in ids
        names = {r["name"] for r in records}
        assert {"engine.extract", "engine.worker", "testbed.app",
                "testbed.extract_features", "analysis.cfg"} <= names


class TestCLIProfile:
    def test_profile_shows_cache_counters(self, source_tree, tmp_path,
                                          capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["analyze", source_tree, "--cache-dir", cache_dir,
                     "--profile"]) == 0
        cold = capsys.readouterr().out
        assert "engine.cache.misses" in cold
        assert "engine.cache.stores" in cold
        assert main(["analyze", source_tree, "--cache-dir", cache_dir,
                     "--profile"]) == 0
        warm = capsys.readouterr().out
        assert "engine.cache.hits" in warm

    def test_cached_analyze_matches_cold_output(self, source_tree, tmp_path,
                                                capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["analyze", source_tree, "--json",
                     "--cache-dir", cache_dir]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["analyze", source_tree, "--json",
                     "--cache-dir", cache_dir]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm == cold

    def test_no_cache_flag_forces_recompute(self, source_tree, tmp_path,
                                            capsys, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["analyze", source_tree, "--profile"]) == 0
        assert "engine.cache.misses" in capsys.readouterr().out
        assert main(["analyze", source_tree, "--no-cache",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine.cache.hits" not in out
        assert "testbed.extract_features" in out

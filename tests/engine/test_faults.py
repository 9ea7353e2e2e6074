"""Fault-injection suite: the engine's failure policies under fire.

Faults are staged through the ``REPRO_FAULTS`` seam in
:mod:`repro.engine.faults` — the environment variable travels into
forked workers, so crashes, hangs, SIGKILLs, and unpicklable results
fire inside real worker processes, not mocks. The invariant every
scenario re-checks: under ``on_error="skip"`` the surviving apps' rows
are byte-identical to a clean run, and the failure report names exactly
the injected apps.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro import obs
from repro.engine import (
    ExtractionEngine,
    ExtractionError,
    ExtractionTask,
    FeatureCache,
    TaskTimeout,
)
from repro.engine.faults import FAULTS_ENV, InjectedFault, parse_faults
from repro.lang import Codebase

#: Generous wall-clock bound proving the engine did not sit out a
#: long sleep: every injected hang below sleeps for 60+ seconds.
PROMPT = 30.0

APP_SOURCES = {
    "app-a": {"a.c": "int f(int x) {\n    return x + 1;\n}\n"},
    "app-b": {"b.py": "def g(y):\n    return y * 2\n"},
    "app-c": {"c.c": "int h(void) {\n    return 3;\n}\n"},
    "app-d": {"d.py": "def k(z):\n    return z - 4\n"},
}


def make_tasks(names=None):
    names = list(names or APP_SOURCES)
    return [
        ExtractionTask(
            name=name,
            codebase=Codebase.from_sources(name, dict(APP_SOURCES[name])),
        )
        for name in names
    ]


@pytest.fixture()
def clean_rows():
    """Ground truth: a clean serial run over all four apps."""
    engine = ExtractionEngine(workers=1)
    return dict(zip(APP_SOURCES,
                    engine.extract_rows(make_tasks())))


def inject(monkeypatch, spec: str) -> None:
    monkeypatch.setenv(FAULTS_ENV, spec)


def assert_survivors_identical(report, clean_rows):
    """Surviving rows must be byte-identical to the clean run's."""
    failed = {f.app for f in report.failures}
    names = list(APP_SOURCES)
    for index, name in enumerate(names):
        if name in failed:
            assert report.rows[index] is None
        else:
            expected = clean_rows[name]
            actual = report.rows[index]
            assert pickle.dumps(actual) == pickle.dumps(expected), name


class TestFaultSeam:
    def test_spec_parsing(self):
        faults = parse_faults("a=crash; b=hang:5 ;c=kill_once:/tmp/s")
        assert faults["a"].kind == "crash"
        assert faults["b"].payload == "5"
        assert faults["c"].payload == "/tmp/s"

    def test_unset_env_means_no_faults(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        from repro.engine.faults import active_fault

        assert active_fault("anything") is None


class TestRaisePolicy:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_propagates(self, monkeypatch, workers):
        inject(monkeypatch, "app-b=crash")
        engine = ExtractionEngine(workers=workers, on_error="raise")
        with pytest.raises(InjectedFault, match="app-b"):
            engine.extract_rows(make_tasks())

    def test_crash_cancels_inflight_hang(self, monkeypatch, timer):
        # app-a crashes while app-b sleeps for 60s in the other worker;
        # fail-fast must kill the hung worker, not wait it out.
        inject(monkeypatch, "app-a=crash;app-b=hang:60")
        engine = ExtractionEngine(workers=2, on_error="raise")
        with timer() as elapsed:
            with pytest.raises(InjectedFault, match="app-a"):
                engine.extract_rows(make_tasks())
        assert elapsed() < PROMPT

    def test_timeout_raises_task_timeout(self, monkeypatch, timer):
        inject(monkeypatch, "app-c=hang:60")
        engine = ExtractionEngine(workers=2, on_error="raise",
                                  task_timeout=3.0)
        with timer() as elapsed:
            with pytest.raises(TaskTimeout, match="app-c"):
                engine.extract_rows(make_tasks())
        assert elapsed() < PROMPT

    def test_worker_death_aborts(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        inject(monkeypatch, "app-a=kill")
        engine = ExtractionEngine(workers=2, on_error="raise")
        with pytest.raises(BrokenProcessPool):
            engine.extract_rows(make_tasks())


class TestSkipPolicy:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_is_skipped_and_reported(self, monkeypatch, workers,
                                           clean_rows):
        inject(monkeypatch, "app-b=crash")
        engine = ExtractionEngine(workers=workers, on_error="skip")
        report = engine.run(make_tasks())
        assert [f.app for f in report.failures] == ["app-b"]
        failure = report.failures[0]
        assert failure.kind == "crash"
        assert failure.attempts == 1
        assert failure.error_type == "InjectedFault"
        assert "InjectedFault" in failure.traceback
        assert "app-b" in failure.describe()
        assert_survivors_identical(report, clean_rows)

    def test_hang_times_out_and_is_skipped(self, monkeypatch, clean_rows,
                                           timer):
        inject(monkeypatch, "app-c=hang:60")
        engine = ExtractionEngine(workers=2, on_error="skip",
                                  task_timeout=3.0)
        with timer() as elapsed:
            report = engine.run(make_tasks())
        assert elapsed() < PROMPT
        assert [f.app for f in report.failures] == ["app-c"]
        assert report.failures[0].kind == "timeout"
        assert report.failures[0].error_type == "TaskTimeout"
        assert_survivors_identical(report, clean_rows)

    def test_killed_worker_recovers_via_rebuild(self, monkeypatch,
                                                tmp_path, clean_rows):
        # The worker dies mid-run; the pool is rebuilt once and the
        # victim re-runs successfully — no failures at all.
        sentinel = tmp_path / "killed"
        inject(monkeypatch, f"app-a=kill_once:{sentinel}")
        engine = ExtractionEngine(workers=2, on_error="skip")
        report = engine.run(make_tasks())
        assert report.failures == []
        assert sentinel.exists()
        assert_survivors_identical(report, clean_rows)

    def test_persistent_killer_is_reported_as_worker_lost(
            self, monkeypatch, clean_rows):
        inject(monkeypatch, "app-d=kill")
        engine = ExtractionEngine(workers=2, on_error="skip")
        report = engine.run(make_tasks())
        assert [f.app for f in report.failures] == ["app-d"]
        assert report.failures[0].kind == "worker-lost"
        assert_survivors_identical(report, clean_rows)

    def test_unpicklable_result_is_skipped(self, monkeypatch, clean_rows):
        inject(monkeypatch, "app-b=poison")
        engine = ExtractionEngine(workers=2, on_error="skip")
        report = engine.run(make_tasks())
        assert [f.app for f in report.failures] == ["app-b"]
        assert report.failures[0].kind == "crash"
        assert_survivors_identical(report, clean_rows)

    def test_acceptance_crash_hang_and_killed_worker(self, monkeypatch,
                                                     tmp_path, clean_rows,
                                                     timer):
        # The ISSUE's combined scenario: one crasher, one hanger, one
        # worker killed mid-run. The run completes promptly, reports
        # exactly the genuinely failed apps (the kill_once victim
        # recovers via the pool rebuild), and the survivors' rows are
        # byte-identical to the clean run.
        sentinel = tmp_path / "killed"
        inject(monkeypatch,
               f"app-a=crash;app-c=hang:60;app-d=kill_once:{sentinel}")
        engine = ExtractionEngine(workers=2, on_error="skip",
                                  task_timeout=5.0)
        with timer() as elapsed:
            report = engine.run(make_tasks())
        assert elapsed() < PROMPT
        kinds = {f.app: f.kind for f in report.failures}
        assert kinds == {"app-a": "crash", "app-c": "timeout"}
        assert_survivors_identical(report, clean_rows)

    def test_read_only_cache_degrades_not_fails(self, monkeypatch,
                                                tmp_path, clean_rows):
        # The cache dir is a *file*: every store fails with OSError.
        # Extraction must still succeed, merely uncached.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        engine = ExtractionEngine(workers=2, on_error="skip",
                                  cache=FeatureCache(str(blocker)))
        report = engine.run(make_tasks())
        assert report.failures == []
        assert_survivors_identical(report, clean_rows)

    def test_failures_do_not_poison_the_cache(self, monkeypatch,
                                              tmp_path, clean_rows):
        # Run once with a crasher, then clear the fault: the previously
        # failed app must recompute cleanly (nothing stale was stored),
        # the survivors must hit their cached rows.
        cache_dir = tmp_path / "cache"
        inject(monkeypatch, "app-b=crash")
        engine = ExtractionEngine(workers=2, on_error="skip",
                                  cache=FeatureCache(str(cache_dir)))
        report = engine.run(make_tasks())
        assert [f.app for f in report.failures] == ["app-b"]
        monkeypatch.delenv(FAULTS_ENV)
        healed = engine.run(make_tasks())
        assert healed.failures == []
        assert_survivors_identical(healed, clean_rows)


class TestRetryPolicy:
    def test_transient_crash_recovers(self, monkeypatch, tmp_path,
                                      clean_rows):
        sentinel = tmp_path / "crashed"
        inject(monkeypatch, f"app-b=crash_once:{sentinel}")
        engine = ExtractionEngine(workers=2, on_error="retry",
                                  max_retries=2)
        report = engine.run(make_tasks())
        assert report.failures == []
        assert sentinel.exists()
        assert_survivors_identical(report, clean_rows)

    def test_retries_are_bounded(self, monkeypatch, clean_rows):
        inject(monkeypatch, "app-b=crash")
        engine = ExtractionEngine(workers=2, on_error="retry",
                                  max_retries=2)
        report = engine.run(make_tasks())
        assert [f.app for f in report.failures] == ["app-b"]
        # 1 initial + max_retries extra attempts, no more
        assert report.failures[0].attempts == 3
        assert_survivors_identical(report, clean_rows)

    def test_max_retries_zero_means_no_retry(self, monkeypatch):
        inject(monkeypatch, "app-b=crash")
        engine = ExtractionEngine(workers=2, on_error="retry",
                                  max_retries=0)
        report = engine.run(make_tasks())
        assert report.failures[0].attempts == 1

    def test_last_attempt_runs_in_scheduler_process(self, monkeypatch):
        # The fault crashes in every process but this one: only a
        # genuinely in-process final attempt can succeed.
        inject(monkeypatch, f"app-b=crash_in_worker:{os.getpid()}")
        engine = ExtractionEngine(workers=2, on_error="retry",
                                  max_retries=1)
        report = engine.run(make_tasks())
        assert report.failures == []

    def test_timeouts_are_not_retried(self, monkeypatch, timer):
        # A task that hung once is assumed to hang again; retrying it
        # would multiply the stall by max_retries.
        inject(monkeypatch, "app-c=hang:60")
        engine = ExtractionEngine(workers=2, on_error="retry",
                                  task_timeout=3.0, max_retries=5)
        with timer() as elapsed:
            report = engine.run(make_tasks())
        assert elapsed() < PROMPT
        assert report.failures[0].kind == "timeout"
        assert report.failures[0].attempts == 1


class TestFailureObservability:
    def test_counters_and_error_spans(self, monkeypatch):
        inject(monkeypatch, "app-b=crash")
        engine = ExtractionEngine(workers=2, on_error="retry",
                                  max_retries=1)
        obs.configure()
        try:
            engine.run(make_tasks())
            session = obs.active()
            counters = session.metrics.snapshot()["counters"]
            spans = list(session.tracer.spans)
        finally:
            obs.disable()
        assert counters.get("engine.task_failures") == 1
        assert counters.get("engine.task_retries") == 1
        errored = [s for s in spans
                   if s.name == "testbed.app" and "error" in s.attrs]
        assert errored
        assert all(s.attrs["app"] == "app-b" for s in errored)
        assert all(s.attrs["error"] == "InjectedFault" for s in errored)

    def test_pool_rebuild_counter(self, monkeypatch, tmp_path):
        sentinel = tmp_path / "killed"
        inject(monkeypatch, f"app-a=kill_once:{sentinel}")
        engine = ExtractionEngine(workers=2, on_error="skip")
        obs.configure()
        try:
            report = engine.run(make_tasks())
            counters = obs.active().metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert report.failures == []
        assert counters.get("engine.pool_rebuilds") == 1

    def test_extract_span_records_failure_count(self, monkeypatch):
        inject(monkeypatch, "app-b=crash")
        engine = ExtractionEngine(workers=2, on_error="skip")
        obs.configure()
        try:
            engine.run(make_tasks())
            spans = list(obs.active().tracer.spans)
        finally:
            obs.disable()
        (extract,) = [s for s in spans if s.name == "engine.extract"]
        assert extract.attrs["failures"] == 1
        assert extract.attrs["on_error"] == "skip"


class TestExtractOne:
    def test_failure_raises_extraction_error_even_when_skipping(
            self, monkeypatch):
        inject(monkeypatch, "solo=crash")
        engine = ExtractionEngine(workers=1, on_error="skip")
        cb = Codebase.from_sources("solo", {"m.py": "x = 1\n"})
        with pytest.raises(ExtractionError, match="solo"):
            engine.extract_one(cb)

    @pytest.mark.parametrize("method",
                             ["extract_one", "extract_with_records"])
    def test_raise_policy_wraps_in_extraction_error(self, monkeypatch,
                                                    method):
        # run() lets the raw exception through under "raise"; the
        # single-codebase entry points raise ExtractionError instead.
        inject(monkeypatch, "solo=crash")
        engine = ExtractionEngine(workers=1, on_error="raise")
        cb = Codebase.from_sources("solo", {"m.py": "x = 1\n"})
        with pytest.raises(ExtractionError, match="solo") as excinfo:
            getattr(engine, method)(cb)
        assert isinstance(excinfo.value.__cause__, InjectedFault)


class TestPipelineThreading:
    """Failures flow through build_feature_table without disturbing
    the surviving apps' rows or order."""

    def test_failed_app_dropped_deterministically(self, monkeypatch,
                                                  engine_corpus,
                                                  reference_table):
        from repro.core.pipeline import build_feature_table

        victim = sorted(a.name for a in engine_corpus.apps)[2]
        inject(monkeypatch, f"{victim}=crash")
        table = build_feature_table(
            engine_corpus,
            engine=ExtractionEngine(workers=2, on_error="skip"),
        )
        assert [f.app for f in table.failures] == [victim]
        assert victim not in table.app_names
        expected_names = tuple(n for n in reference_table.app_names
                               if n != victim)
        assert table.app_names == expected_names
        reference = dict(zip(reference_table.app_names,
                             reference_table.rows))
        for name, row in zip(table.app_names, table.rows):
            assert pickle.dumps(row) == pickle.dumps(reference[name])

    def test_raise_policy_keeps_table_complete_or_fails(self, monkeypatch,
                                                        engine_corpus):
        from repro.core.pipeline import build_feature_table

        victim = sorted(a.name for a in engine_corpus.apps)[0]
        inject(monkeypatch, f"{victim}=crash")
        with pytest.raises(InjectedFault):
            build_feature_table(
                engine_corpus,
                engine=ExtractionEngine(workers=1, on_error="raise"),
            )

    def test_failures_survive_table_restriction(self, monkeypatch,
                                                engine_corpus):
        from repro.core.pipeline import build_feature_table

        victim = sorted(a.name for a in engine_corpus.apps)[1]
        inject(monkeypatch, f"{victim}=crash")
        table = build_feature_table(
            engine_corpus,
            engine=ExtractionEngine(workers=1, on_error="skip"),
        )
        restricted = table.restricted(["size"])
        assert restricted.failures == table.failures
        named = table.restricted_to_features(["size.log_kloc"])
        assert named.failures == table.failures

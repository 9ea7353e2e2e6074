"""Scheduler unit tests: ordering, serial fallback, pickling, env knobs."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.engine import (
    CACHE_DIR_ENV,
    WORKERS_ENV,
    ExtractionEngine,
    FeatureCache,
    parallel_map,
    task_digest,
)
from repro.lang import Codebase, SourceFile
from repro.lang.languages import language_by_name


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _pid_and_value(x):
    return (os.getpid(), x)


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4) == \
            [x * x for x in items]

    def test_serial_runs_in_process(self):
        # Lambdas do not pickle: only a truly in-process serial path can
        # execute one. This also proves workers=1 shares the pool code.
        assert parallel_map(lambda x: x + 1, [1, 2, 3], workers=1) == \
            [2, 3, 4]

    def test_parallel_actually_forks(self):
        results = parallel_map(_pid_and_value, list(range(8)), workers=2)
        assert [value for _, value in results] == list(range(8))
        pids = {pid for pid, _ in results}
        assert os.getpid() not in pids

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_item_stays_serial(self):
        (result,) = parallel_map(_pid_and_value, [9], workers=4)
        assert result == (os.getpid(), 9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exceptions_propagate(self, workers):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_boom, [1, 2], workers=workers)


class TestPickling:
    def test_sourcefile_spec_stays_singleton(self):
        source = SourceFile("m.py", "x = 1\n")
        _ = source.tokens  # populate the cache that must not ship
        clone = pickle.loads(pickle.dumps(source))
        assert clone.spec is language_by_name("python")
        assert clone.text == source.text
        assert clone._tokens is None
        assert [t.text for t in clone.tokens] == \
            [t.text for t in source.tokens]

    def test_codebase_roundtrip_preserves_by_language(self):
        cb = Codebase.from_sources(
            "app", {"a.c": "int x;\n", "b.py": "y = 2\n"}
        )
        clone = pickle.loads(pickle.dumps(cb))
        assert [f.path for f in clone.by_language("c")] == ["a.c"]
        assert [f.path for f in clone.by_language("python")] == ["b.py"]
        assert clone.primary_language() == cb.primary_language()


class TestEngineConfig:
    def test_workers_clamped_to_at_least_one(self):
        assert ExtractionEngine(workers=0).workers == 1
        assert ExtractionEngine(workers=-3).workers == 1

    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        engine = ExtractionEngine.from_env()
        assert engine.workers == 1
        assert engine.cache is None

    def test_from_env_reads_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WORKERS_ENV, "3")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        engine = ExtractionEngine.from_env()
        assert engine.workers == 3
        assert engine.cache is not None
        assert engine.cache.cache_dir == str(tmp_path / "cache")

    def test_from_env_garbage_workers_warns_and_falls_back(self,
                                                           monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        with pytest.warns(RuntimeWarning, match="'many'"):
            assert ExtractionEngine.from_env().workers == 1

    def test_from_env_negative_workers_warns_and_falls_back(self,
                                                            monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-2")
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        with pytest.warns(RuntimeWarning, match="'-2'"):
            assert ExtractionEngine.from_env().workers == 1

    def test_from_env_valid_workers_do_not_warn(self, monkeypatch,
                                                recwarn):
        monkeypatch.setenv(WORKERS_ENV, "4")
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert ExtractionEngine.from_env().workers == 4
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_rejects_unknown_on_error_policy(self):
        with pytest.raises(ValueError, match="on_error"):
            ExtractionEngine(on_error="ignore")

    def test_rejects_non_positive_task_timeout(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ExtractionEngine(workers=2, task_timeout=0)

    def test_serial_task_timeout_warns(self):
        with pytest.warns(RuntimeWarning, match="workers > 1"):
            ExtractionEngine(workers=1, task_timeout=5.0)

    def test_max_retries_clamped_to_non_negative(self):
        assert ExtractionEngine(max_retries=-4).max_retries == 0


class TestExtractOne:
    def test_stores_and_reuses_entry(self, tmp_path):
        cache = FeatureCache(str(tmp_path / "cache"))
        engine = ExtractionEngine(workers=1, cache=cache)
        cb = Codebase.from_sources(
            "one", {"m.c": "int f(void) {\n    return 1;\n}\n"}
        )
        row = engine.extract_one(cb)
        digest = task_digest(cb)
        assert cache.get(digest) == row
        assert engine.extract_one(cb) == row

    def test_nominal_kloc_reaches_the_row(self, tmp_path):
        engine = ExtractionEngine(
            workers=1, cache=FeatureCache(str(tmp_path / "cache"))
        )
        cb = Codebase.from_sources(
            "one", {"m.c": "int f(void) {\n    return 1;\n}\n"}
        )
        row = engine.extract_one(cb, nominal_kloc=250.0)
        assert row["size.kloc"] == 250.0
        # a different kloc is a different cache key, not a stale hit
        assert engine.extract_one(cb, nominal_kloc=9.0)["size.kloc"] == 9.0


class TestForks:
    """Fault-free runs start as many executors as they need, no more."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine import scheduler

        made = []

        class Counting(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", Counting)
        return made

    def _codebase(self, name):
        return Codebase.from_sources(name, {
            "m.c": "int f(void) {\n    return 1;\n}\n",
            "n.py": "def g(x):\n    return x\n",
        })

    @pytest.mark.parametrize("cached", [False, True])
    def test_extract_one_stays_in_process(self, constructions, tmp_path,
                                          cached):
        cache = FeatureCache(str(tmp_path / "cache")) if cached else None
        engine = ExtractionEngine(workers=2, cache=cache)
        assert engine.extract_one(self._codebase("one"))
        assert constructions == []

    def test_run_starts_one_executor(self, constructions):
        from repro.engine import ExtractionTask

        tasks = [ExtractionTask(name=f"app-{i}",
                                codebase=self._codebase(f"app-{i}"))
                 for i in range(4)]
        report = ExtractionEngine(workers=2).run(tasks)
        assert all(row is not None for row in report.rows)
        assert len(constructions) == 1

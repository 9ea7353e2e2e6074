"""Incremental (file-granular) extraction: the delta path's contract.

A warm re-analysis after editing, deleting, renaming, or adding files
must recompute only what changed — proven through the
``engine.cache.file_hits``/``file_misses`` counters — and its row must
be *byte-identical* (key order and float bits) to a cold, uncached
extraction of the same tree. The read-only-cache scenario checks the
whole path degrades to a full recompute instead of crashing.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import obs
from repro.engine import ExtractionEngine, FeatureCache
from repro.engine.faults import FAULTS_ENV
from repro.lang import Codebase, SourceFile
from repro.lang.lexer import Lexer

N_FILES = 6


def make_codebase(mutate=False, drop=None, rename=None, add=None):
    """A small multi-file C/Python codebase with controlled edits."""
    files = []
    for i in range(N_FILES):
        path = f"src/m{i}.c"
        body = (f"int f{i}(int a) {{\n"
                f"    if (a > {i}) return a * {i + 1};\n"
                f"    return a;\n"
                f"}}\n")
        if mutate and i == 2:
            body += "int extra(int b) {\n    while (b) b--;\n    return b;\n}\n"
        if drop is not None and i == drop:
            continue
        if rename is not None and i == rename:
            path = f"src/renamed_m{i}.c"
        files.append(SourceFile(path, body))
    if add:
        files.append(SourceFile(add, "int fresh(void) {\n    return 9;\n}\n"))
    return Codebase("delta-app", files)


def reference_row(codebase):
    """Ground truth: a serial, uncached extraction."""
    return ExtractionEngine(workers=1).extract_one(codebase)


def extract_with_counters(engine, codebase):
    """Run one extraction under a private obs session; return (row, counters)."""
    session = obs.configure()
    try:
        row = engine.extract_one(codebase)
        counters = session.metrics.snapshot()["counters"]
    finally:
        obs.disable()
    return row, counters


def assert_byte_identical(actual, expected):
    assert list(actual) == list(expected), "feature key order differs"
    for key in expected:
        assert repr(actual[key]) == repr(expected[key]), key
    assert pickle.dumps(actual) == pickle.dumps(expected)


@pytest.fixture()
def warm_cache(tmp_path):
    """A cache seeded by one cold extraction of the pristine tree."""
    cache_dir = str(tmp_path / "cache")
    engine = ExtractionEngine(workers=1, cache=FeatureCache(cache_dir))
    _, counters = extract_with_counters(engine, make_codebase())
    # Cold run: every file probe misses and every record is stored.
    assert counters.get("engine.cache.file_misses") == N_FILES
    assert counters.get("engine.cache.file_stores") == N_FILES
    assert "engine.cache.file_hits" not in counters
    return cache_dir


class TestDeltaByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_touch_one_file_recomputes_one_file(self, warm_cache, workers):
        engine = ExtractionEngine(workers=workers,
                                  cache=FeatureCache(warm_cache))
        mutated = make_codebase(mutate=True)
        row, counters = extract_with_counters(engine, mutated)
        assert counters.get("engine.cache.file_hits") == N_FILES - 1
        assert counters.get("engine.cache.file_misses") == 1
        assert counters.get("engine.cache.file_stores") == 1
        assert counters.get("engine.delta.files_changed") == 1
        assert counters.get("engine.delta.files_unchanged") == N_FILES - 1
        assert_byte_identical(row, reference_row(make_codebase(mutate=True)))

    def test_delete_one_file(self, warm_cache):
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        shrunk = make_codebase(drop=4)
        row, counters = extract_with_counters(engine, shrunk)
        assert counters.get("engine.cache.file_hits") == N_FILES - 1
        assert "engine.cache.file_misses" not in counters
        assert counters.get("engine.delta.files_removed") == 1
        assert counters.get("engine.delta.files_unchanged") == N_FILES - 1
        assert_byte_identical(row, reference_row(make_codebase(drop=4)))

    def test_rename_one_file(self, warm_cache):
        # The file digest covers the path, so a rename is a miss for the
        # new path (path-dependent features like bug-finding dedup keys
        # would go stale otherwise) plus a removal of the old one.
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        renamed = make_codebase(rename=1)
        row, counters = extract_with_counters(engine, renamed)
        assert counters.get("engine.cache.file_hits") == N_FILES - 1
        assert counters.get("engine.cache.file_misses") == 1
        assert counters.get("engine.delta.files_added") == 1
        assert counters.get("engine.delta.files_removed") == 1
        assert counters.get("engine.delta.files_unchanged") == N_FILES - 1
        assert_byte_identical(row, reference_row(make_codebase(rename=1)))

    def test_add_one_file(self, warm_cache):
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        grown = make_codebase(add="src/zz_new.c")
        row, counters = extract_with_counters(engine, grown)
        assert counters.get("engine.cache.file_hits") == N_FILES
        assert counters.get("engine.cache.file_misses") == 1
        assert counters.get("engine.delta.files_added") == 1
        assert_byte_identical(row,
                              reference_row(make_codebase(add="src/zz_new.c")))

    def test_warm_row_hit_skips_file_probe(self, warm_cache):
        # Unchanged tree: pure row-level hit, no file-granular traffic.
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        row, counters = extract_with_counters(engine, make_codebase())
        assert counters.get("engine.cache.hits") == 1
        assert "engine.cache.file_hits" not in counters
        assert "engine.cache.file_misses" not in counters
        assert_byte_identical(row, reference_row(make_codebase()))

    def test_delta_row_is_row_cached_for_next_run(self, warm_cache):
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        mutated = make_codebase(mutate=True)
        first, _ = extract_with_counters(engine, mutated)
        again, counters = extract_with_counters(engine, mutated)
        assert counters.get("engine.cache.hits") == 1
        assert "engine.cache.file_hits" not in counters
        assert_byte_identical(again, first)

    def test_second_edit_uses_updated_manifest(self, warm_cache):
        # After the delta run stores its manifest, a further edit is
        # classified against the *mutated* tree, not the original one.
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        extract_with_counters(engine, make_codebase(mutate=True))
        twice = make_codebase(mutate=True, add="src/zz_new.c")
        row, counters = extract_with_counters(engine, twice)
        assert counters.get("engine.cache.file_hits") == N_FILES
        assert counters.get("engine.delta.files_added") == 1
        assert counters.get("engine.delta.files_unchanged") == N_FILES
        assert "engine.delta.files_changed" not in counters
        assert_byte_identical(row, reference_row(
            make_codebase(mutate=True, add="src/zz_new.c")))


#: A C/C++/Java/Python tree whose call graph and classes cross files.
MIXED_SOURCES = {
    "src/core.c": "int helper(int x) {\n    return x + 1;\n}\n"
                  "int main(void) {\n    return helper(2);\n}\n",
    "src/shape.cpp": "class Shape {\npublic:\n"
                     "    int area() { return helper(0); }\n};\n"
                     "class Circle : public Shape {\npublic:\n"
                     "    int radius() { return area(); }\n};\n",
    "src/Server.java": "public class Server extends Base {\n"
                       "    public int port;\n"
                       "    public void serve() {\n"
                       "        ServerSocket s = new ServerSocket(port);\n"
                       "        run();\n    }\n}\n",
    "src/tool.py": "class Tool:\n    def run(self):\n"
                   "        self.state = 1\n        return helper(3)\n",
}


class TestWarmEditLexesOnlyEditedFile:
    def test_one_edit_lexes_one_file(self, tmp_path, monkeypatch):
        engine = ExtractionEngine(
            workers=1, cache=FeatureCache(str(tmp_path / "cache")))
        engine.extract_one(Codebase.from_sources("mixed", MIXED_SOURCES))

        edited = dict(MIXED_SOURCES)
        edited["src/tool.py"] += "\n\ndef extra():\n    return run()\n"
        lexed = []
        tokenize = Lexer.tokenize

        def counting(self, text):
            lexed.append(text)
            return tokenize(self, text)

        monkeypatch.setattr(Lexer, "tokenize", counting)
        # Fresh SourceFiles: nothing is lexed yet, as after a rescan.
        row = engine.extract_one(Codebase.from_sources("mixed", edited))
        assert lexed == [edited["src/tool.py"]]
        monkeypatch.undo()
        assert_byte_identical(
            row, reference_row(Codebase.from_sources("mixed", edited)))


class TestDeltaDegradation:
    def test_read_only_cache_full_recompute_no_crash(self, tmp_path,
                                                     monkeypatch):
        # The cache dir is a *file*: row lookup, file probes, and every
        # store fail with OSError. Extraction must degrade to a full
        # recompute with a correct row, never crash.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        engine = ExtractionEngine(workers=1,
                                  cache=FeatureCache(str(blocker)))
        row, counters = extract_with_counters(engine, make_codebase())
        assert "engine.cache.hits" not in counters
        assert "engine.cache.file_hits" not in counters
        assert counters.get("engine.extracted") == 1
        assert_byte_identical(row, reference_row(make_codebase()))

    def test_missing_manifest_only_disables_classification(self,
                                                           warm_cache):
        # Wipe the manifest (advisory data): the delta path still reuses
        # cached records; only the engine.delta.* counters go silent.
        import json
        import pathlib

        for entry in pathlib.Path(warm_cache).rglob("*.json"):
            doc = json.loads(entry.read_text())
            if "files" in doc:
                entry.unlink()
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        mutated = make_codebase(mutate=True)
        row, counters = extract_with_counters(engine, mutated)
        assert counters.get("engine.cache.file_hits") == N_FILES - 1
        assert not any(name.startswith("engine.delta.")
                       for name in counters)
        assert_byte_identical(row, reference_row(make_codebase(mutate=True)))


class TestDeltaFailureBlame:
    def test_file_unit_failure_names_the_file(self, warm_cache,
                                              monkeypatch):
        # A crash on the delta path happens inside a per-file unit; the
        # TaskFailure must blame app *and* file.
        monkeypatch.setenv(FAULTS_ENV, "delta-app=crash")
        engine = ExtractionEngine(workers=1, on_error="skip",
                                  cache=FeatureCache(warm_cache))
        from repro.engine import ExtractionTask

        report = engine.run([ExtractionTask(
            name="delta-app", codebase=make_codebase(mutate=True))])
        assert report.rows == [None]
        (failure,) = report.failures
        assert failure.app == "delta-app"
        assert failure.file == "src/m2.c"
        assert "delta-app[src/m2.c]" in failure.describe()


class TestDeltaTelemetry:
    def test_delta_span_and_report_section(self, warm_cache):
        engine = ExtractionEngine(workers=1, cache=FeatureCache(warm_cache))
        session = obs.configure()
        try:
            engine.extract_one(make_codebase(mutate=True))
            spans = list(session.tracer.spans)
            report = obs.format_run_report(session)
        finally:
            obs.disable()
        merge_spans = [s for s in spans
                       if s.name == "testbed.app" and s.attrs.get("delta")]
        assert len(merge_spans) == 1
        assert merge_spans[0].attrs["files_reused"] == N_FILES - 1
        assert merge_spans[0].attrs["files_recomputed"] == 1
        assert "delta:" in report
        assert "file records:" in report
        assert "changed=1" in report


class TestGatePathSharesScheduler:
    """``extract_with_records`` runs on the same units as ``run``.

    With ``workers=2`` and a cache, a cold single codebase fans its
    files out as file units through the pool rounds, so worker
    telemetry, the fault seam and ``task_timeout`` all apply.
    """

    @staticmethod
    def engine(tmp_path, **kwargs):
        return ExtractionEngine(
            workers=2, cache=FeatureCache(str(tmp_path / "cache")),
            **kwargs)

    def test_rows_and_records_match_serial_uncached(self, tmp_path):
        codebase = make_codebase()
        expected_row, expected_records = ExtractionEngine(
            workers=1).extract_with_records(codebase)
        engine = self.engine(tmp_path)
        for _ in range(2):  # cold, then every file record cached
            row, records = engine.extract_with_records(codebase)
            assert_byte_identical(row, expected_row)
            assert records == expected_records
            assert json.dumps(records) == json.dumps(expected_records)

    def test_worker_counters_and_spans_are_grafted(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        session = obs.configure()
        try:
            self.engine(tmp_path).extract_with_records(make_codebase())
            counters = session.metrics.snapshot()["counters"]
            spans = list(session.tracer.spans)
        finally:
            obs.disable()
        assert counters.get("testbed.files_analyzed") == N_FILES
        workers = [s for s in spans if s.name == "engine.worker"]
        assert sorted(s.attrs["file"] for s in workers) == \
            [f"src/m{i}.c" for i in range(N_FILES)]
        by_id = {s.span_id: s for s in spans}
        for span in workers:
            app = by_id[span.parent_id]
            assert app.name == "testbed.app"
            assert by_id[app.parent_id].name == "engine.extract"

    def test_only_the_records_mode_fans_out(self, tmp_path, monkeypatch):
        # extract_one keeps one in-process whole-app unit, and a cold
        # fan-out reuses nothing, so its merge is not tagged a delta.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        session = obs.configure()
        try:
            self.engine(tmp_path / "one").extract_one(make_codebase())
            one_spans = list(session.tracer.spans)
            self.engine(tmp_path / "gate").extract_with_records(
                make_codebase())
            gate_spans = list(session.tracer.spans)[len(one_spans):]
        finally:
            obs.disable()
        apps = [s for s in one_spans if s.name == "testbed.app"]
        assert len(apps) == 1
        assert not any("file" in s.attrs for s in one_spans
                       if s.name == "engine.worker")
        (merge,) = [s for s in gate_spans if s.name == "testbed.app"
                    and s.attrs.get("files_recomputed") == N_FILES]
        assert merge.attrs["delta"] is False

    def test_fault_seam_fires_and_names_the_file(self, tmp_path,
                                                 monkeypatch):
        from repro.engine import ExtractionError

        monkeypatch.setenv(FAULTS_ENV, "delta-app=crash")
        with pytest.raises(ExtractionError,
                           match=r"delta-app\[src/m\d\.c\]"):
            self.engine(tmp_path).extract_with_records(make_codebase())

    def test_task_timeout_bounds_a_hang(self, tmp_path, monkeypatch,
                                        timer):
        from repro.engine import TaskTimeout

        monkeypatch.setenv(FAULTS_ENV, "delta-app=hang:60")
        engine = self.engine(tmp_path, task_timeout=3.0)
        with timer() as elapsed:
            with pytest.raises(TaskTimeout, match="delta-app"):
                engine.extract_with_records(make_codebase())
        assert elapsed() < 30.0

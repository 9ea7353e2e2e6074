"""Extraction is cycle-free, and the collector pause around it is scoped.

``core.features`` disables Python's cyclic garbage collector for the
length of one extraction unit (``_collector_paused``). That is only safe
because extraction builds no reference cycles: every per-file object —
tokens, block CFGs and their flow facts, function tables, the analysis
artifact itself — is freed by refcount the moment the caller drops the
codebase. The first half of this module pins that; the second
pins the pause's own semantics.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from collections import Counter

import pytest

from repro.core import features
from repro.lang.sourcefile import Codebase, SourceFile

GOLDEN_TREE = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "golden", "tree")

#: One golden file per language.
GOLDEN_FILES = ("buffer.c", "widget.cpp", "Server.java", "app.py")

#: Per-file analysis types that must never end up in cyclic garbage.
#: ``cell`` catches recursive closures (a nested function that refers to
#: itself keeps its frame's cells alive in a cycle).
PER_FILE_TYPES = {"Token", "CFG", "_Blocks", "FunctionInfo", "ClassInfo",
                  "SourceFile", "FileArtifact", "cell"}


@pytest.fixture
def saved_garbage():
    """Run the body with the collector off and cyclic garbage saved.

    Yields a function that drops everything unreachable and returns the
    garbage found, by type name. The collector state and debug flags are
    restored afterwards.
    """
    was_enabled = gc.isenabled()
    old_flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def collect() -> Counter:
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
        # Saved garbage is still cyclic once the list lets go of it:
        # free it for real so the next call reports only new garbage.
        gc.garbage.clear()
        gc.set_debug(old_flags)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        return found

    try:
        yield collect
    finally:
        gc.set_debug(old_flags)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()


def _golden_source(name: str) -> SourceFile:
    with open(os.path.join(GOLDEN_TREE, name), encoding="utf-8") as handle:
        return SourceFile(name, handle.read())


def _small_app() -> Codebase:
    from repro.synth.appgen import GeneratorConfig, generate_app
    from repro.synth.cvegen import generate_profiles

    profile = min(generate_profiles(seed=3), key=lambda p: p.kloc)
    app = generate_app(profile, seed=3,
                       config=GeneratorConfig(max_lines=400, min_lines=200))
    return app.codebase


class TestNoCyclicGarbage:
    def test_file_record_leaves_no_cyclic_garbage(self, saved_garbage):
        # Warm-up: first calls may build module-level caches.
        for name in GOLDEN_FILES:
            features.file_record(_golden_source(name))
        saved_garbage()
        for name in GOLDEN_FILES:
            source = _golden_source(name)
            record = features.file_record(source)
            assert record["loc"]["code"] > 0
            del source, record
        assert saved_garbage() == Counter()

    def test_whole_app_leaves_no_per_file_cycles(self, saved_garbage):
        # Warm-up: networkx compiles its dispatch wrappers (closures that
        # are cyclic garbage once) on first use.
        features.extract_features(_small_app(), include_dynamic=True)
        saved_garbage()
        codebase = _small_app()
        assert len(codebase) > 1
        row = features.extract_features(codebase, include_dynamic=True)
        assert row["size.sample_loc"] > 0
        del codebase, row
        garbage = saved_garbage()
        # The call graph's networkx views are the only cyclic garbage
        # left; nothing per-file may be among it.
        assert not PER_FILE_TYPES & set(garbage), garbage


class TestPauseSemantics:
    def test_nesting_reenables_only_at_the_outermost_exit(self):
        assert gc.isenabled()
        with features._collector_paused():
            with features._collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_inside_the_region_restores(self):
        with pytest.raises(RuntimeError):
            with features._collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()
        assert features._pause_depth == 0

    def test_already_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            with features._collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_decorated_entry_points_run_paused(self, c_source):
        seen = []
        original = features._PER_FILE_COLLECTORS

        def probe(source):
            seen.append(gc.isenabled())
            return {}

        features._PER_FILE_COLLECTORS = original + (("probe", "probe",
                                                     probe),)
        try:
            features.file_record(c_source)
        finally:
            features._PER_FILE_COLLECTORS = original
        assert seen == [False]
        assert gc.isenabled()

    def test_overlapping_threads_reenable_once_both_left(self):
        a_inside = threading.Event()
        b_inside = threading.Event()
        a_may_leave = threading.Event()
        b_may_leave = threading.Event()
        a_left = threading.Event()

        def region(inside, may_leave, left=None):
            with features._collector_paused():
                inside.set()
                assert may_leave.wait(10)
            if left is not None:
                left.set()

        a = threading.Thread(target=region,
                             args=(a_inside, a_may_leave, a_left))
        b = threading.Thread(target=region, args=(b_inside, b_may_leave))
        a.start()
        assert a_inside.wait(10)
        b.start()
        assert b_inside.wait(10)
        try:
            assert not gc.isenabled()
            a_may_leave.set()
            assert a_left.wait(10)
            # B is still inside: A's exit must not turn the collector on.
            assert not gc.isenabled()
        finally:
            a_may_leave.set()
            b_may_leave.set()
            a.join(10)
            b.join(10)
        assert gc.isenabled()
        assert features._pause_depth == 0

    def test_stress_many_threads_never_reenable_inside_a_region(self):
        threads = 8
        rounds = 300
        inside_enabled = []
        errors = []
        barrier = threading.Barrier(threads)

        def worker():
            try:
                barrier.wait(10)
                for _ in range(rounds):
                    with features._collector_paused():
                        if gc.isenabled():
                            inside_enabled.append(True)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        assert inside_enabled == []
        assert features._pause_depth == 0
        assert gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_during_a_region_starts_enabled(self):
        read_end, write_end = os.pipe()
        with features._collector_paused():
            pid = os.fork()
            if pid == 0:  # child: report and leave without cleanup
                os.write(write_end, b"%d %d" % (
                    gc.isenabled(), features._pause_depth))
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            report = pipe.read()
        os.waitpid(pid, 0)
        assert report == b"1 0"
        assert gc.isenabled()

    def test_engine_pool_worker_collector_enabled_after_analyze(
            self, mixed_codebase):
        from repro.engine import EngineConfig
        from repro.serve.enginepool import EnginePool

        pool = EnginePool(EngineConfig(no_cache=True), size=1,
                          checkout_timeout=30.0)
        try:
            row = pool.extract_one(mixed_codebase)
            assert row["size.sample_loc"] > 0
            # One slot, so this runs on the worker that just extracted.
            workers = pool._workers
            assert workers.wait(workers.submit(gc.isenabled, ()), 30)
        finally:
            pool.close()

"""The engine pool in isolation: checkout, shedding, byte-identity.

The pool's contract is that a row extracted by any worker process is
indistinguishable from one extracted by the engine the offline CLI
builds — same config, same floats — and that a saturated pool refuses
quickly (:class:`PoolSaturated`) instead of queueing unboundedly.
"""

import threading

import pytest

from repro.engine import EngineConfig
from repro.lang import Codebase
from repro.serve import EnginePool, PoolSaturated

SOURCE = (
    "#include <string.h>\n"
    "int handle(char *req) {\n"
    "    char buf[32];\n"
    "    strcpy(buf, req);\n"
    "    return 0;\n"
    "}\n"
)


@pytest.fixture
def tree(tmp_path):
    d = tmp_path / "app"
    d.mkdir()
    (d / "app.c").write_text(SOURCE)
    return str(d)


@pytest.fixture
def codebase(tree):
    return Codebase.from_directory(tree)


@pytest.fixture
def pool():
    p = EnginePool(EngineConfig(no_cache=True), size=1,
                   checkout_timeout=5.0)
    yield p
    p.close()


class TestExtraction:
    def test_row_byte_identical_to_direct_engine(self, pool, codebase):
        pooled = pool.extract_one(codebase)
        direct = EngineConfig(no_cache=True).build().extract_one(codebase)
        assert pooled == direct
        assert all(isinstance(v, float) for v in pooled.values())

    def test_concurrent_extractions_all_agree(self, tree):
        pool = EnginePool(EngineConfig(no_cache=True), size=2)
        rows, lock = [], threading.Lock()

        def fire():
            row = pool.extract_one(Codebase.from_directory(tree))
            with lock:
                rows.append(row)

        try:
            threads = [threading.Thread(target=fire) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(rows) == 4
            assert all(row == rows[0] for row in rows)
        finally:
            pool.close()

    def test_records_path_matches_direct_engine(self, pool, codebase):
        row, records = pool.extract_with_records(codebase)
        direct_row, direct_records = EngineConfig(
            no_cache=True).build().extract_with_records(codebase)
        assert row == direct_row
        assert records == direct_records
        assert len(records) == len(codebase)
        assert pool.in_use == 0


class TestCheckout:
    def test_saturated_pool_sheds_within_timeout(self, codebase):
        pool = EnginePool(EngineConfig(no_cache=True), size=1,
                          checkout_timeout=0.2)
        # Hog the only slot so the next checkout must time out.
        assert pool._slots.acquire(timeout=1)
        try:
            with pytest.raises(PoolSaturated) as excinfo:
                pool.extract_one(codebase)
            assert excinfo.value.retry_after >= 1
        finally:
            pool._slots.release()
            pool.close()

    def test_slot_released_after_extraction(self, pool, codebase):
        pool.extract_one(codebase)
        assert pool.in_use == 0
        # A second extraction must find the slot free again.
        pool.extract_one(codebase)
        assert pool.in_use == 0


class TestLifecycle:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            EnginePool(size=0)
        with pytest.raises(ValueError):
            EnginePool(checkout_timeout=0.0)

    def test_extract_after_close_raises(self, codebase):
        pool = EnginePool(EngineConfig(no_cache=True), size=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.extract_one(codebase)

    def test_close_is_idempotent(self):
        pool = EnginePool(EngineConfig(no_cache=True), size=1)
        pool.close()
        pool.close()

    def test_describe_shape(self, pool):
        shape = pool.describe()
        assert shape["size"] == 1
        assert shape["in_use"] == 0
        assert shape["checkout_timeout"] == 5.0
        assert shape["rebuilds_left"] == 1
        assert shape["broken"] is False
        assert shape["engine"]["workers"] == 1

    def test_prestart_spawns_workers(self, pool, codebase):
        pool.prestart()
        assert pool.extract_one(codebase)


class TestWorkerDeath:
    def test_second_death_marks_pool_broken_and_health_degraded(
            self, store, tmp_path, monkeypatch):
        """One worker death is rebuilt and retried; the second exhausts
        the rebuild budget, and /healthz must stop saying ok."""
        from repro import obs
        from repro.serve import AsyncPredictionServer

        trees = {}
        for name in ("survivor", "doomed"):
            directory = tmp_path / name
            directory.mkdir()
            (directory / "app.c").write_text(SOURCE)
            trees[name] = Codebase.from_directory(str(directory))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"survivor=kill_once:{tmp_path / 'spent'};doomed=kill")
        server = AsyncPredictionServer(
            store, config=EngineConfig(no_cache=True), port=0,
            pool_size=1)
        try:
            assert server.pool.extract_one(trees["survivor"])
            health = server.health()
            assert health["status"] == "ok"
            assert health["pool"]["rebuilds_left"] == 0
            assert health["pool"]["broken"] is False

            with pytest.raises(RuntimeError, match="died twice"):
                server.pool.extract_one(trees["doomed"])
            health = server.health()
            assert health["status"] == "degraded"
            assert health["pool"]["rebuilds_left"] == 0
            assert health["pool"]["broken"] is True
            # a broken pool refuses at once instead of resubmitting
            with pytest.raises(RuntimeError, match="died twice"):
                server.pool.extract_with_records(trees["survivor"])
            assert server.pool.in_use == 0
        finally:
            server.stop()
            obs.disable()


def _tree(tmp_path, name):
    directory = tmp_path / name
    directory.mkdir()
    (directory / "app.c").write_text(SOURCE)
    return Codebase.from_directory(str(directory))


class TestDeadline:
    def test_hung_request_times_out_and_keeps_the_rebuild_budget(
            self, tmp_path, monkeypatch):
        """The configured task_timeout is each request's deadline: the
        hung worker is killed, and the kill is not a worker death."""
        import time
        import warnings

        from repro.engine import TaskTimeout

        slow, healthy = _tree(tmp_path, "slow-app"), _tree(tmp_path, "app")
        direct = EngineConfig(no_cache=True).build().extract_one(healthy)
        monkeypatch.setenv("REPRO_FAULTS", "slow-app=hang:60")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pool = EnginePool(EngineConfig(task_timeout=2.0, no_cache=True),
                              size=1)
            try:
                start = time.monotonic()
                with pytest.raises(TaskTimeout, match="slow-app"):
                    pool.extract_one(slow)
                assert time.monotonic() - start < 30
                shape = pool.describe()
                assert shape["rebuilds_left"] == 1
                assert shape["broken"] is False
                assert shape["engine"]["task_timeout"] == 2.0
                assert pool.extract_one(healthy) == direct
                assert pool.in_use == 0
            finally:
                pool.close()
        assert not [w for w in caught if w.category is RuntimeWarning]


class TestSharedDeath:
    def test_two_requests_on_one_dead_executor_are_one_death(
            self, tmp_path, monkeypatch):
        """Request B is in flight when request A's worker dies: both
        see the break, both resubmit, and only one rebuild is spent."""
        import time

        from repro import obs

        killer, sleeper = _tree(tmp_path, "killer"), _tree(tmp_path, "sleeper")
        engine = EngineConfig(no_cache=True).build()
        direct = {"killer": engine.extract_one(killer),
                  "sleeper": engine.extract_one(sleeper)}
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"killer=kill_once:{tmp_path / 'spent'};sleeper=hang:3")
        obs.configure()
        pool = EnginePool(EngineConfig(no_cache=True), size=2)
        rows, errors = {}, []

        def fire(codebase):
            try:
                rows[codebase.name] = pool.extract_one(codebase)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        try:
            pool.prestart()
            threads = [threading.Thread(target=fire, args=(sleeper,))]
            threads[0].start()
            time.sleep(1.0)  # the sleeper is now hanging in its worker
            threads.append(threading.Thread(target=fire, args=(killer,)))
            threads[1].start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            counters = obs.active().metrics.snapshot()["counters"]
            shape = pool.describe()
        finally:
            pool.close()
            obs.disable()
        assert errors == []
        assert rows == direct
        assert counters.get("serve.pool.rebuilds") == 1
        assert shape["rebuilds_left"] == 0
        assert shape["broken"] is False

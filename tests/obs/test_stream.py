"""Telemetry stream: emit/read round-trip, rotation, replay."""

import gc
import json
import threading

import pytest

from repro import obs
from repro.obs.stream import (
    TELEMETRY_VERSION,
    TelemetryStream,
    read_events,
    replay_registry,
    replay_snapshot,
    stream_files,
)


@pytest.fixture(autouse=True)
def clean_session():
    obs.disable()
    yield
    obs.disable()


class TestEmitAndRead:
    def test_round_trip_preserves_events(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path)
        stream.emit("counter", name="serve.requests", delta=1.0)
        stream.emit("gauge", name="queue.depth", value=4.0)
        stream.emit("observe", name="serve.predict.seconds", value=0.01)
        stream.emit("event", name="serve.shed", fields={"retry_after": 1})
        stream.close()
        events = read_events(path)
        assert [e["type"] for e in events] == \
            ["counter", "gauge", "observe", "event"]
        assert events[0]["name"] == "serve.requests"
        assert events[0]["delta"] == 1.0
        assert events[3]["fields"] == {"retry_after": 1}

    def test_every_event_stamps_version_and_timestamp(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path)
        stream.emit("counter", name="x", delta=1.0)
        stream.close()
        (event,) = read_events(path)
        assert event["v"] == TELEMETRY_VERSION
        assert event["ts"] > 0

    def test_each_line_is_standalone_json(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path)
        for i in range(5):
            stream.emit("counter", name="x", delta=float(i))
        stream.close()
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 5
        for line in lines:
            json.loads(line)

    def test_torn_and_garbage_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path)
        stream.emit("counter", name="good", delta=1.0)
        stream.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"v": 1, "ts": 0, "type": "counter", "na')  # torn
        events = read_events(path)
        assert len(events) == 1
        assert events[0]["name"] == "good"

    def test_emit_survives_unwritable_path(self, tmp_path):
        path = str(tmp_path / "gone" / "deeper" / "stream.jsonl")
        stream = TelemetryStream(path)
        stream.emit("counter", name="x", delta=1.0)  # must not raise
        stream.close()


class TestRotation:
    def test_rotates_before_exceeding_max_bytes(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path, max_bytes=200, keep=3)
        for i in range(20):
            stream.emit("counter", name="metric", delta=float(i))
        stream.close()
        files = stream_files(path)
        assert len(files) > 1
        assert files[-1] == path
        import os
        for part in files:
            assert os.path.getsize(part) <= 200

    def test_read_events_reassembles_oldest_first(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path, max_bytes=200, keep=10)
        for i in range(20):
            stream.emit("counter", name="metric", delta=float(i))
        stream.close()
        deltas = [e["delta"] for e in read_events(path)]
        assert deltas == [float(i) for i in range(20)]

    def test_keep_bounds_generations(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path, max_bytes=120, keep=2)
        for i in range(60):
            stream.emit("counter", name="metric", delta=float(i))
        stream.close()
        assert len(stream_files(path)) <= 3  # live + keep generations

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryStream(str(tmp_path / "s.jsonl"), max_bytes=0)


class TestReplay:
    def test_replay_reaccumulates_counters_and_histograms(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        stream = TelemetryStream(path)
        for _ in range(3):
            stream.emit("counter", name="serve.requests", delta=1.0)
        stream.emit("gauge", name="queue.depth", value=2.0)
        stream.emit("gauge", name="queue.depth", value=7.0)
        for value in (0.01, 0.02, 0.03):
            stream.emit("observe", name="serve.predict.seconds", value=value)
        stream.close()
        snapshot = replay_snapshot(path)
        assert snapshot["counters"]["serve.requests"] == 3.0
        assert snapshot["gauges"]["queue.depth"] == 7.0
        summary = snapshot["histograms"]["serve.predict.seconds"]
        assert summary["count"] == 3
        assert summary["max"] == pytest.approx(0.03)

    def test_span_events_refill_duration_histograms(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        session = obs.configure(stream_path=path)
        with obs.span("analysis.cfg"):
            pass
        obs.disable()
        registry = replay_registry(read_events(path))
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["span.analysis.cfg.seconds"][
            "count"] == 1
        assert session.metrics.snapshot()["histograms"][
            "span.analysis.cfg.seconds"]["count"] == 1

    def test_malformed_events_are_skipped(self):
        events = [
            {"type": "counter", "name": "good", "delta": 2.0},
            {"type": "counter", "name": "bad"},  # no delta
            {"type": "observe", "name": "h", "value": "not-a-number"},
            {"type": "span", "span": {"name": "s"}},  # no duration
        ]
        snapshot = replay_registry(events).snapshot()
        assert snapshot["counters"] == {"good": 2.0}

    def test_replayed_totals_match_live_under_concurrent_increments(
            self, tmp_path):
        """The counter-delta contract: N threads incrementing through
        the facade must replay to exactly the live total."""
        path = str(tmp_path / "stream.jsonl")
        session = obs.configure(stream_path=path)
        threads = 8
        per_thread = 50
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                obs.incr("serve.requests")

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        live = session.metrics.snapshot()["counters"]["serve.requests"]
        obs.disable()
        replayed = replay_snapshot(path)["counters"]["serve.requests"]
        assert live == threads * per_thread
        assert replayed == live


class TestFacadeStreaming:
    def test_facade_writes_all_event_kinds(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        obs.configure(stream_path=path)
        obs.incr("c", 2.0)
        obs.gauge("g", 1.5)
        obs.observe("h", 0.25)
        obs.event("e", detail="x")
        with obs.span("work"):
            pass
        obs.disable()
        kinds = sorted(e["type"] for e in read_events(path))
        assert kinds == ["counter", "event", "gauge", "observe", "span"]

    def test_event_is_stream_only(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        # A collection would add runtime.gc.* counters to the session.
        gc.disable()
        try:
            session = obs.configure(stream_path=path)
            obs.event("engine.pool_rebuild", suspects=["app"])
            snapshot = session.metrics.snapshot()
            obs.disable()
        finally:
            gc.enable()
        assert snapshot["counters"] == {}
        (event,) = read_events(path)
        assert event["fields"] == {"suspects": ["app"]}

    def test_no_stream_means_no_file(self, tmp_path):
        obs.configure()
        obs.incr("c")
        obs.event("e")
        obs.disable()
        assert list(tmp_path.iterdir()) == []

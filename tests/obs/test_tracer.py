"""Tracer, span nesting, facade enable/disable, and span records."""

import json
import time

import pytest

from repro import obs
from repro.obs import NULL_SPAN, Tracer
from repro.obs.stream import SPAN_RECORD_KEYS, TelemetryStream, read_events


@pytest.fixture(autouse=True)
def clean_session():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestTracer:
    def test_span_records_duration(self):
        tracer = Tracer()
        with tracer.span("work"):
            time.sleep(0.002)
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.duration >= 0.002
        assert span.parent_id is None

    def test_nesting_links_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # children finish first
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                time.sleep(0.002)
        assert outer.child_time >= 0.002
        assert outer.self_time == pytest.approx(
            outer.duration - outer.child_time
        )

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_attrs_and_set_attr(self):
        tracer = Tracer()
        with tracer.span("op", file="x.c") as span:
            span.set_attr("lines", 10)
        assert span.attrs == {"file": "x.c", "lines": 10}

    def test_exception_marks_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.spans
        assert span.attrs["error"] == "ValueError"

    def test_spans_named(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("fold"):
                pass
        with tracer.span("other"):
            pass
        assert len(tracer.spans_named("fold")) == 3

    def test_on_finish_callback(self):
        seen = []
        tracer = Tracer(on_finish=seen.append)
        with tracer.span("x"):
            pass
        assert [s.name for s in seen] == ["x"]


class TestFacade:
    def test_disabled_returns_null_span(self):
        assert obs.span("anything", attr=1) is NULL_SPAN
        assert not obs.is_enabled()
        # metric helpers are silent no-ops
        obs.incr("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 2.0)

    def test_null_span_is_inert_context_manager(self):
        with obs.span("x") as span:
            span.set_attr("k", "v")
        assert span is NULL_SPAN
        assert span.duration == 0.0

    def test_configure_enables_and_disable_returns_session(self):
        session = obs.configure()
        assert obs.is_enabled()
        assert obs.active() is session
        with obs.span("op"):
            pass
        obs.incr("count", 2)
        assert obs.disable() is session
        assert not obs.is_enabled()
        assert len(session.tracer.spans) == 1
        assert session.metrics.counters["count"].value == 2

    def test_finished_spans_feed_duration_histograms(self):
        session = obs.configure()
        with obs.span("analysis.cfg"):
            pass
        hist = session.metrics.histograms["span.analysis.cfg.seconds"]
        assert hist.count == 1
        assert hist.values[0] >= 0.0


class TestExport:
    """Finished spans reach the telemetry stream as span records."""

    def test_jsonl_schema(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        obs.configure(stream_path=path)
        with obs.span("outer", app="demo"):
            with obs.span("inner"):
                pass
        obs.disable()
        events = read_events(path)
        assert [event["type"] for event in events] == ["span", "span"]
        # completion order: the inner span finishes first
        inner, outer = (event["span"] for event in events)
        for record in (outer, inner):
            assert sorted(record) == sorted(SPAN_RECORD_KEYS)
            assert isinstance(record["name"], str)
            assert isinstance(record["start"], float)
            assert isinstance(record["duration"], float)
            assert isinstance(record["attrs"], dict)
        assert outer["name"] == "outer"
        assert inner["name"] == "inner"
        assert outer["parent"] is None
        assert outer["attrs"] == {"app": "demo"}
        assert inner["parent"] == outer["span_id"]

    def test_lines_are_valid_json(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        stream = TelemetryStream(path)
        tracer = Tracer(on_finish=lambda span: stream.emit_span(
            span.to_dict()))
        with tracer.span("op", obj=object()):
            pass
        stream.close()
        with open(path, encoding="utf-8") as handle:
            (line,) = handle.read().splitlines()
        record = json.loads(line)["span"]
        # non-scalar attrs are repr()'d, not dropped
        assert record["attrs"]["obj"].startswith("<object")

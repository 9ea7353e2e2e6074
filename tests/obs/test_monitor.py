"""Dashboard rendering (pure) and the monitor polling loop."""

import io

from repro.obs.monitor import render_dashboard, run_monitor
from repro.obs.slo import SloRule


def snapshot(counters=None, histograms=None):
    return {"counters": counters or {}, "gauges": {},
            "histograms": histograms or {}}


SERVING = snapshot(
    counters={"serve.requests": 100.0, "serve.errors": 5.0,
              "serve.aio.shed": 2.0, "engine.extracted": 40.0,
              "engine.cache.hits": 30.0, "engine.cache.misses": 10.0},
    histograms={
        "serve.predict.seconds": {
            "count": 90, "total": 1.8, "mean": 0.02, "min": 0.001,
            "p50": 0.01, "p95": 0.05, "p99": 0.09, "max": 0.2},
        "serve.batch_size": {
            "count": 12, "total": 90.0, "mean": 7.5, "min": 1.0,
            "p50": 8.0, "p95": 16.0, "p99": 16.0, "max": 16.0},
    })


class TestRenderDashboard:
    def test_header_and_request_line(self):
        frame = render_dashboard(SERVING, source="http://x/metricz",
                                 clock=0.0)
        assert frame.startswith("repro monitor — http://x/metricz — ")
        assert "requests  total=100" in frame
        assert "errors=5 (5.0%)" in frame
        assert "shed=2 (2.0%)" in frame

    def test_latency_table_lists_serve_histograms(self):
        frame = render_dashboard(SERVING, clock=0.0)
        assert "latency (ms)" in frame
        assert "/predict" in frame
        assert "10.00" in frame  # p50 in milliseconds
        # non-latency histograms stay out of the table
        assert "/batch_size" not in frame

    def test_shed_sums_every_refusal_counter(self):
        frame = render_dashboard(snapshot(counters={
            "serve.requests": 10.0, "serve.aio.shed": 2.0,
            "serve.pool.shed": 1.0}), clock=0.0)
        assert "shed=3 (30.0%)" in frame

    def test_rates_derive_from_previous_snapshot(self):
        previous = snapshot(counters={"serve.requests": 40.0})
        frame = render_dashboard(SERVING, previous=previous, elapsed=2.0,
                                 clock=0.0)
        assert "rate=30.0/s" in frame

    def test_first_frame_has_no_rate(self):
        frame = render_dashboard(SERVING, clock=0.0)
        assert "rate=-" in frame

    def test_cache_section(self):
        frame = render_dashboard(SERVING, clock=0.0)
        assert "cache     rows hit=75.0% (30/40)" in frame

    def test_no_batching_section(self):
        # /predict scores inline; an old daemon's serve.batch_size
        # histogram is not rendered as a section of its own
        assert "batching" not in render_dashboard(SERVING, clock=0.0)

    def test_slo_section_renders_verdict(self):
        rule = SloRule(name="error-budget", kind="counter_max",
                       counter="serve.errors", max_value=1)
        frame = render_dashboard(SERVING, slo_rules=[rule], clock=0.0)
        assert "slo: DEGRADED — breached: error-budget" in frame

    def test_empty_snapshot_renders(self):
        frame = render_dashboard(snapshot(), clock=0.0)
        assert "requests  total=0" in frame


class TestRunMonitor:
    def test_once_renders_single_frame_without_clearing(self):
        out = io.StringIO()
        code = run_monitor(lambda: SERVING, source="stream", once=True,
                           out=out)
        assert code == 0
        frame = out.getvalue()
        assert frame.count("repro monitor") == 1
        assert "\x1b[2J" not in frame

    def test_max_frames_bounds_the_loop(self):
        out = io.StringIO()
        calls = []

        def fetch():
            calls.append(1)
            return SERVING

        code = run_monitor(fetch, interval=0.0, out=out, clear=False,
                           max_frames=3)
        assert code == 0
        assert len(calls) == 3
        assert out.getvalue().count("repro monitor") == 3

    def test_fetch_failure_renders_error_frame_and_continues(self):
        out = io.StringIO()
        attempts = []

        def fetch():
            attempts.append(1)
            if len(attempts) == 1:
                raise ConnectionError("daemon restarting")
            return SERVING

        code = run_monitor(fetch, interval=0.0, out=out, clear=False,
                           max_frames=2)
        assert code == 0
        text = out.getvalue()
        assert "fetch failed: ConnectionError: daemon restarting" in text
        assert "requests  total=100" in text

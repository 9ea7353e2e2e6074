"""Tests for the benchmark harness: statistics, seeded inputs, accounting.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import http.server
import math
import random
import threading

import pytest

from perfbench import harness, inputs


# -- percentiles and the ten-beyond rule -----------------------------------


def beyond(n, q):
    """Samples strictly after the nearest-rank cut of percentile q."""
    return n - math.ceil(q * n / 100)


@pytest.mark.parametrize("n,q", [(100, 90), (40, 75), (50, 80), (96, 89),
                                 (1000, 99), (11, 9), (20, 50)])
def test_max_supported_percentile_known_values(n, q):
    assert harness.max_supported_percentile(n) == q


def test_max_supported_percentile_keeps_ten_beyond_and_is_maximal():
    for n in range(harness.MIN_BEYOND + 1, 2500):
        q = harness.max_supported_percentile(n)
        assert beyond(n, q) >= harness.MIN_BEYOND
        if q < 99:
            assert beyond(n, q + 1) < harness.MIN_BEYOND


def test_no_tail_without_enough_samples():
    for n in range(0, harness.MIN_BEYOND + 1):
        assert harness.max_supported_percentile(n) == 0


@pytest.mark.parametrize("q,n", [(90, 100), (75, 40), (80, 50)])
def test_min_samples_for(q, n):
    assert harness.min_samples_for(q) == n
    assert harness.max_supported_percentile(n - 1) < q


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_outcomes_describe_reports_supported_tail_and_count():
    outcomes = harness.Outcomes("op")
    for i in range(40):
        outcomes.ok(i, (i + 1) / 1000.0)
    described = outcomes.describe()
    assert described["n"] == 40
    assert described["p75_ms"] == pytest.approx(30.0)
    assert "p76_ms" not in described


# -- measuring window -------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_window_runs_for_seconds_then_until_min_ops():
    clock = FakeClock()
    window = harness.Window(10, min_ops=5, hard_cap=30, clock=clock)
    assert window.more(0)
    clock.now = 11
    assert window.more(4)
    assert not window.more(5)


def test_window_hard_cap_ends_it_regardless():
    clock = FakeClock()
    window = harness.Window(10, min_ops=1000, hard_cap=30, clock=clock)
    clock.now = 30
    assert not window.more(3)


# -- seeded inputs ----------------------------------------------------------


SOURCES = {
    "a/main.c": "int main(void) {\n    int x = 4;\n    return x;\n}\n",
    "a/util.cpp": "int twice(int v) {\n    return v * 2;\n}\n",
    "b/App.java": ("public class App {\n    public int run() {\n"
                   "        int n = 10;\n        return n;\n    }\n}\n"),
    "b/tool.py": "def tool(v):\n    total = 3\n    return v + total\n",
}
LANGUAGES = {"a/main.c": "c", "a/util.cpp": "cpp", "b/App.java": "java",
             "b/tool.py": "python"}


def first_edits(seed, count=24):
    series = inputs.edit_series(SOURCES, LANGUAGES, seed)
    return [next(series) for _ in range(count)]


def test_edit_series_is_identical_for_the_same_seed():
    assert first_edits(5) == first_edits(5)
    assert first_edits(5) != first_edits(6)


def test_edit_series_mixes_kinds_in_shuffled_blocks():
    edits = first_edits(9, count=30)
    for start in range(0, 30, 3):
        block = [edit.kind for edit in edits[start:start + 3]]
        assert sorted(block) == sorted(inputs.EDIT_KINDS)
    assert [edit.index for edit in edits] == list(range(30))


def test_edit_series_leaves_its_input_alone_and_accumulates():
    before = dict(SOURCES)
    current = dict(SOURCES)
    for edit in first_edits(2, count=12):
        assert edit.text != current[edit.path]
        current[edit.path] = edit.text
    assert SOURCES == before


def test_function_edit_stays_inside_the_java_class():
    text, realised = inputs.apply_edit(SOURCES["b/App.java"], "java",
                                       "function", 3, random.Random(0))
    assert realised == "function"
    assert text.rstrip().endswith("}")
    assert text.index("bench_added_3") < text.rstrip().rindex("}")


def test_statement_edit_changes_an_indented_literal():
    text, realised = inputs.apply_edit(SOURCES["a/main.c"], "c",
                                       "statement", 0, random.Random(0))
    assert realised == "statement"
    assert text != SOURCES["a/main.c"]
    assert text.count("\n") == SOURCES["a/main.c"].count("\n")


def test_statement_edit_without_a_site_falls_back_to_a_comment():
    text, realised = inputs.apply_edit("def f():\n    pass\n", "python",
                                       "statement", 1, random.Random(0))
    assert realised == "comment"
    assert "# edit 1" in text


def first_cycles(seed, connection, count=20):
    cycles = inputs.mix_cycles(seed, connection,
                               {"predict": 28, "analyze": 16, "gate": 6})
    return [next(cycles) for _ in range(count)]


def test_mix_cycles_are_seeded_and_hold_the_exact_mix():
    assert first_cycles(4, 0) == first_cycles(4, 0)
    assert first_cycles(4, 0) != first_cycles(4, 1)
    assert first_cycles(4, 0) != first_cycles(5, 0)
    for cycle in first_cycles(4, 0):
        counts = {name: 0 for name, _ in inputs.CYCLE_MIX}
        for request in cycle:
            counts[request.endpoint] += 1
        assert counts == dict(inputs.CYCLE_MIX)


class FakeApp:
    def __init__(self, name, lines):
        self.name = name
        self.lines = lines


def test_stratified_pick_is_seeded_and_spans_the_sizes():
    apps = [FakeApp(f"app-{i:03d}", i) for i in range(100)]

    def pick(seed):
        return inputs.stratified_pick(apps, lambda app: app.lines, 10,
                                      random.Random(seed))
    assert pick(1) == pick(1)
    assert pick(1) != pick(2)
    for stratum, app in enumerate(pick(1)):
        assert stratum * 10 <= app.lines < (stratum + 1) * 10


# -- failure accounting -----------------------------------------------------


EXPECTED = b'{"ok": true}\n'


class Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/drop":
            self.close_connection = True
            return  # no response at all: the client sees a dropped line
        status, body = {
            "/ok": (200, EXPECTED),
            "/shed": (503, b'{"error": "saturated"}\n'),
            "/boom": (500, b'{"error": "internal"}\n'),
            "/wrong": (200, b'{"ok": false}\n'),
        }[self.path]
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def servemix():
    from perfbench import servemix
    return servemix


@pytest.mark.parametrize("path,reason", [
    ("/shed", "shed: 503"),
    ("/boom", "http: 500"),
    ("/drop", "connection: RemoteDisconnected"),
    ("/wrong", "check: response bytes differ"),
])
def test_each_failure_counts_once_and_is_no_sample(server, servemix, path,
                                                   reason):
    client = servemix.Client(server)
    outcomes = harness.Outcomes("endpoint")
    target = servemix.Target(path, {"x": 1}, EXPECTED)
    assert servemix.issue(client, target, outcomes, op=1) is None
    assert outcomes.failed == 1
    assert outcomes.attempted == 1
    assert outcomes.samples == []
    assert dict(outcomes.failures) == {reason: 1}
    # The client recovers and the next request is a normal sample.
    ok = servemix.Target("/ok", {"x": 1}, EXPECTED)
    assert servemix.issue(client, ok, outcomes, op=2) is not None
    assert outcomes.succeeded == 1
    assert outcomes.attempted == 2
    client.reset()


def test_failed_output_check_withdraws_the_sample():
    outcomes = harness.Outcomes("app")
    outcomes.ok("a", 0.5)
    outcomes.ok("b", 0.7)
    outcomes.check("a", True, "check: replay mismatch")
    outcomes.check("b", False, "check: replay mismatch")
    assert outcomes.samples == [0.5]
    assert outcomes.failed == 1
    assert outcomes.attempted == 2
    with pytest.raises(KeyError):
        outcomes.check("missing", False, "check: replay mismatch")


def test_report_error_rate_counts_failures_over_attempts():
    report = harness.Report("w")
    outcomes = harness.Outcomes("op")
    for i in range(9):
        outcomes.ok(i, 0.1)
    outcomes.fail(9, "shed: 503")
    report.outcomes.append(outcomes)
    assert report.attempted == 10
    assert report.failed == 1
    assert report.error_rate() == pytest.approx(0.1)

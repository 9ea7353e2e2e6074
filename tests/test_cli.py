"""CLI tests (invoking main() in-process)."""

import json
import pickle

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def obs_disabled():
    """main() manages its own obs session; never leak one across tests."""
    obs.disable()
    yield
    obs.disable()

RISKY_C = (
    "#include <string.h>\n"
    "int handle(char *req) {\n"
    "    char buf[32];\n"
    "    strcpy(buf, req);\n"
    "    system(req);\n"
    "    return 0;\n"
    "}\n"
)

SAFE_C = (
    "#include <string.h>\n"
    "int handle(const char *req, char *out, unsigned cap) {\n"
    "    strncpy(out, req, cap - 1);\n"
    "    out[cap - 1] = 0;\n"
    "    return 0;\n"
    "}\n"
)


@pytest.fixture
def risky_tree(tmp_path):
    d = tmp_path / "risky"
    d.mkdir()
    (d / "app.c").write_text(RISKY_C)
    return str(d)


@pytest.fixture
def safe_tree(tmp_path):
    d = tmp_path / "safe"
    d.mkdir()
    (d / "app.c").write_text(SAFE_C)
    return str(d)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, small_training):
    path = tmp_path_factory.mktemp("model") / "m.pkl"
    with open(path, "wb") as handle:
        pickle.dump(small_training.model, handle)
    return str(path)


class TestAnalyze:
    def test_prints_metrics(self, risky_tree, capsys):
        assert main(["analyze", risky_tree]) == 0
        out = capsys.readouterr().out
        assert "complexity.per_kloc" in out
        assert "bugs.rule.unbounded-copy/strcpy_per_kloc" in out

    def test_dynamic_flag(self, risky_tree, capsys):
        assert main(["analyze", risky_tree, "--dynamic"]) == 0
        assert "dynamic.node_coverage" in capsys.readouterr().out

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no recognised"):
            main(["analyze", str(tmp_path)])

    def test_json_output(self, risky_tree, capsys):
        assert main(["analyze", risky_tree, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "risky"
        assert payload["files"] == 1
        assert payload["primary_language"] == "c"
        features = payload["features"]
        assert list(features) == sorted(features)
        assert features["bugs.rule.unbounded-copy/strcpy_per_kloc"] > 0
        assert isinstance(features["complexity.per_kloc"], float)

    def test_json_matches_text_values(self, risky_tree, capsys):
        assert main(["analyze", risky_tree, "--json"]) == 0
        features = json.loads(capsys.readouterr().out)["features"]
        assert main(["analyze", risky_tree]) == 0
        text = capsys.readouterr().out
        assert f"{features['size.sample_loc']:12.4f}" in text


def stream_spans(path):
    """The span records of a telemetry stream file (the run's trace)."""
    return [event["span"] for event in obs.read_events(path)
            if event["type"] == "span"]


class TestObservabilityFlags:
    def test_trace_writes_valid_jsonl(self, risky_tree, tmp_path):
        """The stream's span events are the run's trace."""
        stream = str(tmp_path / "telemetry.jsonl")
        # --no-cache keeps analyzer spans present even when the suite
        # runs with a warm REPRO_CACHE_DIR (the CI engine matrix leg).
        assert main(["--stream", stream, "analyze", risky_tree,
                     "--no-cache"]) == 0
        records = stream_spans(stream)
        assert records, "stream holds no spans"
        for record in records:
            assert sorted(record) == ["attrs", "duration", "name",
                                      "parent", "span_id", "start",
                                      "trace_id"]
        names = {r["name"] for r in records}
        assert "testbed.extract_features" in names
        assert "analysis.cfg" in names
        # nested spans link to a recorded parent
        ids = {r["span_id"] for r in records}
        assert all(r["parent"] in ids for r in records
                   if r["parent"] is not None)

    def test_trace_flag_after_subcommand(self, risky_tree, tmp_path):
        stream = str(tmp_path / "t.jsonl")
        assert main(["analyze", risky_tree, "--stream", stream]) == 0
        assert stream_spans(stream)

    def test_trace_unwritable_path_fails_cleanly(self, risky_tree, capsys):
        """An unwritable stream fails the run before the command runs."""
        code = main(["analyze", risky_tree,
                     "--stream", "/nonexistent-dir/t.jsonl"])
        assert code == 1
        out, err = capsys.readouterr()
        assert "error: cannot write telemetry stream to " \
            "'/nonexistent-dir/t.jsonl'" in err
        assert out == ""
        assert not obs.is_enabled()

    def test_unwritable_stream_fails_serve_before_it_starts(self, capsys):
        # The model path is bogus too: loading it would exit with a
        # model error, so exit 1 with the stream error shows the run
        # stopped before the daemon was built.
        code = main(["--stream", "/nonexistent-dir/t.jsonl", "serve",
                     "--model", "/nonexistent-dir/m.pkl", "--port", "0"])
        assert code == 1
        assert "cannot write telemetry stream" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--trace", "t.jsonl", "analyze", "."],
        ["analyze", ".", "--trace", "t.jsonl"],
        ["serve", "--model", "m.pkl", "--access-log", "a.jsonl"],
    ])
    def test_removed_telemetry_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_profile_prints_telemetry(self, risky_tree, capsys):
        assert main(["analyze", risky_tree, "--profile",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "repro telemetry" in out
        assert "per-phase / per-analyzer breakdown" in out
        assert "analysis.cfg" in out
        assert "testbed.files_analyzed" in out

    def test_profile_survey(self, capsys):
        assert main(["--profile", "survey", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "papers per evaluation style" in out
        assert "repro telemetry" in out

    def test_obs_disabled_after_run(self, risky_tree, capsys):
        assert main(["analyze", risky_tree, "--profile"]) == 0
        assert not obs.is_enabled()

    def test_no_flags_no_telemetry(self, risky_tree, capsys):
        assert main(["analyze", risky_tree]) == 0
        assert "repro telemetry" not in capsys.readouterr().out


class TestAssess:
    def test_with_saved_model(self, risky_tree, model_path, capsys):
        assert main(["assess", risky_tree, "--model", model_path]) == 0
        out = capsys.readouterr().out
        assert "Security assessment" in out
        assert "classification hypotheses" in out

    def test_bad_model_file(self, risky_tree, tmp_path):
        bogus = tmp_path / "bogus.pkl"
        with open(bogus, "wb") as handle:
            pickle.dump({"not": "a model"}, handle)
        with pytest.raises(SystemExit, match="not a saved model"):
            main(["assess", risky_tree, "--model", str(bogus)])

    def test_corrupt_model_file(self, risky_tree, tmp_path):
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"\x80\x04this is not a pickle at all")
        with pytest.raises(SystemExit, match="not a readable model file"):
            main(["assess", risky_tree, "--model", str(corrupt)])

    def test_truncated_model_file(self, risky_tree, tmp_path, model_path):
        truncated = tmp_path / "truncated.pkl"
        truncated.write_bytes(open(model_path, "rb").read()[:64])
        with pytest.raises(SystemExit, match="not a readable model file"):
            main(["assess", risky_tree, "--model", str(truncated)])

    def test_model_format_version_stamped(self, model_path):
        from repro.core.model import SecurityModel

        with open(model_path, "rb") as handle:
            model = pickle.load(handle)
        assert model.format_version == SecurityModel.FORMAT_VERSION

    def test_model_format_version_mismatch(self, risky_tree, tmp_path,
                                           model_path):
        with open(model_path, "rb") as handle:
            model = pickle.load(handle)
        model.format_version = 0  # simulate a stale on-disk format
        stale = tmp_path / "stale.pkl"
        with open(stale, "wb") as handle:
            pickle.dump(model, handle)
        with pytest.raises(SystemExit, match="model format version"):
            main(["assess", risky_tree, "--model", str(stale)])


class TestExitCodes:
    """The documented exit-code contract, pinned as a regression test."""

    def test_constants_are_stable(self):
        from repro import cli

        assert cli.EXIT_OK == 0
        assert cli.EXIT_FAILURES == 1
        assert cli.EXIT_USAGE == 2
        assert cli.EXIT_GATE_BREACH == 3

    def test_argparse_usage_errors_use_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2


class TestGateAndCompare:
    def test_gate_identical_passes(self, risky_tree, model_path, capsys):
        code = main(["gate", risky_tree, risky_tree, "--model", model_path])
        assert code == 0
        assert "gate: pass" in capsys.readouterr().out

    def test_gate_model_mode_breach_exit_code(self, risky_tree, safe_tree,
                                              model_path, capsys):
        # Any delta is strictly above a -1 threshold, so this pins the
        # breach path (exit 3) without depending on what the tiny
        # fixture trees score under the session model.
        code = main(["gate", safe_tree, risky_tree, "--model", model_path,
                     "--threshold", "-1.0"])
        assert code == 3
        out = capsys.readouterr().out
        assert "gate: BREACH" in out
        assert "mode: model" in out

    def test_gate_features_only_needs_no_model(self, risky_tree,
                                               safe_tree, capsys):
        code = main(["gate", safe_tree, risky_tree, "--features-only",
                     "--threshold", "0.0"])
        assert code == 3
        out = capsys.readouterr().out
        assert "mode: features" in out
        assert "risk UP" in out

    def test_gate_improvement_passes_zero_threshold(self, risky_tree,
                                                    safe_tree, capsys):
        code = main(["gate", risky_tree, safe_tree, "--features-only",
                     "--threshold", "0.0"])
        assert code == 0
        assert "gate: pass" in capsys.readouterr().out

    def test_gate_json_document(self, risky_tree, safe_tree, capsys):
        code = main(["gate", safe_tree, risky_tree, "--features-only",
                     "--threshold", "0.0", "--json"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["breach"] is True
        assert doc["files"][0]["path"] == "app.c"
        assert doc["files"][0]["drivers"]

    def test_gate_base_head_flags(self, risky_tree, safe_tree, capsys):
        code = main(["gate", "--base", safe_tree, "--head", risky_tree,
                     "--features-only", "--threshold", "0.0"])
        assert code == 3

    def test_gate_requires_exactly_two_trees(self, risky_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gate", risky_tree, "--features-only"])
        assert excinfo.value.code == 2

    def test_gate_missing_tree_errors(self, risky_tree):
        with pytest.raises(SystemExit, match="not a directory"):
            main(["gate", risky_tree, risky_tree + "-gone",
                  "--features-only"])

    def test_compare_reports_both(self, risky_tree, safe_tree, model_path,
                                  capsys):
        assert main(
            ["compare", safe_tree, risky_tree, "--model", model_path]
        ) == 0
        out = capsys.readouterr().out
        assert "model chooses:" in out
        assert "LoC-naive metric would choose" in out


class TestWatch:
    def test_watch_missing_root_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not a directory"):
            main(["watch", str(tmp_path / "gone")])

    def test_watch_zero_count_exits_clean(self, risky_tree, capsys):
        assert main(["watch", risky_tree, "--count", "0"]) == 0
        banner = capsys.readouterr().err
        assert "watching" in banner

    def test_watch_emits_stream_compatible_lines(self, risky_tree,
                                                 capsys):
        import threading
        import pathlib

        def edit():
            pathlib.Path(risky_tree, "app.c").write_text(
                "int handle(void) { return 0; }\n")

        timer = threading.Timer(0.3, edit)
        timer.start()
        try:
            code = main(["watch", risky_tree, "--count", "1",
                         "--interval", "0.05", "--debounce", "0.0"])
        finally:
            timer.cancel()
        assert code == 0
        line = capsys.readouterr().out.strip()
        event = json.loads(line)
        assert event["type"] == "event"
        assert event["name"] == "watch.assess"
        assert event["fields"]["changed"] == 1


class TestSurveyAndCorpus:
    def test_survey_totals(self, capsys):
        assert main(["survey", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "384" in out and "116" in out and "31" in out

    def test_corpus_export(self, tmp_path, capsys):
        out_path = str(tmp_path / "feed.json")
        assert main(["corpus", "--out", out_path, "--seed", "5"]) == 0
        from repro.cve import io as cve_io

        db = cve_io.load(out_path)
        assert db.totals() == (164, 5975)


class TestFailurePolicyFlags:
    def test_flags_reach_the_engine(self):
        from repro.cli import _engine_from_args, build_parser

        args = build_parser().parse_args(
            ["analyze", "ignored", "--on-error", "retry",
             "--task-timeout", "7.5", "--max-retries", "4",
             "--workers", "2"])
        engine = _engine_from_args(args)
        assert engine.on_error == "retry"
        assert engine.task_timeout == 7.5
        assert engine.max_retries == 4

    def test_defaults_are_fail_fast(self):
        from repro.cli import _engine_from_args, build_parser

        args = build_parser().parse_args(["analyze", "ignored"])
        engine = _engine_from_args(args)
        assert engine.on_error == "raise"
        assert engine.task_timeout is None

    def test_unknown_policy_rejected_by_parser(self, risky_tree):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", risky_tree, "--on-error", "ignore"])
        assert excinfo.value.code == 2

    def test_analyze_reports_extraction_failure(self, risky_tree,
                                                monkeypatch):
        from repro.engine.faults import FAULTS_ENV

        # An ambient cache (CI engine leg) would satisfy the task from a
        # prior test's row and the injected crash would never run.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv(FAULTS_ENV, "risky=crash")
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", risky_tree, "--on-error", "skip"])
        assert "extraction failed" in str(excinfo.value)
        assert "risky" in str(excinfo.value)

    def test_analyze_reports_extraction_failure_under_raise(
            self, risky_tree, monkeypatch):
        from repro.engine.faults import FAULTS_ENV

        # The default policy fails fast, but the message is the same
        # one-line error, not a traceback.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv(FAULTS_ENV, "risky=crash")
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", risky_tree])
        assert str(excinfo.value).startswith(
            "error: extraction failed — risky")

    def test_train_exits_nonzero_when_apps_skipped(self, tmp_path,
                                                   monkeypatch, capsys):
        from repro.engine.faults import FAULTS_ENV

        # See test_analyze_reports_extraction_failure: cached corpus rows
        # would mask the injected crash.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv(FAULTS_ENV, "c-app-002=crash")
        out = str(tmp_path / "m.pkl")
        code = main(["train", "--seed", "7", "--apps", "16",
                     "--folds", "3", "--out", out, "--on-error", "skip"])
        assert code == 1
        captured = capsys.readouterr()
        assert "skipped 1 application(s)" in captured.err
        assert "c-app-002" in captured.err
        # the model over the survivors was still trained and saved
        assert "model saved" in captured.out
        with open(out, "rb") as handle:
            assert pickle.load(handle) is not None

    def test_clean_train_still_exits_zero(self, tmp_path, monkeypatch,
                                          capsys):
        from repro.engine.faults import FAULTS_ENV

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        out = str(tmp_path / "m.pkl")
        code = main(["train", "--seed", "7", "--apps", "16",
                     "--folds", "3", "--out", out, "--on-error", "skip"])
        assert code == 0
        assert "skipped" not in capsys.readouterr().err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestHotspots:
    def test_lists_functions_and_findings(self, risky_tree, capsys):
        assert main(["hotspots", risky_tree]) == 0
        out = capsys.readouterr().out
        assert "least maintainable functions" in out
        assert "unbounded-copy/strcpy" in out
        assert "handle" in out

    def test_clean_tree_no_findings(self, tmp_path, capsys):
        d = tmp_path / "clean"
        d.mkdir()
        (d / "m.c").write_text("static int add(int a, int b) {\n    return a + b;\n}\n")
        assert main(["hotspots", str(d)]) == 0
        assert "no security findings" in capsys.readouterr().out

    def test_top_limits_output(self, risky_tree, capsys):
        assert main(["hotspots", risky_tree, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "more" in out or out.count("HIGH") <= 2


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        from repro import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_version_is_a_dotted_release_string(self):
        import re

        import repro

        version = repro.package_version()
        assert re.match(r"^\d+\.\d+", version)

    def test_uninstalled_falls_back_to_module_constant(self, monkeypatch):
        # PYTHONPATH=src runs have no installed distribution; the module
        # constant must stand in so /healthz always has an identity.
        import importlib.metadata

        import repro

        def missing(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", missing)
        assert repro.package_version() == repro.__version__


class TestAnalyzeWithModel:
    def test_json_gains_prediction_block(self, risky_tree, model_path,
                                         capsys):
        assert main(["analyze", risky_tree, "--json",
                     "--model", model_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        prediction = payload["prediction"]
        assert set(prediction) == {"schema_version", "probabilities",
                                   "estimates", "overall_risk"}
        assert 0.0 <= prediction["overall_risk"] <= 1.0

    def test_json_without_model_has_no_prediction(self, risky_tree,
                                                  capsys):
        assert main(["analyze", risky_tree, "--json"]) == 0
        assert "prediction" not in json.loads(capsys.readouterr().out)

    def test_text_mode_prints_risk(self, risky_tree, model_path, capsys):
        assert main(["analyze", risky_tree, "--model", model_path]) == 0
        assert "predicted risk" in capsys.readouterr().out

    def test_bad_model_fails_before_extraction(self, risky_tree,
                                               tmp_path):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"garbage")
        with pytest.raises(SystemExit, match="not a readable model"):
            main(["analyze", risky_tree, "--json", "--model", str(bad)])


class TestServeParser:
    def test_model_flag_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2

    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--model", "m.pkl"])
        assert args.model == ["m.pkl"]
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.pool_size == 2
        for removed in ("batch_window", "batch_size", "queue_depth",
                        "server"):
            assert not hasattr(args, removed)

    def test_server_tier_flag_is_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", "m.pkl", "--server", "thread"])
        assert excinfo.value.code == 2

    def test_models_accumulate_and_engine_flags_apply(self):
        from repro.cli import _engine_from_args, build_parser

        args = build_parser().parse_args(
            ["serve", "--model", "a=m1.pkl", "--model", "b=m2.pkl",
             "--workers", "3", "--port", "0"])
        assert args.model == ["a=m1.pkl", "b=m2.pkl"]
        assert _engine_from_args(args).workers == 3

    def test_unloadable_model_exits_with_message(self, tmp_path):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"nope")
        with pytest.raises(SystemExit, match="not a readable model"):
            main(["serve", "--model", str(bad), "--port", "0"])


class TestTelemetryStreamFlag:
    def test_stream_writes_live_events(self, risky_tree, tmp_path):
        stream = str(tmp_path / "telemetry.jsonl")
        assert main(["--stream", stream, "analyze", risky_tree,
                     "--no-cache"]) == 0
        events = obs.read_events(stream)
        assert events, "stream file is empty"
        kinds = {event["type"] for event in events}
        assert "span" in kinds
        assert all(event["v"] == obs.TELEMETRY_VERSION for event in events)

    def test_invocation_mints_one_root_trace_id(self, risky_tree,
                                                tmp_path):
        stream = str(tmp_path / "telemetry.jsonl")
        assert main(["--stream", stream, "analyze", risky_tree,
                     "--no-cache"]) == 0
        records = stream_spans(stream)
        trace_ids = {record["trace_id"] for record in records}
        assert len(trace_ids) == 1
        (trace_id,) = trace_ids
        assert trace_id and len(trace_id) == 32
        int(trace_id, 16)

    def test_two_invocations_mint_distinct_trace_ids(self, risky_tree,
                                                     tmp_path):
        ids = set()
        for name in ("a.jsonl", "b.jsonl"):
            stream = str(tmp_path / name)
            assert main(["--stream", stream, "analyze", risky_tree]) == 0
            ids |= {record["trace_id"] for record in stream_spans(stream)}
        assert len(ids) == 2


def write_stream(tmp_path, events, name="telemetry.jsonl"):
    path = tmp_path / name
    path.write_text("".join(
        json.dumps({"v": 1, "ts": 0.0, **event}) + "\n"
        for event in events))
    return str(path)


def write_slo(tmp_path, rules, name="slo.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"slo": rules}))
    return str(path)


ERROR_BUDGET = {"name": "error-budget", "kind": "counter_max",
                "counter": "serve.errors", "max_value": 10}


class TestSloCheck:
    def test_healthy_stream_exits_zero(self, tmp_path, capsys):
        stream = write_stream(tmp_path, [
            {"type": "counter", "name": "serve.errors", "delta": 3.0}])
        slo = write_slo(tmp_path, [ERROR_BUDGET])
        assert main(["slo-check", "--slo", slo, "--stream", stream]) == 0
        out = capsys.readouterr().out
        assert "slo-check against" in out
        assert "slo: ok" in out

    def test_breached_stream_exits_nonzero_naming_the_rule(
            self, tmp_path, capsys):
        stream = write_stream(tmp_path, [
            {"type": "counter", "name": "serve.errors", "delta": 50.0}])
        slo = write_slo(tmp_path, [ERROR_BUDGET])
        assert main(["slo-check", "--slo", slo, "--stream", stream]) == 3
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "error-budget" in out

    def test_latency_rule_against_replayed_spans(self, tmp_path, capsys):
        stream = write_stream(tmp_path, [
            {"type": "observe", "name": "serve.predict.seconds",
             "value": 2.5}])
        slo = write_slo(tmp_path, [
            {"name": "predict-p99", "kind": "latency",
             "histogram": "serve.predict.seconds", "stat": "p99",
             "max_seconds": 0.5}])
        assert main(["slo-check", "--slo", slo, "--stream", stream]) == 3
        assert "predict-p99" in capsys.readouterr().out

    def test_invalid_rules_file_exits_with_message(self, tmp_path):
        stream = write_stream(tmp_path, [])
        bad = tmp_path / "slo.json"
        bad.write_text("{broken")
        with pytest.raises(SystemExit, match="invalid JSON"):
            main(["slo-check", "--slo", str(bad), "--stream", stream])

    def test_requires_a_source(self, tmp_path, capsys):
        slo = write_slo(tmp_path, [ERROR_BUDGET])
        with pytest.raises(SystemExit):
            main(["slo-check", "--slo", slo])


class TestMonitorCommand:
    def test_once_renders_a_frame_from_a_stream(self, tmp_path, capsys):
        stream = write_stream(tmp_path, [
            {"type": "counter", "name": "serve.requests", "delta": 5.0},
            {"type": "observe", "name": "serve.predict.seconds",
             "value": 0.02}])
        assert main(["monitor", "--stream", stream, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro monitor" in out
        assert "requests  total=5" in out
        assert "/predict" in out

    def test_once_with_slo_rules_renders_verdict(self, tmp_path, capsys):
        stream = write_stream(tmp_path, [
            {"type": "counter", "name": "serve.errors", "delta": 50.0}])
        slo = write_slo(tmp_path, [ERROR_BUDGET])
        assert main(["monitor", "--stream", stream, "--slo", slo,
                     "--once"]) == 0
        assert "DEGRADED — breached: error-budget" in \
            capsys.readouterr().out

    def test_url_and_stream_are_mutually_exclusive(self, tmp_path):
        stream = write_stream(tmp_path, [])
        with pytest.raises(SystemExit):
            main(["monitor", "--stream", stream, "--url",
                  "http://localhost:1", "--once"])

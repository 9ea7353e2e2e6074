"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``analyze PATH`` — run every static analyzer over a source tree and
  print the metric summary (the testbed's view of one codebase).
- ``train`` — build the calibrated corpus, train the model with CV, and
  save it (pickle) for the other commands.
- ``assess PATH`` — predict the hypotheses for a source tree (§5.3's
  developer-facing report), with a saved or freshly trained model.
- ``gate BASE HEAD`` — CI gate over the delta engine: report the risk
  delta with the top driving feature changes per file and exit
  ``EXIT_GATE_BREACH`` (3) when the delta is strictly above
  ``--threshold``. Trees are directories or ``synth:NAME@K``
  synthetic-history specs (also accepted via ``--base``/``--head``);
  ``--json`` emits the canonical payload (byte-identical to the
  daemon's ``POST /gate`` response); ``--features-only`` skips the
  model and scores with the deterministic feature risk proxy.
- ``watch PATH`` — continuous re-assessment loop: poll the tree,
  coalesce rapid edits behind a debounce window, recompute only the
  changed files, and print one ``obs.stream``-compatible JSON event
  line per re-assessment.
- ``compare A B`` — pick the safer of two candidate codebases (§1).
- ``hotspots PATH`` — rank least-maintainable functions and findings
  (no model needed; the "focus bug-finding effort" use the paper closes
  with).
- ``survey`` — print the Figure-1 survey table.
- ``corpus --out FEED.json`` — export the calibrated CVE corpus as JSON.
- ``serve --model PATH`` — run the prediction service daemon:
  ``POST /predict`` (scored inline), ``POST /analyze`` (through the
  extraction engine), ``GET /healthz``, ``GET /metricz`` (JSON, or
  Prometheus text under ``Accept: text/plain``). ``--slo RULES`` folds
  a live SLO verdict into ``/healthz``; under ``--stream`` every
  request's ``serve.request`` span event is its access record. Stops
  cleanly (exit 0) on SIGTERM/SIGINT.
- ``slo-check --slo RULES (--stream FILE | --url URL)`` — evaluate SLO
  rules offline against an exported telemetry stream or live against a
  daemon's ``/metricz``; exits non-zero naming the breached rules.
- ``monitor (--url URL | --stream FILE)`` — live terminal dashboard
  over a running daemon or a telemetry stream file.

``repro --version`` prints the build version from package metadata.

Observability (accepted before or after the subcommand):

- ``--profile`` — print the ``repro telemetry`` report (per-analyzer /
  per-phase time breakdown plus counters) after the command finishes.
- ``--stream FILE.jsonl`` — append live telemetry events (finished
  spans, counter deltas, structured events) to a rotating JSONL stream
  as they happen. It is the only telemetry file: its ``span`` events
  are the run's trace (name, span_id, parent, trace_id, start,
  duration, attrs). A path that cannot be opened fails the run with
  exit 1 before the command starts.

Every observed invocation mints one root trace ID; all spans the run
records (including those grafted back from worker processes) carry it,
so one CLI run streams as one connected trace.

Engine knobs (a shared argparse parent, accepted by every subcommand):

- ``--workers N`` — fan feature extraction / corpus generation out
  across N worker processes (default ``$REPRO_WORKERS`` or serial).
- ``--cache-dir PATH`` — content-addressed feature cache; re-analysing
  an unchanged tree is a read, not a recompute (default
  ``$REPRO_CACHE_DIR`` or no cache). ``sqlite:PATH`` selects the
  shared SQLite backend (WAL mode) so many concurrent runs on one
  volume share a single warm cache.
- ``--no-cache`` — force recomputation even when a cache is configured.

Failure policy (same parent):

- ``--on-error {raise,skip,retry}`` — what a failed per-app extraction
  does: abort the run (default), drop the app and keep going, or retry
  it a bounded number of times first.
- ``--task-timeout SECONDS`` — per-app wall-clock budget (needs
  ``--workers`` > 1 to be enforceable).
- ``--max-retries N`` — extra attempts per crashed app under
  ``--on-error retry``.

Exit codes (one contract across every subcommand):

- ``EXIT_OK`` (0) — the command completed and nothing it was asked to
  judge was breached.
- ``EXIT_FAILURES`` (1) — an operational failure: bad input tree,
  extraction error, unreadable model, or ``train`` skipping
  applications (the model is still saved; the summary goes to stderr).
- ``EXIT_USAGE`` (2) — malformed invocation (argparse's own value).
- ``EXIT_GATE_BREACH`` (3) — the command ran fine and the *judgement*
  failed: ``gate`` found a risk delta above the threshold, or
  ``slo-check`` found breached SLO rules. CI distinguishes "the tool
  broke" from "the tool worked and the change is bad" on this value.
"""

from __future__ import annotations

import argparse
import json
import pickle
import signal
import sys
import threading
from typing import List, Optional

from repro import obs, package_version
from repro.bugfind.findings import Severity
from repro.core.evaluator import ChangeEvaluator, loc_naive_choice
from repro.core.model import SecurityModel
from repro.core.pipeline import train as train_pipeline
from repro.core.report import format_assessment
from repro.engine import (
    EngineConfig,
    ExtractionEngine,
    ExtractionError,
    engine_options,
    format_failures,
)
from repro.gate import (
    DEFAULT_THRESHOLD,
    GateError,
    TreeWatcher,
    format_gate_report,
    gate_payload,
    gate_tree,
)
from repro.lang import Codebase
from repro.serve.modelstore import ModelLoadError, load_model
from repro.serve.payloads import analysis_payload, dump_payload
from repro.synth import build_corpus

#: The CLI-wide exit-code contract (see the module docstring). These
#: are the only values ``main`` returns; scripts and CI match on them.
EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2  # argparse's own usage-error value, adopted as ours
EXIT_GATE_BREACH = 3


def _load_codebase(path: str) -> Codebase:
    codebase = Codebase.from_directory(path)
    if len(codebase) == 0:
        raise SystemExit(f"error: no recognised source files under {path!r}")
    return codebase


def _engine_from_args(args) -> ExtractionEngine:
    """Build the extraction engine the command's knobs ask for.

    Thin wrapper over :class:`repro.engine.EngineConfig` — flag
    precedence (explicit flag > environment > default) lives there, so
    the CLI and the public API resolve knobs identically.
    """
    return EngineConfig.from_args(args).build()


def _train_model(seed: int, apps: int, folds: int, quiet: bool = False,
                 engine: Optional[ExtractionEngine] = None):
    if not quiet:
        print(f"training on a {apps}-app corpus (seed {seed}) ...",
              file=sys.stderr)
    if engine is None:
        engine = ExtractionEngine.from_env()
    corpus = build_corpus(seed=seed, limit=apps, workers=engine.workers)
    return train_pipeline(corpus, k=folds, seed=seed, engine=engine)


def _load_model_file(path: str) -> SecurityModel:
    """Load a saved model for CLI use (SystemExit on any defect)."""
    try:
        return load_model(path)
    except ModelLoadError as exc:
        raise SystemExit(str(exc))


def _obtain_model(args) -> SecurityModel:
    if getattr(args, "model", None):
        return _load_model_file(args.model)
    result = _train_model(args.seed, args.apps, args.folds,
                          engine=_engine_from_args(args))
    if result.table.failures:
        print(f"warning: model trained without "
              f"{len(result.table.failures)} skipped application(s)",
              file=sys.stderr)
    return result.model


def cmd_analyze(args) -> int:
    model = _load_model_file(args.model) if args.model else None
    codebase = _load_codebase(args.path)
    engine = _engine_from_args(args)
    try:
        row = engine.extract_one(codebase, include_dynamic=args.dynamic)
    except ExtractionError as exc:
        raise SystemExit(f"error: extraction failed — {exc}")
    if args.json:
        # The serving layer's /analyze returns this very document; both
        # go through dump_payload so the bytes cannot drift apart.
        sys.stdout.write(dump_payload(analysis_payload(codebase, row, model)))
        return 0
    print(f"metrics for {codebase.name} ({len(codebase)} files, primary "
          f"language: {codebase.primary_language()})")
    for name in sorted(row):
        print(f"  {name:44s} {row[name]:12.4f}")
    if model is not None:
        assessment = model.assess(row)
        print(f"\npredicted risk (model: {args.model}): "
              f"{assessment.overall_risk:.3f}")
        for hyp_id in sorted(assessment.probabilities):
            print(f"  P({hyp_id}) = {assessment.probabilities[hyp_id]:.3f}")
    return 0


def cmd_train(args) -> int:
    result = _train_model(args.seed, args.apps, args.folds,
                          engine=_engine_from_args(args))
    print("cross-validated quality:")
    for hyp_id, metric, value in result.summary_rows():
        print(f"  {hyp_id:24s} {metric} = {value:.3f}")
    with open(args.out, "wb") as handle:
        pickle.dump(result.model, handle)
    print(f"model saved to {args.out}")
    if result.table.failures:
        print(format_failures(result.table.failures), file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


def cmd_assess(args) -> int:
    model = _obtain_model(args)
    codebase = _load_codebase(args.path)
    try:
        features = _engine_from_args(args).extract_one(codebase)
    except ExtractionError as exc:
        raise SystemExit(f"error: extraction failed — {exc}")
    assessment = model.assess(features)
    print(format_assessment(codebase.name, assessment, model, features))
    return 0


def _gate_trees(args) -> "tuple[str, str]":
    """The (base, head) specs from positionals and/or flags."""
    trees = list(args.trees)
    base = args.base if args.base is not None else \
        (trees.pop(0) if trees else None)
    head = args.head if args.head is not None else \
        (trees.pop(0) if trees else None)
    if base is None or head is None or trees:
        print("error: gate needs exactly two trees — "
              "`repro gate BASE HEAD` or --base/--head "
              "(directories or synth:NAME@K specs)", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return base, head


def cmd_gate(args) -> int:
    base, head = _gate_trees(args)
    model = None if args.features_only else _obtain_model(args)
    try:
        report = gate_tree(
            base, head,
            model=model,
            threshold=args.threshold,
            config=EngineConfig.from_args(args),
            seed=args.seed,
        )
    except (GateError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    except ExtractionError as exc:
        raise SystemExit(f"error: extraction failed — {exc}")
    if args.json:
        # POST /gate returns this very document; both go through
        # dump_payload so the bytes cannot drift apart.
        sys.stdout.write(dump_payload(gate_payload(report)))
    else:
        print(format_gate_report(report))
        print()
        print("gate: BREACH (risk delta above threshold)"
              if report.breach else "gate: pass")
    return EXIT_GATE_BREACH if report.breach else EXIT_OK


def cmd_watch(args) -> int:
    model = _load_model_file(args.model) if args.model else None
    try:
        watcher = TreeWatcher(
            args.path,
            model=model,
            threshold=args.threshold,
            debounce=args.debounce,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    print(f"watching {args.path} ({len(watcher.codebase)} files, "
          f"mode: {'model' if model else 'features'}, "
          f"debounce {args.debounce:g}s) — one JSON line per "
          f"re-assessment", file=sys.stderr)

    def emit(event) -> None:
        sys.stdout.write(json.dumps(event, sort_keys=True) + "\n")
        sys.stdout.flush()

    try:
        watcher.run(emit, interval=args.interval, count=args.count)
    except KeyboardInterrupt:
        print("watch stopped", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args) -> int:
    model = _obtain_model(args)
    evaluator = ChangeEvaluator(model)
    a = _load_codebase(args.candidate_a)
    b = _load_codebase(args.candidate_b)
    winner, assess_a, assess_b = evaluator.choose(a, b)
    print(f"{a.name}: overall risk {assess_a.overall_risk:.2f}")
    print(f"{b.name}: overall risk {assess_b.overall_risk:.2f}")
    print(f"model chooses: {winner}")
    loc_winner, meaningful = loc_naive_choice(a, b)
    qualifier = "" if meaningful else " (not statistically meaningful, §3.1)"
    print(f"LoC-naive metric would choose: {loc_winner}{qualifier}")
    return 0


def cmd_hotspots(args) -> int:
    from repro.analysis.maintainability import worst_functions
    from repro.bugfind import run_all

    codebase = _load_codebase(args.path)
    print(f"hotspots in {codebase.name} ({len(codebase)} files)")
    print("\nleast maintainable functions:")
    for report in worst_functions(codebase, k=args.top):
        print(f"  {report.mi:5.1f} [{report.band:6s}] {report.name}")
    findings = run_all(codebase)
    if findings.total:
        print(f"\nsecurity findings ({findings.total} total, "
              f"{findings.count_at_least(Severity.HIGH)} high+):")
        for finding in findings.findings[: args.top]:
            print(f"  {finding.severity.name:8s} {finding.path}:{finding.line}"
                  f"  {finding.rule}  {finding.message}")
        if findings.total > args.top:
            print(f"  ... and {findings.total - args.top} more")
    else:
        print("\nno security findings from the bundled checkers")
    return 0


def cmd_survey(args) -> int:
    from repro.synth.papersurvey import generate_corpus, survey

    result = survey(generate_corpus(seed=args.seed))
    print("papers per evaluation style (Figure 1):")
    venues = sorted(result.by_venue)
    header = f"  {'style':8s} {'total':>6s}  " + "  ".join(
        f"{v:>7s}" for v in venues
    )
    print(header)
    for style in ("loc", "cve", "formal", "other"):
        row = "  ".join(f"{result.by_venue[v][style]:7d}" for v in venues)
        print(f"  {style:8s} {result.totals[style]:6d}  {row}")
    return 0


def _load_rules_or_exit(path: str):
    from repro.obs.slo import SloConfigError, load_slo_rules

    try:
        return load_slo_rules(path)
    except SloConfigError as exc:
        raise SystemExit(f"error: {exc}")


def cmd_serve(args) -> int:
    """Run the prediction daemon until SIGTERM/SIGINT (exit 0).

    SIGHUP (POSIX) triggers a blue/green model re-scan: the specs the
    live store was built from are re-read from disk and swapped in
    atomically; a failed re-scan is logged and the old store keeps
    serving. The handler only flags the request — the actual reload
    runs on the main thread's wait loop, never in signal context.
    """
    from repro.serve import AsyncPredictionServer, ModelStore
    from repro.serve.modelstore import ModelLoadError as LoadError

    try:
        store = ModelStore.from_specs(args.model)
    except LoadError as exc:
        raise SystemExit(str(exc))
    slo_rules = _load_rules_or_exit(args.slo) if args.slo else ()
    server = AsyncPredictionServer(
        store,
        config=EngineConfig.from_args(args),
        host=args.host,
        port=args.port,
        pool_size=args.pool_size,
        checkout_timeout=args.checkout_timeout,
        slo_rules=slo_rules,
    )

    wake = threading.Event()
    flags = {"stop": False, "reload": False}

    def _request_stop(signum, frame):
        flags["stop"] = True
        wake.set()

    def _request_reload(signum, frame):
        flags["reload"] = True
        wake.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_stop)
    if hasattr(signal, "SIGHUP"):
        previous[signal.SIGHUP] = signal.signal(
            signal.SIGHUP, _request_reload)
    try:
        server.start(warm=True)  # fork pool workers before traffic
        print(f"repro-serve {package_version()} "
              f"listening on {server.url} "
              f"(models: {', '.join(store.names())})", file=sys.stderr)
        while True:
            wake.wait()
            wake.clear()
            if flags["reload"]:
                flags["reload"] = False
                try:
                    old, new = server.reload_models()
                    print(f"SIGHUP: models reloaded "
                          f"(v{old.version} -> v{new.version}: "
                          f"{', '.join(new.names())})", file=sys.stderr)
                except LoadError as exc:
                    obs.incr("serve.model_reload_errors")
                    print(f"SIGHUP: reload failed, keeping "
                          f"v{server.store.version} serving — {exc}",
                          file=sys.stderr)
            if flags["stop"]:
                break
        print("shutting down", file=sys.stderr)
        server.stop()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _fetch_metricz(url: str) -> dict:
    """The /metricz JSON snapshot of a running daemon."""
    from urllib.request import urlopen

    target = url if url.endswith("/metricz") \
        else url.rstrip("/") + "/metricz"
    with urlopen(target, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def cmd_slo_check(args) -> int:
    """Evaluate SLO rules; exit EXIT_GATE_BREACH naming breached rules."""
    from repro.obs.slo import evaluate_slos
    from repro.obs.stream import replay_snapshot

    rules = _load_rules_or_exit(args.slo)
    if args.stream_file:
        source = args.stream_file
        snapshot = replay_snapshot(args.stream_file)
    else:
        source = args.url
        try:
            snapshot = _fetch_metricz(args.url)
        except OSError as exc:
            raise SystemExit(
                f"error: cannot fetch metrics from {args.url!r}: {exc}")
    report = evaluate_slos(rules, snapshot)
    print(f"slo-check against {source}")
    print(report.describe())
    return EXIT_OK if report.ok else EXIT_GATE_BREACH


def cmd_monitor(args) -> int:
    """Live terminal dashboard over a daemon or a stream file."""
    from repro.obs.monitor import run_monitor
    from repro.obs.stream import replay_snapshot

    rules = _load_rules_or_exit(args.slo) if args.slo else ()
    if args.stream_file:
        source = args.stream_file

        def fetch():
            return replay_snapshot(args.stream_file)
    else:
        source = args.url

        def fetch():
            return _fetch_metricz(args.url)

    return run_monitor(fetch, slo_rules=rules, source=source,
                       interval=args.interval, once=args.once)


def cmd_corpus(args) -> int:
    from repro.cve import io as cve_io
    from repro.synth.cvegen import generate_database, generate_profiles

    profiles = generate_profiles(seed=args.seed)
    database = generate_database(profiles, seed=args.seed)
    cve_io.dump(database, args.out)
    apps, vulns = database.totals()
    print(f"wrote {vulns} reports for {apps} applications to {args.out}")
    return 0


def _add_obs_options(parser, top_level: bool) -> None:
    """``--profile``/``--stream``, accepted before *and* after the
    command.

    The subcommand copies default to ``SUPPRESS`` so a value parsed at
    the top level is not clobbered back to the default by the subparser.
    """
    stream_kwargs = {"default": None} if top_level else \
        {"default": argparse.SUPPRESS}
    profile_kwargs = {"default": False} if top_level else \
        {"default": argparse.SUPPRESS}
    parser.add_argument(
        "--profile", action="store_true",
        help="print a telemetry report (per-analyzer/per-phase timings) "
             "after the command", **profile_kwargs)
    parser.add_argument(
        "--stream", metavar="FILE.jsonl",
        help="append live telemetry events (every finished span, counter "
             "deltas, structured events) to a rotating JSONL stream; "
             "its span events are the run's trace",
        **stream_kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clairvoyant: empirical, ML-based software (in)security "
                    "metric (HotOS '17 reproduction)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
        help="print the build version (from package metadata) and exit")
    _add_obs_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)
    engine_parent = engine_options()

    def add_parser(name, **kwargs):
        # Every subcommand inherits the shared engine parent: the
        # engine surface is uniform across the CLI by construction.
        p = sub.add_parser(name, parents=[engine_parent], **kwargs)
        _add_obs_options(p, top_level=False)
        return p

    def add_model_options(p):
        p.add_argument("--model", help="path to a model saved by `train`")
        p.add_argument("--seed", type=int, default=42,
                       help="corpus seed when training on the fly")
        p.add_argument("--apps", type=int, default=40,
                       help="corpus size when training on the fly")
        p.add_argument("--folds", type=int, default=5,
                       help="cross-validation folds")

    p = add_parser("analyze", help="print every metric for a source tree")
    p.add_argument("path")
    p.add_argument("--dynamic", action="store_true",
                   help="include simulated dynamic-trace features")
    p.add_argument("--json", action="store_true",
                   help="emit the feature row as JSON (keys sorted)")
    p.add_argument("--model", metavar="PATH", default=None,
                   help="saved model: append its prediction to the output "
                        "(the serve layer's /predict path)")
    p.set_defaults(func=cmd_analyze)

    p = add_parser("train", help="train and save the security model")
    p.add_argument("--out", default="clairvoyant-model.pkl")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--apps", type=int, default=164)
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = add_parser("assess", help="predict the hypotheses for a tree")
    p.add_argument("path")
    add_model_options(p)
    p.set_defaults(func=cmd_assess)

    p = add_parser("gate", help="CI gate: block risk-raising changes")
    p.add_argument("trees", nargs="*", metavar="TREE",
                   help="base then head tree: a directory or a "
                        "synth:NAME@K synthetic-history spec")
    p.add_argument("--base", metavar="TREE", default=None,
                   help="base tree (alternative to the first positional)")
    p.add_argument("--head", metavar="TREE", default=None,
                   help="head tree (alternative to the second positional)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   metavar="DELTA",
                   help="breach when the risk delta is strictly above "
                        "this (default: the evaluator's neutral band, "
                        f"{DEFAULT_THRESHOLD:g})")
    p.add_argument("--json", action="store_true",
                   help="emit the canonical gate payload (byte-identical "
                        "to the daemon's POST /gate response)")
    p.add_argument("--features-only", action="store_true",
                   help="skip the model: score both versions with the "
                        "deterministic feature risk proxy")
    add_model_options(p)
    p.set_defaults(func=cmd_gate)

    p = add_parser("watch",
                   help="continuously re-assess a tree as it changes")
    p.add_argument("path")
    p.add_argument("--model", metavar="PATH", default=None,
                   help="saved model to score with (default: the "
                        "feature risk proxy)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   metavar="DELTA",
                   help="per-re-assessment breach threshold "
                        f"(default: {DEFAULT_THRESHOLD:g})")
    p.add_argument("--interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="poll interval (default: 1.0)")
    p.add_argument("--debounce", type=float, default=0.5,
                   metavar="SECONDS",
                   help="quiet window before a burst of edits is "
                        "re-assessed as one batch (default: 0.5)")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="exit after N re-assessments (default: run "
                        "until interrupted)")
    p.set_defaults(func=cmd_watch)

    p = add_parser("compare", help="choose the safer of two candidates")
    p.add_argument("candidate_a")
    p.add_argument("candidate_b")
    add_model_options(p)
    p.set_defaults(func=cmd_compare)

    p = add_parser("hotspots",
                       help="rank least-maintainable functions and findings")
    p.add_argument("path")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_hotspots)

    p = add_parser("survey", help="print the Figure-1 survey table")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_survey)

    p = add_parser("serve",
                   help="run the prediction service daemon (HTTP)")
    p.add_argument("--model", action="append", metavar="[NAME=]PATH",
                   required=True,
                   help="saved model bundle to serve; repeatable, first "
                        "is the default, NAME= names it for requests")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="bind port; 0 picks a free one (default: 8080)")
    p.add_argument("--pool-size", type=int, default=2, metavar="N",
                   help="engine-pool slots — concurrent /analyze "
                        "extraction bound (default: 2)")
    p.add_argument("--checkout-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="how long /analyze waits for a free engine "
                        "before 503 (default: 30.0)")
    p.add_argument("--slo", metavar="RULES.{toml,json}", default=None,
                   help="SLO rule file; /healthz reports degraded on "
                        "any breach")
    p.set_defaults(func=cmd_serve)

    # slo-check and monitor are telemetry consumers, not extraction
    # commands: no engine parent, no recording-side obs flags (their
    # --stream names the stream to *read*).
    p = sub.add_parser(
        "slo-check",
        help="evaluate SLO rules against a stream file or live daemon")
    p.add_argument("--slo", required=True, metavar="RULES.{toml,json}",
                   help="SLO rule file (TOML needs Python >= 3.11; "
                        "JSON always works)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--stream", dest="stream_file", metavar="FILE.jsonl",
                     help="exported telemetry stream to replay offline")
    src.add_argument("--url", metavar="URL",
                     help="base URL of a running daemon (evaluates its "
                          "/metricz snapshot)")
    p.set_defaults(func=cmd_slo_check)

    p = sub.add_parser(
        "monitor",
        help="live terminal dashboard over a daemon or stream file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--url", metavar="URL",
                     help="base URL of a running daemon to poll")
    src.add_argument("--stream", dest="stream_file", metavar="FILE.jsonl",
                     help="telemetry stream file to tail")
    p.add_argument("--slo", metavar="RULES.{toml,json}", default=None,
                   help="SLO rule file to evaluate each frame")
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="refresh interval (default: 2.0)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (scriptable)")
    p.set_defaults(func=cmd_monitor)

    p = add_parser("corpus", help="export the calibrated CVE corpus")
    p.add_argument("--out", default="cve-corpus.json")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    profile = getattr(args, "profile", False)
    stream_path = getattr(args, "stream", None)
    session = None
    if profile or stream_path:
        # One root trace ID per invocation: every span this run records
        # (worker-grafted ones included) carries it, so the streamed
        # spans form a single connected trace.
        # Only a profile report reads the finished spans back, so a
        # --stream-only session keeps none.
        try:
            session = obs.configure(profile=profile,
                                    stream_path=stream_path,
                                    trace_id=obs.new_trace_id(),
                                    keep_spans=profile)
        except OSError as exc:
            print(f"error: cannot write telemetry stream to "
                  f"{stream_path!r}: {exc}", file=sys.stderr)
            return EXIT_FAILURES
    try:
        try:
            code = args.func(args)
        finally:
            if session is not None:
                obs.disable()
        if session is not None and profile:
            print()
            print(obs.format_run_report(session))
        return code
    except BrokenPipeError:
        # Output truncated by a closed pipe (e.g. `| head`): not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

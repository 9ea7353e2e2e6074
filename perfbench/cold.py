"""cold-corpus: serial cold extraction of the calibrated testbed.

The seed's 164-app corpus, with commit histories, is extracted app by
app, in a seeded order, by one serial ``ExtractionEngine`` writing a
fresh ``sqlite:`` cache: the ``repro train`` feature-table path. When
the corpus runs out before the window ends, another pass starts on a
fresh cache and fresh source objects, so nothing is reused.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List, Tuple

from repro.engine import ExtractionEngine, ExtractionTask, FeatureCache
from repro.engine.digest import file_digest
from repro.lang.sourcefile import Codebase, SourceFile
from repro.synth import build_corpus

from perfbench import harness, inputs

#: Tail percentile of per-app latency, and the apps it needs.
TAIL_Q = 75
MIN_APPS = harness.min_samples_for(TAIL_Q)
#: Apps (the first ones of the seeded order) in the traced pass.
TRACE_APPS = 24
#: Apps whose rows feed the output fingerprint.
FINGERPRINT_APPS = 24
#: Start-up probes per run; the median of their host-scaled user CPU
#: seconds is ``setup_s``.
SETUP_PROBES = 7


def fresh_codebase(codebase: Codebase) -> Codebase:
    """The same tree as new source objects, with nothing analysed yet."""
    return Codebase(codebase.name, [
        SourceFile(source.path, source.text, source.spec)
        for source in codebase.files
    ])


def task_for(app, corpus, codebase: Codebase) -> ExtractionTask:
    return ExtractionTask(name=app.name, codebase=codebase,
                          nominal_kloc=app.profile.kloc,
                          history=corpus.histories.get(app.name))


def startup_cost(ctx: harness.Context, index: int) -> Tuple[float, float]:
    """A fresh interpreter opening the engine.

    Returns the wall seconds from spawn to ready, and the user CPU
    seconds the child used until then, scaled by a speed probe run on its
    own core.
    """
    script = os.path.join(ctx.root, "perfbench", "startup.py")
    db = os.path.join(ctx.work, f"startup-{index}.db")
    start = perf_counter()
    child = subprocess.Popen([sys.executable, script, db],
                             stdout=subprocess.PIPE, cwd=ctx.root)
    try:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
    finally:
        child.stdout.close()
        code = child.wait(timeout=60)
    fields = line.split()
    if code != 0 or len(fields) != 3 or fields[0] != b"ready":
        raise RuntimeError(f"start-up probe failed (exit {code})")
    cpu, probe = float(fields[1]), float(fields[2])
    return elapsed, cpu * harness.SpeedProbe.REFERENCE_S / probe


def run(ctx: harness.Context) -> harness.Report:
    report = harness.Report("cold-corpus")
    corpus = build_corpus(seed=ctx.seed, workers=1)
    order = inputs.shuffled_apps(corpus.apps, ctx.seed)
    setup = [startup_cost(ctx, i) for i in range(SETUP_PROBES)]

    apps = harness.Outcomes("app")
    report.outcomes.append(apps)
    # op -> (pass, app); rows of successful ops
    done: Dict[int, Tuple[int, object]] = {}
    rows: Dict[int, Dict[str, float]] = {}
    engines: List[ExtractionEngine] = []
    window = ctx.window(MIN_APPS)
    op = 0
    while window.more(op):
        cache = FeatureCache(
            "sqlite:" + os.path.join(ctx.work, f"cold-{len(engines)}.db"))
        engine = ExtractionEngine(workers=1, cache=cache)
        engines.append(engine)
        for app in order:
            if not window.more(op):
                break
            task = task_for(app, corpus, fresh_codebase(app.codebase))
            try:
                result, elapsed, scale = ctx.probe.around(
                    lambda: engine.run([task]))
            except Exception as exc:  # the run must go on and count it
                apps.fail(op, f"extraction: {type(exc).__name__}")
            else:
                if result.failures or result.rows[0] is None:
                    apps.fail(op, "extraction failure")
                else:
                    apps.ok(op, elapsed, scale)
                    rows[op] = result.rows[0]
            done[op] = (len(engines) - 1, app)
            op += 1
    window_s = window.elapsed()
    peak_rss = harness.self_peak_rss_mb()

    # Output check: every row equals a warm-cache replay of its app.
    for index, engine in enumerate(engines):
        ops = [o for o, (p, _) in done.items() if p == index and o in rows]
        tasks = [task_for(done[o][1], corpus, done[o][1].codebase)
                 for o in ops]
        replay = engine.run(tasks).rows if tasks else []
        for o, row in zip(ops, replay):
            apps.check(o, row == rows[o], "check: replay mismatch")

    fingerprint = harness.Fingerprint()
    for o in range(min(FINGERPRINT_APPS, op)):
        app = done[o][1]
        fingerprint.add(harness.canonical_bytes(
            [app.name, rows.get(o, "failed")]))
    report.fingerprint = fingerprint.hexdigest()

    kloc_of = {o: inputs.app_lines(done[o][1]) / 1e3 for o in apps.ops()}
    kloc_per_s = sum(kloc_of.values()) / sum(apps.samples)
    setup_s = harness.median([cpu for _, cpu in setup])
    report.gated = {
        "setup_s": (setup_s, "s"),
        "kloc_per_s": (kloc_per_s, "kLoC/s"),
        **harness.latency_metrics(apps, kloc_of, TAIL_Q),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report.named = {
        "setup_s": (setup_s, "s"),
        "setup_wall_s": (harness.median([wall for wall, _ in setup]), "s"),
        "kloc_per_s": (kloc_per_s, "kLoC/s"),
        **harness.named_latencies("app", apps, 90),
        "error_rate": (report.error_rate(), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report.inputs = describe(corpus, done, engines, apps, window_s)
    for engine in engines:
        harness.close_cache(engine.cache)

    if ctx.trace:
        report.per_layer.update(traced_pass(ctx, corpus, done, rows, apps))
    return report


def describe(corpus, done, engines, apps, window_s) -> Dict[str, object]:
    files = Counter()
    lines = 0
    for app in corpus.apps:
        for source in app.codebase.files:
            files[source.language] += 1
            lines += inputs.line_count(source.text)
    # Function counts come from the records the first pass cached.
    functions = 0
    first_pass = {app.name: app for p, app in done.values() if p == 0}
    cache = engines[0].cache
    for app in first_pass.values():
        for source in app.codebase.files:
            record = cache.get_file(file_digest(
                source, analyzer_version=cache.analyzer_version))
            if record is not None:
                functions += record["functions"]["n_functions"]
    return {
        "corpus_apps": len(corpus.apps),
        "corpus_files": sum(files.values()),
        "corpus_kloc": round(lines / 1e3, 3),
        "language_files": dict(sorted(files.items())),
        "apps_run": apps.attempted,
        "passes": len(engines),
        "first_pass_apps": len(first_pass),
        "first_pass_functions": functions,
        "window_s": round(window_s, 3),
    }


def traced_pass(ctx, corpus, done, rows, apps):
    """Per-layer times over the first ``TRACE_APPS`` apps of the order."""
    from perfbench import layers

    clock = layers.LayerClock()
    reconciler = layers.Reconciler(clock)
    cache = FeatureCache("sqlite:" + os.path.join(ctx.work, "traced.db"))
    untraced = 0.0
    for o in range(min(TRACE_APPS, len(done))):
        app = done[o][1]
        codebase = fresh_codebase(app.codebase)
        with clock.wall():
            row, same = layers.traced_cached(
                clock, reconciler, cache, codebase,
                nominal_kloc=app.profile.kloc,
                history=corpus.histories.get(app.name))
        if apps.raw_of(o) is not None:
            untraced += apps.raw_of(o)
            apps.check(o, same and row == rows[o], "check: traced mismatch")
    harness.close_cache(cache)
    return layers.layer_metrics(clock, reconciler, untraced)

"""warm-edit: single-file edits re-analysed over a warm cache.

One mixed-language tree, built from 24 testbed apps picked by the seed
(one per size stratum) and stored under per-app prefixes, is primed
into a ``sqlite:`` cache; the priming is the set-up. Then a seeded
series of cumulative single-file edits runs, each followed by a
re-analysis through ``ExtractionEngine.extract_one`` on a freshly read
tree, the way a watcher rescans a directory.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from typing import Dict

from repro.engine import ExtractionEngine, FeatureCache
from repro.engine.digest import file_digest
from repro.lang.sourcefile import Codebase
from repro.synth import build_corpus

from perfbench import harness, inputs

TREE_APPS = 16
#: Tail percentile of edit latency, and the edits it needs.
TAIL_Q = 75
#: Edits per run, at least: more than the tail needs, for steadier
#: figures.
MIN_EDITS = max(60, harness.min_samples_for(TAIL_Q))
#: Edits whose rows are recomputed uncached after the window.
CHECK_EDITS = 3
#: The first edits, re-run traced on a fresh primed cache.
TRACE_EDITS = 8
#: Edits whose rows feed the output fingerprint.
FINGERPRINT_EDITS = 12
#: Cold primings per run; the median is ``setup_s``.
SETUP_PRIMINGS = 3


def tree_of(name: str, sources: Dict[str, str]) -> Codebase:
    return Codebase.from_sources(name, sources)


def prime(ctx, name, sources, label):
    """A fresh cache holding the tree.

    Returns the engine, the priming's wall and CPU seconds, and the
    probe scale around it.
    """
    cache = FeatureCache("sqlite:" + os.path.join(ctx.work, f"{label}.db"))
    engine = ExtractionEngine(workers=1, cache=cache)
    codebase = tree_of(name, sources)

    def cpu_seconds():
        start = time.process_time()
        engine.extract_one(codebase)
        return time.process_time() - start

    cpu, wall, scale = ctx.probe.around(cpu_seconds)
    return engine, wall, cpu, scale


def run(ctx: harness.Context) -> harness.Report:
    report = harness.Report("warm-edit")
    corpus = build_corpus(seed=ctx.seed, workers=1)
    picked = inputs.warm_tree_apps(corpus.apps, ctx.seed, TREE_APPS)
    sources = inputs.prefixed_sources(picked)
    name = f"warm-tree-{ctx.seed}"
    languages = {source.path: source.language
                 for source in tree_of(name, sources).files}
    tree_lines = sum(inputs.line_count(text) for text in sources.values())

    setup, setup_wall = [], []
    engine = None
    for i in range(SETUP_PRIMINGS):
        if engine is not None:
            harness.close_cache(engine.cache)
        engine, wall, cpu, scale = prime(ctx, name, sources, f"warm-{i}")
        setup.append(cpu * scale)
        setup_wall.append(wall)

    edits = harness.Outcomes("edit")
    report.outcomes.append(edits)
    check_ops = sorted(random.Random(f"{ctx.seed}:warm-check").sample(
        range(MIN_EDITS), CHECK_EDITS))
    snapshots: Dict[int, tuple] = {}
    rows: Dict[int, Dict[str, float]] = {}
    kinds = Counter()
    realised = Counter()
    current = dict(sources)
    series = inputs.edit_series(sources, languages, ctx.seed)
    fingerprint = harness.Fingerprint()
    window = ctx.window(MIN_EDITS)
    op = 0
    while window.more(op):
        edit = next(series)
        current[edit.path] = edit.text
        kinds[edit.kind] += 1
        realised[edit.realised] += 1
        codebase = tree_of(name, current)
        try:
            row, seconds, scale = ctx.probe.around(
                lambda: engine.extract_one(codebase))
        except Exception as exc:  # the run must go on and count it
            edits.fail(op, f"extraction: {type(exc).__name__}")
        else:
            edits.ok(op, seconds, scale)
            if op in check_ops:
                snapshots[op] = (dict(current), row)
            if op < max(TRACE_EDITS, FINGERPRINT_EDITS):
                rows[op] = row
        if op < FINGERPRINT_EDITS:
            fingerprint.add(harness.canonical_bytes(
                [edit.path, edit.kind, rows.get(op, "failed")]))
        op += 1
    window_s = window.elapsed()
    peak_rss = harness.self_peak_rss_mb()

    # Output check: sampled edited rows equal an uncached recompute.
    uncached = ExtractionEngine(workers=1)
    for o, (snapshot, row) in sorted(snapshots.items()):
        expected = uncached.extract_one(tree_of(name, snapshot))
        edits.check(o, expected == row,
                    "check: edit row differs from uncached recompute")
    report.fingerprint = fingerprint.hexdigest()

    kloc = tree_lines / 1e3
    kloc_of = {o: kloc for o in edits.ops()}
    kloc_per_s = kloc * edits.succeeded / sum(edits.samples)
    setup_s = harness.median(setup)
    report.gated = {
        "setup_s": (setup_s, "s"),
        "kloc_per_s": (kloc_per_s, "kLoC/s"),
        **harness.latency_metrics(edits, kloc_of, TAIL_Q),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report.named = {
        "setup_s": (setup_s, "s"),
        "setup_wall_s": (harness.median(setup_wall), "s"),
        "kloc_per_s": (kloc_per_s, "kLoC/s"),
        **harness.named_latencies("edit", edits, 90),
        "error_rate": (report.error_rate(), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    functions = 0
    cache = engine.cache
    for source in tree_of(name, sources).files:
        record = cache.get_file(file_digest(
            source, analyzer_version=cache.analyzer_version))
        if record is not None:
            functions += record["functions"]["n_functions"]
    report.inputs = {
        "tree_apps": len(picked),
        "tree_files": len(sources),
        "tree_kloc": round(kloc, 3),
        "language_files": dict(sorted(Counter(languages.values()).items())),
        "tree_functions": functions,
        "edits": op,
        "edit_kinds": dict(sorted(kinds.items())),
        "edit_kinds_realised": dict(sorted(realised.items())),
        "edit_kind_shares": harness.shares(realised),
        "window_s": round(window_s, 3),
    }
    harness.close_cache(engine.cache)

    if ctx.trace:
        report.per_layer.update(
            traced_pass(ctx, name, sources, languages, rows, edits))
    return report


def traced_pass(ctx, name, sources, languages, rows, edits):
    """The first ``TRACE_EDITS`` edits again, traced, on a fresh cache."""
    from perfbench import layers

    engine = prime(ctx, name, sources, "traced")[0]
    clock = layers.LayerClock()
    reconciler = layers.Reconciler(clock)
    current = dict(sources)
    series = inputs.edit_series(sources, languages, ctx.seed)
    untraced = 0.0
    for o in range(TRACE_EDITS):
        edit = next(series)
        current[edit.path] = edit.text
        codebase = tree_of(name, current)
        with clock.wall():
            row, same = layers.traced_cached(clock, reconciler,
                                             engine.cache, codebase)
        if edits.raw_of(o) is not None:
            untraced += edits.raw_of(o)
            edits.check(o, same and row == rows[o],
                        "check: traced row differs")
    harness.close_cache(engine.cache)
    return layers.layer_metrics(clock, reconciler, untraced)

"""The traced pass: per-layer self times, measured from outside the program.

The benchmark recomposes an extraction from the program's public
functions and times each call itself; the program's own spans are not
read. Each file's artifact is built eagerly, in stages, before any
analyzer runs, so a lazily built view is charged to its own layer and
not to whichever analyzer touched the file first.

Tree-level analyzers run inside ``merge_records``; while a traced merge
runs, their module functions are swapped for timing wrappers, which is
how merge self time is separated from them.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.analysis import callgraph, churn, oo
from repro.analysis.artifact import artifact_for
from repro.core import features
from repro.engine.digest import file_digest, manifest_key, task_digest
from repro.surface import attack_graph

#: Per-file analyzer layer names, keyed by the collector's span name in
#: ``core.features``.
ANALYZER_LAYERS = {
    "analysis.loc": "analysis.loc",
    "analysis.cyclomatic": "analysis.cyclomatic",
    "analysis.halstead": "analysis.halstead",
    "analysis.functions": "analysis.functions",
    "analysis.identifiers": "analysis.identifiers",
    "analysis.cfg": "analysis.cfg.metrics",
    "analysis.dataflow": "analysis.dataflow.fixpoint",
    "surface.rasq": "surface.rasq",
    "analysis.bugfind": "bugfind",
    "analysis.smells": "analysis.smells",
}

#: (module, function, layer) for the analyzers merge_records runs.
TREE_ANALYZERS = (
    (callgraph, "measure_codebase", "analysis.callgraph"),
    (oo, "measure_codebase", "analysis.oo"),
    (attack_graph, "measure_codebase", "surface.attack_graph"),
    (churn, "churn_metrics", "analysis.churn"),
    (churn, "developer_activity", "analysis.churn"),
)

#: Every time layer, in report order.
TIME_LAYERS = (
    "lang.lex", "lang.parse", "analysis.cfg.build",
    "analysis.dataflow.flowinfo",
    *ANALYZER_LAYERS.values(),
    "core.features.merge", "analysis.callgraph", "analysis.oo",
    "surface.attack_graph", "analysis.churn",
    "engine.digest", "engine.cache.read", "engine.cache.write",
)


class LayerClock:
    """Self time per layer, from nested timed regions.

    A region's self time is its duration minus the time its nested
    regions cover. ``wall`` brackets the traced work; ``excluded``
    brackets work done only for reconciliation, which is kept out of
    both the wall time and the layers.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        self.excluded_s = 0.0
        self._stack: List[List] = []

    @contextlib.contextmanager
    def layer(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.self_s[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    @contextlib.contextmanager
    def wall(self):
        start = perf_counter()
        excluded_before = self.excluded_s
        try:
            yield
        finally:
            self.wall_s += (perf_counter() - start
                            - (self.excluded_s - excluded_before))

    @contextlib.contextmanager
    def excluded(self):
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.excluded_s += elapsed
            # Keep the excluded time out of any enclosing layer too.
            if self._stack:
                self._stack[-1][1] += elapsed

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    @contextlib.contextmanager
    def wrapped(self, targets):
        """Time calls to ``(module, function, layer)`` targets."""
        saved = []
        for module, attr, name in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._timed(original, name))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _timed(self, fn, name):
        def timed(*args, **kwargs):
            with self.layer(name):
                return fn(*args, **kwargs)
        return timed

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def unattributed_share(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return max(0.0, self.wall_s - self.attributed_s()) / self.wall_s


# -- staged artifact build ----------------------------------------------


def build_stages(clock: LayerClock, source, full: bool = True) -> None:
    """Build ``source``'s artifact views in pipeline order, each timed.

    ``full=False`` stops after the function and class tables, the views
    the tree-level analyzers read for files whose records came from the
    cache.
    """
    art = artifact_for(source)
    with clock.layer("lang.lex"):
        tokens = source.tokens
        art.code_tokens
        source.lines
    clock.count("lang.lex.tokens", len(tokens))
    with clock.layer("lang.parse"):
        functions = art.functions
        art.classes
        if full and hasattr(art, "call_sites"):
            art.call_sites
    clock.count("lang.parse.functions", len(functions))
    if not full:
        return
    with clock.layer("analysis.cfg.build"):
        cfgs = art.cfgs
        for graph in cfgs:
            # The back-edge-free DAG the path metrics share, if the CFG
            # memoizes one.
            getattr(graph, "_dag", None)
    clock.count("analysis.cfg.nodes",
                sum(getattr(graph, "n_nodes", 0) for graph in cfgs))
    with clock.layer("analysis.dataflow.flowinfo"):
        for index in range(len(cfgs)):
            art.node_info(index)


def traced_file_record(clock: LayerClock, source) -> dict:
    """``features.file_record`` with every analyzer timed on its own."""
    record = {}
    for span, key, collect in features._PER_FILE_COLLECTORS:
        with clock.layer(ANALYZER_LAYERS.get(span, span)):
            record[key] = collect(source)
    return record


class Reconciler:
    """Times ``features.file_record`` on the same pre-built artifacts.

    The sum of the analyzer layers should match it. It runs outside the
    traced wall time, alternately before and after the traced analyzers
    so that neither side always finds the data warm in the processor's
    caches. A record that differs from the traced one is a failed
    output check.
    """

    def __init__(self, clock: LayerClock):
        self.clock = clock
        self.seconds = 0.0
        self._calls = 0

    def analyze(self, source) -> Tuple[dict, bool]:
        """The traced record of ``source`` and whether it reconciled."""
        self._calls += 1
        if self._calls % 2:
            record = traced_file_record(self.clock, source)
            reference = self._reference(source)
        else:
            reference = self._reference(source)
            record = traced_file_record(self.clock, source)
        return record, reference == record

    def _reference(self, source) -> dict:
        with self.clock.excluded():
            start = perf_counter()
            reference = features.file_record(source)
            self.seconds += perf_counter() - start
        return reference


def traced_merge(clock: LayerClock, codebase, records,
                 nominal_kloc=None, history=None) -> Dict[str, float]:
    with clock.wrapped(TREE_ANALYZERS):
        with clock.layer("core.features.merge"):
            row = features.merge_records(codebase, records, nominal_kloc,
                                         history)
    return {key: float(value) for key, value in row.items()}


def traced_uncached(clock: LayerClock, reconciler: Reconciler, codebase,
                    nominal_kloc=None, history=None
                    ) -> Tuple[Dict[str, float], bool]:
    """An uncached extraction, as ``ExtractionEngine.extract_one`` runs it.

    Returns the row and whether every traced record reconciled.
    """
    records = []
    same = True
    for source in codebase.files:
        build_stages(clock, source)
        record, ok = reconciler.analyze(source)
        same = same and ok
        records.append(record)
    return traced_merge(clock, codebase, records, nominal_kloc,
                        history), same


def traced_cached(clock: LayerClock, reconciler: Reconciler, cache,
                  codebase, nominal_kloc=None, history=None
                  ) -> Tuple[Dict[str, float], bool]:
    """A cached extraction, as ``ExtractionEngine.run`` does it on a miss.

    The row lookup misses; each file's record is looked up; missing
    files are analysed; cached and fresh records are merged; the row,
    the fresh records and the app manifest are written back.
    """
    version = cache.analyzer_version
    sources = codebase.files
    with clock.layer("engine.digest"):
        digest = task_digest(codebase, nominal_kloc=nominal_kloc,
                             history=history, analyzer_version=version)
    with clock.layer("engine.cache.read"):
        cached_row = cache.get(digest)
    if cached_row is not None:
        return cached_row, True
    with clock.layer("engine.digest"):
        digests = [file_digest(source, analyzer_version=version)
                   for source in sources]
    with clock.layer("engine.cache.read"):
        records: List[Optional[dict]] = [cache.get_file(d)
                                         for d in digests]
    recompute = [pos for pos, record in enumerate(records)
                 if record is None]
    hits = len(sources) - len(recompute)
    clock.count("engine.cache.file_probes", len(sources))
    clock.count("engine.cache.file_hits", hits)
    clock.count("engine.files_recomputed", len(recompute))
    if hits:
        with clock.layer("engine.cache.read"):
            cache.get_manifest(manifest_key(codebase.name,
                                            analyzer_version=version))
    same = True
    for pos in recompute:
        build_stages(clock, sources[pos])
        records[pos], ok = reconciler.analyze(sources[pos])
        same = same and ok
    if hits:
        fresh = set(recompute)
        for pos, source in enumerate(sources):
            if pos not in fresh:
                build_stages(clock, source, full=False)
    row = traced_merge(clock, codebase, records, nominal_kloc, history)
    with clock.layer("engine.cache.write"):
        cache.put(digest, row, app=codebase.name)
        for pos in recompute:
            cache.put_file(digests[pos], sources[pos].path, records[pos])
        cache.put_manifest(
            manifest_key(codebase.name, analyzer_version=version),
            {source.path: digests[pos]
             for pos, source in enumerate(sources)})
    return row, same


def layer_metrics(clock: Optional[LayerClock],
                  reconciler: Optional[Reconciler],
                  untraced_s: float) -> Dict[str, Tuple[float, str]]:
    """The per-file, merge and engine layer metrics of one traced pass.

    Layers a workload does not exercise report 0.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for name in TIME_LAYERS:
        out[f"{name}.s"] = (clock.self_s.get(name, 0.0) if clock else 0.0,
                            "s")
    for name in ("lang.lex.tokens", "lang.parse.functions",
                 "analysis.cfg.nodes", "engine.files_recomputed"):
        out[name] = (float(clock.counts.get(name, 0)) if clock else 0.0,
                     "count")
    probes = clock.counts.get("engine.cache.file_probes", 0) if clock else 0
    hits = clock.counts.get("engine.cache.file_hits", 0) if clock else 0
    out["engine.cache.file_hit_ratio"] = (hits / probes if probes else 0.0,
                                          "ratio")
    out["core.features.file_record.s"] = (
        reconciler.seconds if reconciler else 0.0, "s")
    wall = clock.wall_s if clock else 0.0
    out["trace.wall_s"] = (wall, "s")
    out["trace.unattributed_share"] = (
        clock.unattributed_share() if clock else 0.0, "ratio")
    out["trace.overhead_share"] = (
        (wall - untraced_s) / untraced_s if clock and untraced_s > 0
        else 0.0, "ratio")
    return out


#: The serving-layer metrics of a traced serve-mix run, with their units.
SERVE_LAYERS = {
    "serve.batch.mean_size": "count",
    "core.model.assess_ms": "ms",
    "serve.pool.wait_p50_ms": "ms",
    "serve.enginepool.overhead_ms": "ms",
    "serve.payloads.encode_ms": "ms",
    "gate.report_ms": "ms",
    "serve.handler.predict_p50_ms": "ms",
    "serve.handler.analyze_p50_ms": "ms",
    "serve.handler.gate_p50_ms": "ms",
    "serve.shed": "count",
}


def zero_metrics() -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric at 0, the value of a layer not exercised."""
    return {**layer_metrics(None, None, 0.0),
            **{name: (0.0, unit) for name, unit in SERVE_LAYERS.items()}}

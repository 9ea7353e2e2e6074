"""The testbed: assemble the full code-property feature vector (Figure 4).

"We also need an automated framework to collect all the code properties
from the sample applications" (§5.1). This module runs every analyzer in
the package over an application and emits one flat ``{name: value}``
feature row:

- size and language (LoC, comment ratio, language one-hots, nominal kLoC);
- complexity (McCabe totals and distribution, Halstead suite);
- shape (functions, parameters, declarations, variables, nesting);
- control flow (CFG nodes/edges/branches/paths) and data flow (def-use,
  taint source/sink counts);
- call graph (fan-in/out, reachability);
- attack surface (RASQ channels, attack-graph difficulty);
- bug-finding tool outputs (per-rule and per-severity counts);
- code smells (per-kind counts);
- churn and developer activity, when a commit history is available.

Count features are emitted both raw (over the analysed sample) and as
per-kLoC densities: densities estimate the full application from the
sample, which is what lets the model generalise across sizes.

Extraction is split into two phases so the engine can cache and replay
it at file granularity:

- a **per-file phase** (:func:`file_record` / the analyzer-major
  :func:`_collect_records`) runs every analyzer that only needs a single
  :class:`~repro.lang.sourcefile.SourceFile` — LoC, cyclomatic,
  Halstead, identifiers, function shape, CFG, dataflow, attack-surface
  channels, bug finding, smells — and captures its output as a
  JSON-round-trippable *record*. The record also carries the per-file
  *facts* the tree-level analyzers fold: each function's call sites
  (call graph) and each class's methods, fields and calls plus the
  file's inheritance edges (OO design);
- a **merge phase** (:func:`merge_records`) folds the records back
  together with the exact arithmetic a whole-tree pass uses (integer
  sums first, floats only derived from the merged integers). The call
  graph, OO design and attack graph are folded from the records too,
  so merging never lexes or parses a file; only churn (from the commit
  history) and the optional dynamic traces run live.

Cold extraction *is* collect + merge over every file, so a warm run that
merges cached records with freshly computed ones lands on the same code
path and therefore byte-identical rows — the incremental cache needs no
separate equivalence argument.

Memory: extraction builds no reference cycles (the analysis artifact
holds its SourceFile weakly), so per-file state is freed by refcount as
soon as the caller drops the codebase. The three entry points every
engine path runs — :func:`file_record`, :func:`merge_records` and
:func:`extract_features_with_records` — therefore pause Python's cyclic
collector for their duration (``_collector_paused``). Its passes would
find nothing to free but still walk every live object, and each app's
surviving allocations would push it into another full collection.
"""

from __future__ import annotations

import gc
import math
import os
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.analysis import (
    callgraph,
    cfg as cfg_mod,
    churn as churn_mod,
    cyclomatic,
    dataflow,
    functions,
    halstead,
    identifiers,
    loc,
    maintainability,
    oo,
    smells,
)
from repro.analysis.artifact import artifact_for, artifacts_for
from repro.analysis.churn import CommitHistory
from repro.bugfind import Severity
from repro.bugfind.meta import file_summary
from repro.lang.languages import ALL_LANGUAGES
from repro.lang.parser import extract_classes, extract_functions
from repro.lang.sourcefile import Codebase, SourceFile
from repro.surface import attack_graph, rasq

#: Feature-name prefixes, in vector order (useful for ablations).
FEATURE_GROUPS = (
    "size", "lang", "complexity", "halstead", "shape", "flow", "calls",
    "surface", "bugs", "smell", "churn", "oo", "dynamic",
)

#: CFG path-count cap; must match ``cfg.measure_codebase``'s default so
#: the merge phase's sequential capping reproduces its arithmetic.
_PATH_CAP = 10 ** 6

#: One per-file record (all JSON round-trippable): analyzer key ->
#: integer aggregates, or the facts a tree-level analyzer folds. Bump
#: ``ANALYZER_SET_VERSION`` when this changes.
FileRecord = Dict[str, object]


# -- collector pause ------------------------------------------------------------
#
# Process-wide state because the collector switch is process-wide.
# ``tests/core/test_gc_pause.py`` pins what makes the pause safe (no
# cyclic garbage from extraction) and its semantics.

_pause_lock = threading.Lock()
_pause_depth = 0
_pause_reenable = False


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for one extraction unit.

    Used as a decorator on the three extraction entry points
    (:func:`file_record`, :func:`merge_records`,
    :func:`extract_features_with_records`) that every engine path runs.

    Reentrant and thread-safe: a depth counter shared by all threads
    disables the collector on the outermost entry and re-enables it when
    the last region exits, and only if it was enabled when the first one
    entered. Never create a process or an executor inside a region: a
    child forked while paused would start with the collector off
    (``_reset_pause_after_fork`` covers a fork from another thread that
    overlaps a region).
    """
    global _pause_depth, _pause_reenable
    with _pause_lock:
        if _pause_depth == 0:
            _pause_reenable = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_reenable:
                gc.enable()


def _reset_pause_after_fork() -> None:
    """A forked child runs none of its parent's paused regions."""
    global _pause_lock, _pause_depth
    _pause_lock = threading.Lock()
    if _pause_depth:
        _pause_depth = 0
        if _pause_reenable:
            gc.enable()


if hasattr(os, "register_at_fork"):  # POSIX only; no fork, no inheritance
    os.register_at_fork(after_in_child=_reset_pause_after_fork)


# -- per-file collectors ------------------------------------------------------
#
# Each collector comes in two flavours. The *fused* one (the default hot
# path) pulls every derived view — filtered tokens, function table, CFGs,
# per-node flow info — from the file's shared
# :class:`~repro.analysis.artifact.FileArtifact`, so the file is lexed and
# parsed exactly once no matter how many analyzers run. The *legacy* one
# is the original implementation where every analyzer re-derives its own
# views; it is kept as the independent reference the differential harness
# (``tests/analysis/test_fused_equivalence.py``) compares against. Both
# must produce byte-identical records.

def _collect_loc(source: SourceFile) -> FileRecord:
    counts = loc.count_file(source)
    return {"code": counts.code, "comment": counts.comment,
            "blank": counts.blank, "preproc": counts.preproc}


def _collect_cyclomatic(source: SourceFile) -> FileRecord:
    art = artifact_for(source)
    total, reports = cyclomatic.file_summary(
        source, art.functions, art.code_tokens
    )
    return {"total": total, "values": [r.complexity for r in reports]}


def _collect_cyclomatic_legacy(source: SourceFile) -> FileRecord:
    return {
        "total": cyclomatic.file_complexity(source),
        "values": [r.complexity
                   for r in cyclomatic.file_complexities(source)],
    }


def _halstead_record(hal) -> FileRecord:
    return {
        "distinct_operators": hal.distinct_operators,
        "distinct_operands": hal.distinct_operands,
        "total_operators": hal.total_operators,
        "total_operands": hal.total_operands,
    }


def _collect_halstead(source: SourceFile) -> FileRecord:
    # Comments and newlines are neither Halstead operators nor operands,
    # so counting over the filtered stream is exact.
    art = artifact_for(source)
    return _halstead_record(halstead.measure_tokens(art.code_tokens))


def _collect_halstead_legacy(source: SourceFile) -> FileRecord:
    return _halstead_record(halstead.measure_file(source))


def _functions_record(source: SourceFile, funcs, code_tokens=None) -> FileRecord:
    lengths = [f.length for f in funcs]
    nestings = [f.max_nesting for f in funcs]
    params = [f.param_count for f in funcs]
    return {
        "n_functions": len(funcs),
        "n_public": sum(1 for f in funcs if f.is_public),
        "total_params": sum(params),
        "max_params": max(params, default=0),
        "total_length": sum(lengths),
        "max_length": max(lengths, default=0),
        "total_nesting": sum(nestings),
        "max_nesting": max(nestings, default=0),
        "n_declarations": functions.count_declarations(source, code_tokens),
        "n_variables": functions.count_variables(source, code_tokens),
    }


def _collect_functions(source: SourceFile) -> FileRecord:
    art = artifact_for(source)
    return _functions_record(source, art.functions, art.code_tokens)


def _collect_functions_legacy(source: SourceFile) -> FileRecord:
    return _functions_record(source, extract_functions(source))


def _collect_identifiers(source: SourceFile) -> FileRecord:
    return dict(identifiers.file_counts(source, artifact_for(source).code_tokens))


def _collect_identifiers_legacy(source: SourceFile) -> FileRecord:
    return dict(identifiers.file_counts(source))


def _cfg_record(cfgs) -> FileRecord:
    nodes = edges = branches = returns = 0
    paths: List[int] = []
    cyclomatics: List[int] = []
    for graph in cfgs:
        nodes += graph.n_nodes
        edges += graph.n_edges
        branches += graph.n_branch_nodes
        returns += graph.kinds.count("return")
        paths.append(graph.path_count(cap=_PATH_CAP))
        cyclomatics.append(graph.cyclomatic)
    return {"nodes": nodes, "edges": edges, "branches": branches,
            "returns": returns, "paths": paths, "cyclomatics": cyclomatics}


def _collect_cfg(source: SourceFile) -> FileRecord:
    return _cfg_record(artifact_for(source).cfgs)


def _collect_cfg_legacy(source: SourceFile) -> FileRecord:
    return _cfg_record(
        cfg_mod.build_cfg(func, source) for func in extract_functions(source)
    )


def _collect_dataflow(source: SourceFile) -> FileRecord:
    art = artifact_for(source)
    n_defs = pairs = max_reach = 0
    sources = sinks = tainted = 0
    for index, (func, graph) in enumerate(zip(art.functions, art.cfgs)):
        info = art.node_info(index)
        defs, _uses, du_pairs, reach = dataflow.rd_metrics(graph, info)
        n_defs += defs
        pairs += du_pairs
        max_reach = max(max_reach, reach)
        taint = dataflow.taint_analysis(graph, func.param_names, info)
        sources += taint.source_sites
        sinks += taint.sink_sites
        tainted += taint.tainted_sink_calls
    return {"defs": n_defs, "pairs": pairs, "max_reaching": max_reach,
            "sources": sources, "sinks": sinks, "tainted": tainted}


def _collect_dataflow_legacy(source: SourceFile) -> FileRecord:
    n_defs = pairs = max_reach = 0
    sources = sinks = tainted = 0
    for func in extract_functions(source):
        graph = cfg_mod.build_cfg(func, source)
        info = dataflow.node_flow_info(graph)
        defs, _uses, du_pairs, reach = dataflow.rd_metrics(graph, info)
        n_defs += defs
        pairs += du_pairs
        max_reach = max(max_reach, reach)
        taint = dataflow.taint_analysis(graph, func.param_names, info)
        sources += taint.source_sites
        sinks += taint.sink_sites
        tainted += taint.tainted_sink_calls
    return {"defs": n_defs, "pairs": pairs, "max_reaching": max_reach,
            "sources": sources, "sinks": sinks, "tainted": tainted}


def _surface_record(surface) -> FileRecord:
    return {
        "channels": dict(surface.channel_counts),
        "privilege": surface.n_privilege_sites,
        "public_methods": surface.n_public_methods,
    }


def _collect_surface(source: SourceFile) -> FileRecord:
    art = artifact_for(source)
    return _surface_record(
        rasq.measure_file(source, art.code_tokens, art.functions)
    )


def _collect_surface_legacy(source: SourceFile) -> FileRecord:
    single = Codebase(source.path, [source])
    return _surface_record(rasq.measure_codebase(single))


def _collect_calls(source: SourceFile) -> List[list]:
    return callgraph.file_facts(artifact_for(source).functions)


def _collect_calls_legacy(source: SourceFile) -> List[list]:
    return callgraph.file_facts(extract_functions(source))


def _collect_oo(source: SourceFile) -> FileRecord:
    art = artifact_for(source)
    return oo.file_facts(source, art.classes, art.code_tokens)


def _collect_oo_legacy(source: SourceFile) -> FileRecord:
    return oo.file_facts(source, extract_classes(source))


def _collect_bugs(source: SourceFile) -> FileRecord:
    art = artifact_for(source)
    return file_summary(source, art.code_tokens, art.functions,
                        art.call_sites)


def _collect_bugs_legacy(source: SourceFile) -> FileRecord:
    return file_summary(source)


def _collect_smells(source: SourceFile) -> FileRecord:
    counts = {kind: 0 for kind in smells.ALL_DETECTORS}
    for smell in smells.detect_file(source, artifact_for(source).functions):
        counts[smell.kind] += 1
    return counts


def _collect_smells_legacy(source: SourceFile) -> FileRecord:
    counts = {kind: 0 for kind in smells.ALL_DETECTORS}
    for smell in smells.detect_file(source):
        counts[smell.kind] += 1
    return counts


#: (span name, record key, collector) — analyzer-major so a cold run
#: emits one span per analyzer covering every file, exactly like the
#: pre-split whole-tree calls did. These are the fused collectors; the
#: first analyzer to touch a file builds its artifact, the rest share it.
_PER_FILE_COLLECTORS = (
    ("analysis.loc", "loc", _collect_loc),
    ("analysis.cyclomatic", "cyclomatic", _collect_cyclomatic),
    ("analysis.halstead", "halstead", _collect_halstead),
    ("analysis.functions", "functions", _collect_functions),
    ("analysis.identifiers", "identifiers", _collect_identifiers),
    ("analysis.cfg", "cfg", _collect_cfg),
    ("analysis.dataflow", "dataflow", _collect_dataflow),
    ("surface.rasq", "surface", _collect_surface),
    ("analysis.bugfind", "bugs", _collect_bugs),
    ("analysis.smells", "smells", _collect_smells),
    ("analysis.callgraph", "calls", _collect_calls),
    ("analysis.oo", "oo", _collect_oo),
)

#: The pre-artifact reference collectors, same span names and record
#: keys. Every entry re-derives its own token/function/CFG views from the
#: SourceFile alone (no artifact cache reads), so the differential harness
#: compares two genuinely independent computations.
LEGACY_PER_FILE_COLLECTORS = (
    ("analysis.loc", "loc", _collect_loc),
    ("analysis.cyclomatic", "cyclomatic", _collect_cyclomatic_legacy),
    ("analysis.halstead", "halstead", _collect_halstead_legacy),
    ("analysis.functions", "functions", _collect_functions_legacy),
    ("analysis.identifiers", "identifiers", _collect_identifiers_legacy),
    ("analysis.cfg", "cfg", _collect_cfg_legacy),
    ("analysis.dataflow", "dataflow", _collect_dataflow_legacy),
    ("surface.rasq", "surface", _collect_surface_legacy),
    ("analysis.bugfind", "bugs", _collect_bugs_legacy),
    ("analysis.smells", "smells", _collect_smells_legacy),
    ("analysis.callgraph", "calls", _collect_calls_legacy),
    ("analysis.oo", "oo", _collect_oo_legacy),
)


@_collector_paused()
def file_record(source: SourceFile) -> FileRecord:
    """Run every per-file analyzer over one file (the delta hot path).

    This is what a warm re-analysis recomputes for the files whose
    content changed; everything else comes from the cache. Deliberately
    span-free below the caller's unit span — one file is too fine a
    grain to trace per analyzer.
    """
    record: FileRecord = {}
    for _, key, collect in _PER_FILE_COLLECTORS:
        record[key] = collect(source)
    obs.incr("testbed.files_analyzed")
    obs.incr("bugfind.findings", record["bugs"]["total"])
    obs.incr("bugfind.duplicates_removed",
             record["bugs"]["duplicates_removed"])
    return record


def file_record_legacy(source: SourceFile) -> FileRecord:
    """:func:`file_record` via the pre-artifact reference collectors.

    Every analyzer re-derives its own token/function/CFG views, exactly
    as before the single-parse artifact existed. Exists for the
    differential harness; deliberately counter-free so comparing the two
    paths does not double-book metrics.
    """
    record: FileRecord = {}
    for _, key, collect in LEGACY_PER_FILE_COLLECTORS:
        record[key] = collect(source)
    return record


def _collect_records(codebase: Codebase) -> List[FileRecord]:
    """Per-file records for every file, analyzer-major under spans."""
    sources = codebase.files
    obs.incr("testbed.files_analyzed", len(sources))
    records: List[FileRecord] = [{} for _ in sources]
    for span_name, key, collect in _PER_FILE_COLLECTORS:
        with obs.span(span_name):
            for record, source in zip(records, sources):
                record[key] = collect(source)
    # The meta-tool counters the pre-split run_all() call maintained:
    # per-file dedup partitions the global dedup exactly (the key pins
    # the path), so summed per-file tallies equal the whole-tree ones.
    obs.incr("bugfind.findings",
             sum(record["bugs"]["total"] for record in records))
    obs.incr("bugfind.duplicates_removed",
             sum(record["bugs"]["duplicates_removed"]
                 for record in records))
    return records


def _merged_surface(records: List[FileRecord]) -> rasq.AttackSurface:
    """The tree's attack surface, summed from the per-file records."""
    channel_counts = {channel: 0 for channel in rasq.CHANNEL_WEIGHTS}
    for r in records:
        for channel in channel_counts:
            channel_counts[channel] += r["surface"]["channels"].get(
                channel, 0)
    return rasq.AttackSurface(
        channel_counts=channel_counts,
        n_public_methods=sum(
            r["surface"]["public_methods"] for r in records),
        n_privilege_sites=sum(
            r["surface"]["privilege"] for r in records),
    )


@_collector_paused()
def merge_records(
    codebase: Codebase,
    records: List[FileRecord],
    nominal_kloc: Optional[float] = None,
    history: Optional[CommitHistory] = None,
    include_dynamic: bool = False,
) -> Dict[str, float]:
    """Fold per-file records into the feature row (plus tree analyzers).

    ``records`` must align with ``codebase.files`` (path-sorted order).
    Integer aggregates are summed first and every float is derived from
    the merged integers with the same expressions a whole-tree pass
    uses, so the result is bit-identical whether the records were just
    computed or replayed from the cache.

    The call graph, OO design and attack graph are folded from facts
    the records carry, in path order, so no file is lexed or parsed
    here: a warm run over cached records costs the fold alone. Only the
    optional dynamic traces need each file's parse (``artifacts_for``).
    """
    row: Dict[str, float] = {}
    counts = loc.LineCounts(
        code=sum(r["loc"]["code"] for r in records),
        comment=sum(r["loc"]["comment"] for r in records),
        blank=sum(r["loc"]["blank"] for r in records),
        preproc=sum(r["loc"]["preproc"] for r in records),
    )
    sample_kloc = max(counts.code / 1000.0, 1e-6)
    kloc = nominal_kloc if nominal_kloc is not None else sample_kloc

    def density(value: float) -> float:
        return value / sample_kloc

    # -- size / language ----------------------------------------------------
    row["size.kloc"] = kloc
    row["size.log_kloc"] = math.log10(max(kloc, 1e-6))
    row["size.sample_loc"] = float(counts.code)
    row["size.comment_ratio"] = counts.comment_ratio
    row["size.blank_ratio"] = counts.blank / max(counts.total, 1)
    row["size.preproc_per_kloc"] = density(counts.preproc)
    primary = codebase.primary_language()
    for spec in ALL_LANGUAGES:
        row[f"lang.{spec.name}"] = 1.0 if primary == spec.name else 0.0

    # -- complexity -----------------------------------------------------------
    total_cc = sum(r["cyclomatic"]["total"] for r in records)
    cc_values: List[int] = []
    for r in records:
        cc_values.extend(r["cyclomatic"]["values"])
    dist = cyclomatic.distribution_from_values(cc_values)
    row["complexity.total"] = float(total_cc)
    row["complexity.per_kloc"] = density(total_cc)
    row["complexity.mean_function"] = dist["mean"]
    row["complexity.max_function"] = dist["max"]
    row["complexity.p90_function"] = dist["p90"]
    row["complexity.share_over_10"] = dist["over_10"]

    hal = halstead.HalsteadMetrics(
        distinct_operators=sum(
            r["halstead"]["distinct_operators"] for r in records),
        distinct_operands=sum(
            r["halstead"]["distinct_operands"] for r in records),
        total_operators=sum(
            r["halstead"]["total_operators"] for r in records),
        total_operands=sum(
            r["halstead"]["total_operands"] for r in records),
    )
    row["halstead.volume_per_kloc"] = density(hal.volume)
    with obs.span("analysis.maintainability"):
        mi = maintainability.report_from_aggregates(
            codebase.name, hal.volume, total_cc, counts.code,
            counts.comment_ratio,
        )
    row["complexity.maintainability_index"] = mi.mi
    row["halstead.difficulty"] = hal.difficulty
    row["halstead.effort_per_kloc"] = density(hal.effort)
    row["halstead.estimated_bugs_per_kloc"] = density(hal.estimated_bugs)
    row["halstead.vocabulary"] = float(hal.vocabulary)

    # -- shape -----------------------------------------------------------------
    n_functions = sum(r["functions"]["n_functions"] for r in records)
    total_params = sum(r["functions"]["total_params"] for r in records)
    total_length = sum(r["functions"]["total_length"] for r in records)
    total_nesting = sum(r["functions"]["total_nesting"] for r in records)
    row["shape.functions_per_kloc"] = density(n_functions)
    row["shape.public_share"] = (
        sum(r["functions"]["n_public"] for r in records) / n_functions
        if n_functions else 0.0
    )
    row["shape.mean_params"] = (
        total_params / n_functions if n_functions else 0.0
    )
    row["shape.max_params"] = float(max(
        (r["functions"]["max_params"] for r in records), default=0))
    row["shape.mean_length"] = (
        total_length / n_functions if n_functions else 0.0
    )
    row["shape.max_length"] = float(max(
        (r["functions"]["max_length"] for r in records), default=0))
    row["shape.mean_nesting"] = (
        total_nesting / n_functions if n_functions else 0.0
    )
    row["shape.max_nesting"] = float(max(
        (r["functions"]["max_nesting"] for r in records), default=0))
    row["shape.declarations_per_kloc"] = density(
        sum(r["functions"]["n_declarations"] for r in records))
    row["shape.variables_per_kloc"] = density(
        sum(r["functions"]["n_variables"] for r in records))
    # Merging per-file counters in path order recreates the global
    # counter's first-occurrence key order, which the float-summed
    # statistics depend on.
    merged_idents: Counter = Counter()
    for r in records:
        merged_idents.update(r["identifiers"])
    names = identifiers.metrics_from_counts(merged_idents)
    row["shape.identifier_mean_length"] = names.mean_length
    row["shape.identifier_short_fraction"] = names.short_name_fraction
    row["shape.identifier_numeric_suffixes"] = names.numeric_suffix_fraction
    row["shape.identifier_entropy"] = names.entropy

    # -- control / data flow -------------------------------------------------
    row["flow.cfg_nodes_per_kloc"] = density(
        sum(r["cfg"]["nodes"] for r in records))
    row["flow.cfg_edges_per_kloc"] = density(
        sum(r["cfg"]["edges"] for r in records))
    row["flow.branch_nodes_per_kloc"] = density(
        sum(r["cfg"]["branches"] for r in records))
    row["flow.return_nodes_per_kloc"] = density(
        sum(r["cfg"]["returns"] for r in records))
    cfg_cyclomatics: List[int] = []
    total_paths = 0
    for r in records:
        cfg_cyclomatics.extend(r["cfg"]["cyclomatics"])
        # Replicate the sequential per-function capping of
        # cfg.measure_codebase: the running total saturates at the cap.
        for path_count in r["cfg"]["paths"]:
            total_paths = min(_PATH_CAP, total_paths + path_count)
    row["flow.mean_cyclomatic"] = (
        sum(cfg_cyclomatics) / len(cfg_cyclomatics)
        if cfg_cyclomatics else 0.0
    )
    row["flow.log_paths"] = math.log10(1.0 + total_paths)
    row["flow.defs_per_kloc"] = density(
        sum(r["dataflow"]["defs"] for r in records))
    row["flow.def_use_per_kloc"] = density(
        sum(r["dataflow"]["pairs"] for r in records))
    row["flow.max_reaching"] = float(max(
        (r["dataflow"]["max_reaching"] for r in records), default=0))
    row["flow.taint_sources"] = float(
        sum(r["dataflow"]["sources"] for r in records))
    row["flow.taint_sinks"] = float(
        sum(r["dataflow"]["sinks"] for r in records))
    row["flow.tainted_sink_calls"] = float(
        sum(r["dataflow"]["tainted"] for r in records))

    # -- call graph (tree-level: edges cross file boundaries) ----------------
    with obs.span("analysis.callgraph"):
        calls = callgraph.metrics_from_facts(
            (source.path, r["calls"])
            for source, r in zip(codebase.files, records))
    row["calls.edges_per_function"] = (
        calls.n_edges / calls.n_functions if calls.n_functions else 0.0
    )
    row["calls.external_per_kloc"] = density(calls.n_external_calls)
    row["calls.max_fan_in"] = float(calls.max_fan_in)
    row["calls.max_fan_out"] = float(calls.max_fan_out)
    row["calls.reachable_fraction"] = calls.reachable_fraction
    row["calls.recursive_cycles"] = float(calls.n_recursive_cycles)

    # -- attack surface ---------------------------------------------------------
    surface = _merged_surface(records)
    row["surface.rasq_per_kloc"] = density(surface.rasq)
    row["surface.network_facing"] = 1.0 if surface.network_facing else 0.0
    for channel, count in sorted(surface.channel_counts.items()):
        row[f"surface.{channel}_per_kloc"] = density(count)
    row["surface.privilege_sites"] = float(surface.n_privilege_sites)
    with obs.span("surface.attack_graph"):
        graph_metrics = attack_graph.metrics_from_surface(surface)
    row["surface.attack_states"] = float(graph_metrics.n_states)
    row["surface.goal_reachable"] = 1.0 if graph_metrics.goal_reachable else 0.0
    row["surface.shortest_attack_path"] = float(
        graph_metrics.shortest_path_length
    )
    row["surface.attack_cost"] = (
        graph_metrics.cheapest_cost
        if math.isfinite(graph_metrics.cheapest_cost)
        else 10.0  # sentinel: unreachable goal is "very costly"
    )

    # -- bug-finding tools -------------------------------------------------------
    bug_total = sum(r["bugs"]["total"] for r in records)
    high_floor = int(Severity.HIGH)
    bug_high = sum(
        count
        for r in records
        for sev, count in r["bugs"]["severities"].items()
        if int(sev) >= high_floor
    )
    per_rule: Dict[str, int] = {}
    per_cwe: Dict[int, int] = {}
    for r in records:
        for rule, count in r["bugs"]["per_rule"].items():
            per_rule[rule] = per_rule.get(rule, 0) + count
        for cwe_id, count in r["bugs"]["per_cwe"].items():
            key = int(cwe_id)
            per_cwe[key] = per_cwe.get(key, 0) + count
    row["bugs.total_per_kloc"] = density(bug_total)
    row["bugs.high_per_kloc"] = density(bug_high)
    for rule, count in sorted(per_rule.items()):
        row[f"bugs.rule.{rule}_per_kloc"] = density(count)
    for cwe_id, count in sorted(per_cwe.items()):
        row[f"bugs.cwe.{cwe_id}_per_kloc"] = density(count)

    # -- smells ---------------------------------------------------------------------
    smell_counts = {kind: 0 for kind in smells.ALL_DETECTORS}
    for r in records:
        for kind in smell_counts:
            smell_counts[kind] += r["smells"].get(kind, 0)
    for kind, count in sorted(smell_counts.items()):
        row[f"smell.{kind}_per_kloc"] = density(count)

    # -- churn / developers -------------------------------------------------------
    if history is not None:
        with obs.span("analysis.churn"):
            churn = churn_mod.churn_metrics(history)
            activity = churn_mod.developer_activity(history)
        row["churn.log_total"] = math.log10(1.0 + churn.total_churn)
        row["churn.relative"] = churn.relative_churn
        row["churn.high_churn_files"] = float(churn.n_high_churn_files)
        row["churn.mean_file"] = churn.mean_file_churn
        row["churn.authors"] = float(activity.n_authors)
        row["churn.commits_per_file"] = (
            activity.n_commits / max(len(history.files), 1)
        )
        row["churn.mean_authors_per_file"] = activity.mean_authors_per_file
        row["churn.network_density"] = activity.network_density
        row["churn.peripheral_authors"] = float(activity.n_peripheral_authors)
    else:
        for name in ("log_total", "relative", "high_churn_files", "mean_file",
                     "authors", "commits_per_file", "mean_authors_per_file",
                     "network_density", "peripheral_authors"):
            row[f"churn.{name}"] = 0.0

    # -- object-oriented design (Alshammari et al.) ----------------------------
    with obs.span("analysis.oo"):
        design = oo.metrics_from_facts(r["oo"] for r in records)
    row["oo.classes_per_kloc"] = density(design.n_classes)
    row["oo.mean_methods_per_class"] = design.mean_methods_per_class
    row["oo.public_method_fraction"] = design.public_method_fraction
    row["oo.public_field_fraction"] = design.public_field_fraction
    row["oo.accessibility"] = design.accessibility
    row["oo.mean_coupling"] = design.mean_coupling
    row["oo.max_inheritance_depth"] = float(design.max_inheritance_depth)

    # -- dynamic traces (optional, §5.3) ---------------------------------------
    if include_dynamic:
        from repro.analysis import dynamic

        with obs.span("analysis.dynamic"):
            traces = dynamic.measure_codebase(
                codebase, artifacts=artifacts_for(codebase))
        row["dynamic.node_coverage"] = traces.mean_node_coverage
        row["dynamic.edge_coverage"] = traces.mean_edge_coverage
        row["dynamic.trace_length"] = traces.mean_trace_length
        row["dynamic.hot_concentration"] = traces.mean_hot_concentration
        row["dynamic.dangerous_exec_per_kloc"] = density(
            traces.dangerous_executions
        )
        row["dynamic.truncation_rate"] = traces.truncation_rate

    return row


@_collector_paused()
def extract_features_with_records(
    codebase: Codebase,
    nominal_kloc: Optional[float] = None,
    history: Optional[CommitHistory] = None,
    include_dynamic: bool = False,
) -> Tuple[Dict[str, float], List[FileRecord]]:
    """Extract the feature row *and* the per-file records behind it.

    The engine uses the records to populate its file-granular cache in
    the same pass that produced the row, so a cold extraction seeds the
    incremental path for free.
    """
    with obs.span("testbed.extract_features", app=codebase.name,
                  files=len(codebase)):
        records = _collect_records(codebase)
        row = merge_records(codebase, records, nominal_kloc, history,
                            include_dynamic)
    return row, records


def extract_features(
    codebase: Codebase,
    nominal_kloc: Optional[float] = None,
    history: Optional[CommitHistory] = None,
    include_dynamic: bool = False,
) -> Dict[str, float]:
    """Extract the full feature row for one application.

    Args:
        codebase: the (possibly sampled) source tree to analyse.
        nominal_kloc: the application's full size in kLoC as cloc would
            report it; defaults to the analysed sample's own size.
        history: optional commit history for churn/developer features.
        include_dynamic: also simulate dynamic traces (§5.3's optional
            improvement; costs roughly another CFG pass per function).

    Returns:
        An ordered-by-name dict of float features; missing analysers never
        occur (every group is always emitted, with zeros where the
        codebase has no relevant constructs).
    """
    row, _ = extract_features_with_records(
        codebase, nominal_kloc, history, include_dynamic
    )
    return row


def feature_group(name: str) -> str:
    """The group prefix of a feature name (before the first dot)."""
    return name.split(".", 1)[0]

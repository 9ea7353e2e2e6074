"""serve-mix: the default async daemon under a closed-loop request mix.

The daemon runs as ``repro serve --model M --port 0 --pool-size 2
--no-cache``, its defaults otherwise. The model is trained by the
benchmark at a fixed seed before any timing. One client (this process)
drives the daemon over two keep-alive connections in a closed loop:
each connection sends its next request when the previous one answered.
Requests come in cycles of ten, seven ``/predict``, two ``/analyze``
and one ``/gate``, in a seeded order; every served tree lives under one
root directory.

The gated latency is that of a whole cycle (the sum of its ten request
latencies): the one latency that weighs every endpoint by its share.
Per-endpoint percentiles are printed too.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.api import train_model
from repro.engine import EngineConfig, ExtractionEngine
from repro.gate import DEFAULT_THRESHOLD, build_gate_report, gate_payload
from repro.gate.trees import resolve_tree
from repro.lang.sourcefile import Codebase
from repro.serve.modelstore import load_model
from repro.serve.payloads import (
    analysis_payload,
    dump_payload,
    prediction_payload,
)
from repro.synth import build_corpus
from repro.synth.versions import CHANGE_KINDS, evolve

from perfbench import harness, inputs

MODEL_SEED = 42
MODEL_APPS = 24
MODEL_FOLDS = 2
MODEL_NAME = "bench-model"
ANALYZE_TREES = 24
GATE_PAIRS = 12
CONNECTIONS = 2
POOL_SIZE = 2
#: Tail percentile of cycle latency, and the cycles it needs.
TAIL_Q = 75
MIN_CYCLES = harness.min_samples_for(TAIL_Q)
SETUP_SPAWNS = 3
#: Seconds a request may take before it counts as a dropped connection.
REQUEST_TIMEOUT = 60.0
SPAWN_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

# -- inputs -----------------------------------------------------------------


class Target:
    """One request input: its body and the exact bytes expected back."""

    def __init__(self, path: str, body: dict, expected: bytes,
                 kloc: float = 0.0):
        self.path = path
        self.body = json.dumps(body).encode("utf-8")
        self.expected = expected
        self.kloc = kloc


def write_tree(root: str, codebase: Codebase) -> str:
    for source in codebase.files:
        full = os.path.join(root, source.path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(source.text)
    return root


def tree_kloc(codebase: Codebase) -> float:
    return sum(inputs.line_count(f.text) for f in codebase.files) / 1e3


def build_targets(ctx, model):
    """Trees on disk, request bodies and expected response bytes.

    Expected bytes are computed in-process through the same payload
    builders the daemon uses.
    """
    corpus = build_corpus(seed=ctx.seed, workers=1)
    served = os.path.join(ctx.work, "served")
    engine = ExtractionEngine(workers=1)
    analyze_apps = inputs.stratified_pick(
        corpus.apps, inputs.app_lines, ANALYZE_TREES,
        random.Random(f"{ctx.seed}:serve-analyze"))
    gate_apps = inputs.stratified_pick(
        corpus.apps, inputs.app_lines, GATE_PAIRS,
        random.Random(f"{ctx.seed}:serve-gate"))
    analyze, gate, rows = [], [], []
    trees = []  # (directory, row, records) of each analyze tree
    functions = 0
    files = Counter()
    for app in analyze_apps:
        directory = write_tree(os.path.join(served, "analyze", app.name),
                               app.codebase)
        codebase = Codebase.from_directory(directory)
        row, records = engine.extract_with_records(codebase)
        trees.append((directory, row, records))
        rows.append(row)
        functions += sum(r["functions"]["n_functions"] for r in records)
        files.update(f.language for f in codebase.files)
        expected = dump_payload(analysis_payload(codebase, row, model))
        analyze.append(Target("/analyze",
                              {"path": directory, "model": MODEL_NAME},
                              expected.encode("utf-8"),
                              tree_kloc(codebase)))
    pairs = []
    for index, app in enumerate(gate_apps):
        kind = CHANGE_KINDS[index % len(CHANGE_KINDS)]
        pair = evolve(app, kind, seed=ctx.seed)
        base_dir = write_tree(os.path.join(
            served, "gate", f"{index}-{app.name}-{kind}", "base"),
            pair.before)
        head_dir = write_tree(os.path.join(
            served, "gate", f"{index}-{app.name}-{kind}", "head"),
            pair.after)
        base = resolve_tree(base_dir, allow_empty=True)
        head = resolve_tree(head_dir, allow_empty=True)
        row_base, records_base = engine.extract_with_records(base)
        row_head, records_head = engine.extract_with_records(head)
        rows.extend([row_base, row_head])
        report = build_gate_report(base, head, row_base, records_base,
                                   row_head, records_head, model=model,
                                   threshold=float(DEFAULT_THRESHOLD))
        pairs.append((base, head, row_base, records_base, row_head,
                      records_head))
        expected = dump_payload(gate_payload(report))
        gate.append(Target("/gate", {"base": base_dir, "head": head_dir,
                                     "model": MODEL_NAME},
                           expected.encode("utf-8"),
                           tree_kloc(base) + tree_kloc(head)))
    predict = [Target("/predict", {"features": row},
                      dump_payload(prediction_payload(model, row))
                      .encode("utf-8"))
               for row in rows]
    description = {
        "analyze_trees": len(analyze),
        "analyze_files": sum(files.values()),
        "analyze_kloc": round(sum(t.kloc for t in analyze), 3),
        "analyze_language_files": dict(sorted(files.items())),
        "analyze_functions": functions,
        "gate_pairs": len(gate),
        "gate_kinds": dict(sorted(Counter(
            CHANGE_KINDS[i % len(CHANGE_KINDS)]
            for i in range(len(gate))).items())),
        "gate_kloc": round(sum(t.kloc for t in gate), 3),
        "predict_rows": len(predict),
    }
    targets = {"predict": predict, "analyze": analyze, "gate": gate}
    extras = {"trees": trees, "pairs": pairs, "rows": rows}
    return targets, description, extras


# -- daemon ----------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process in its own session."""

    def __init__(self, ctx, model_path: str, index: int):
        self.log_path = os.path.join(ctx.work, f"daemon-{index}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ctx.root, "src")
        for name in ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_FAULTS"):
            env.pop(name, None)
        self._log = open(self.log_path, "wb")
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", model_path, "--port", "0",
             "--pool-size", str(POOL_SIZE), "--no-cache"],
            cwd=ctx.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log)
        self.port: Optional[int] = None

    def wait_healthy(self) -> float:
        """Seconds from spawn until ``/healthz`` answers ``ok``."""
        deadline = self.started + SPAWN_TIMEOUT
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode}: "
                    f"{self._tail()}")
            if self.port is None:
                self.port = self._read_port()
            if self.port is not None and self._healthy():
                return perf_counter() - self.started
            time.sleep(0.01)
        raise RuntimeError(f"daemon not healthy after {SPAWN_TIMEOUT}s: "
                           f"{self._tail()}")

    def _tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def _read_port(self) -> Optional[int]:
        marker = "listening on http://"
        text = self._tail()
        at = text.find(marker)
        if at < 0:
            return None
        address = text[at + len(marker):].split()[0]
        return int(address.rsplit(":", 1)[1])

    def _healthy(self) -> bool:
        try:
            status, body = get(self.port, "/healthz")
        except (OSError, http.client.HTTPException):
            return False
        return status == 200 and json.loads(body).get("status") == "ok"

    def stop(self) -> None:
        """SIGTERM; SIGKILL the daemon and its pool workers if it lingers."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    for pid in harness.child_pids(self.process.pid):
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                    self.process.kill()
                    self.process.wait(timeout=STOP_TIMEOUT)
        finally:
            self._log.close()


def get(port: int, path: str) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# -- client ----------------------------------------------------------------


class Client:
    """One keep-alive connection driving requests in a closed loop."""

    def __init__(self, port: int):
        self.port = port
        self.connection: Optional[http.client.HTTPConnection] = None

    def send(self, target: Target) -> Tuple[int, bytes]:
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        self.connection.request(
            "POST", target.path, body=target.body,
            headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, response.read()

    def reset(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def issue(client: Client, target: Target, outcomes: harness.Outcomes,
          op) -> Optional[float]:
    """Send one request and account for it; the latency, or None.

    A dropped connection, any non-2xx status (a 503 shed included) and
    a response whose bytes differ from the expected ones each count as
    one failed request and never as a latency sample.
    """
    start = perf_counter()
    try:
        status, body = client.send(target)
    except (OSError, http.client.HTTPException) as exc:
        client.reset()
        outcomes.fail(op, f"connection: {type(exc).__name__}")
        return None
    elapsed = perf_counter() - start
    if status == 503:
        outcomes.fail(op, "shed: 503")
        return None
    if not 200 <= status < 300:
        outcomes.fail(op, f"http: {status}")
        return None
    if body != target.expected:
        outcomes.fail(op, "check: response bytes differ")
        return None
    outcomes.ok(op, elapsed)
    return elapsed


class LoadRun:
    """The closed-loop load: per-endpoint outcomes plus cycle latencies."""

    def __init__(self, ctx, targets, port: int):
        self.ctx = ctx
        self.targets = targets
        self.port = port
        self.endpoints = {name: harness.Outcomes(name)
                          for name in ("predict", "analyze", "gate")}
        self.cycles = harness.Outcomes("cycle")
        self.cycle_kloc: Dict[tuple, float] = {}
        # Cycles are scaled by a probe timed in thread CPU time: the
        # client shares two cores with the daemon's workers, and a wall
        # clock probe would also time its wait for a core.
        self.probe = harness.SpeedProbe(clock=time.thread_time)
        self.realised = Counter()
        self._lock = threading.Lock()
        self._errors: List[BaseException] = []

    def run(self) -> float:
        window = self.ctx.window(MIN_CYCLES)
        threads = [threading.Thread(target=self._drive, args=(c, window),
                                    daemon=True)
                   for c in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=window.hard_cap + 2 * REQUEST_TIMEOUT)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("load client did not finish")
        if self._errors:
            raise self._errors[0]
        return window.elapsed()

    def _drive(self, connection: int, window: harness.Window) -> None:
        client = Client(self.port)
        counts = {name: len(t) for name, t in self.targets.items()}
        cycles = inputs.mix_cycles(self.ctx.seed, connection, counts)
        sequence = 0
        try:
            while True:
                with self._lock:
                    if not window.more(self.cycles.succeeded):
                        return
                cycle = next(cycles)
                total = kloc = 0.0
                complete = True
                before = self.probe.measure()
                for request in cycle:
                    target = self.targets[request.endpoint][request.target]
                    op = (connection, sequence)
                    sequence += 1
                    outcomes = self.endpoints[request.endpoint]
                    with self._lock:
                        self.realised[request.endpoint] += 1
                    elapsed = issue(client, target, outcomes, op)
                    if elapsed is None:
                        complete = False
                        continue
                    total += elapsed
                    kloc += target.kloc
                scale = self.probe.scale(before, self.probe.measure())
                with self._lock:
                    op = (connection, sequence)
                    if complete:
                        self.cycles.ok(op, total, scale)
                        self.cycle_kloc[op] = kloc
                    else:
                        self.cycles.fail(op, "request failed")
        except BaseException as exc:  # surfaced by run()
            self._errors.append(exc)
        finally:
            client.reset()


# -- workload ---------------------------------------------------------------


def train(ctx) -> str:
    model = train_model(seed=MODEL_SEED, apps=MODEL_APPS, folds=MODEL_FOLDS,
                        config=EngineConfig(workers=1, no_cache=True))
    path = os.path.join(ctx.work, f"{MODEL_NAME}.pkl")
    with open(path, "wb") as handle:
        pickle.dump(model, handle)
    return path


def run(ctx: harness.Context) -> harness.Report:
    report = harness.Report("serve-mix")
    model_path = train(ctx)
    model = load_model(model_path)
    targets, description, extras = build_targets(ctx, model)
    fingerprint = harness.Fingerprint()
    for name in ("predict", "analyze", "gate"):
        for target in targets[name]:
            fingerprint.add(target.expected)
    report.fingerprint = fingerprint.hexdigest()

    setup, setup_wall = [], []
    daemon = None
    try:
        for index in range(SETUP_SPAWNS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            before = ctx.probe.measure()
            daemon = Daemon(ctx, model_path, index)
            setup_wall.append(daemon.wait_healthy())
            cpu = harness.process_tree_cpu_seconds(daemon.process.pid)
            setup.append(cpu * ctx.probe.scale(before, ctx.probe.measure()))
        load = LoadRun(ctx, targets, daemon.port)
        window_s = load.run()
        peak_rss = harness.process_tree_peak_rss_mb(daemon.process.pid)
        status, body = get(daemon.port, "/metricz")
        metricz = json.loads(body) if status == 200 else {}
    finally:
        if daemon is not None:
            daemon.stop()

    report.outcomes.extend(load.endpoints.values())
    cycles = load.cycles
    setup_s = harness.median(setup)
    # A closed loop of N connections completes N cycles per cycle time.
    kloc_per_s = (CONNECTIONS * sum(load.cycle_kloc.values())
                  / sum(cycles.samples))
    requests_ok = sum(o.succeeded for o in load.endpoints.values())
    report.gated = {
        "setup_s": (setup_s, "s"),
        "kloc_per_s": (kloc_per_s, "kLoC/s"),
        **harness.latency_metrics(cycles, load.cycle_kloc, TAIL_Q),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    named = {"setup_s": (setup_s, "s"),
             "setup_wall_s": (harness.median(setup_wall), "s"),
             "rps": (requests_ok / window_s, "1/s")}
    # Per-endpoint latencies are wall times; cycles are host-scaled.
    for name, wanted_q in (("predict", 99), ("analyze", 90), ("gate", 90)):
        if load.endpoints[name].succeeded:
            named.update(harness.named_latencies(
                name, load.endpoints[name], wanted_q))
    named.update(harness.named_latencies("cycle", cycles, TAIL_Q))
    named["kloc_per_s"] = (kloc_per_s, "kLoC/s")
    named["error_rate"] = (report.error_rate(), "ratio")
    named["peak_rss_mb"] = (peak_rss, "MB")
    report.named = named
    description.update({
        "connections": CONNECTIONS,
        "pool_size": POOL_SIZE,
        "requests": sum(load.realised.values()),
        "endpoint_shares": harness.shares(load.realised),
        "cycles": cycles.attempted,
        "window_s": round(window_s, 3),
    })
    report.inputs = description
    report.notes.append("outcomes cycle " + json.dumps(
        cycles.describe(), sort_keys=True))

    if ctx.trace:
        census = harness.Outcomes("traced-tree")
        report.outcomes.append(census)
        report.per_layer.update(traced_pass(model, extras, metricz,
                                            census))
    return report


# -- traced pass -------------------------------------------------------------


def _histogram(metricz: dict, name: str) -> Optional[dict]:
    summary = metricz.get("histograms", {}).get(name)
    return summary if summary and summary.get("count") else None


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * harness.median(times)


def traced_pass(model, extras, metricz, census):
    """Layer census of the served trees, plus the serving layers.

    The per-file, merge and extraction layers come from a traced
    uncached extraction of every analyze tree, after the daemon has
    stopped. The serving layers are timed in-process on the same inputs,
    or read from the daemon's ``/metricz``.
    """
    from perfbench import layers
    from repro.serve.enginepool import EnginePool

    clock = layers.LayerClock()
    reconciler = layers.Reconciler(clock)
    engine = ExtractionEngine(workers=1)
    untraced = 0.0
    for index, (directory, row, _) in enumerate(extras["trees"]):
        # Untraced and traced extraction of each tree back to back, so
        # host drift does not enter the overhead share.
        start = perf_counter()
        engine.extract_one(Codebase.from_directory(directory))
        untraced += perf_counter() - start
        codebase = Codebase.from_directory(directory)
        start = perf_counter()
        with clock.wall():
            traced_row, same = layers.traced_uncached(clock, reconciler,
                                                      codebase)
        census.ok(index, perf_counter() - start)
        census.check(index, same and traced_row == row,
                     "check: traced row differs")
    out = layers.layer_metrics(clock, reconciler, untraced)

    rows = extras["rows"]
    assess = [_median_ms(lambda r=row: model.assess(r), 5) for row in rows]
    encode = []
    for directory, row, _ in extras["trees"]:
        codebase = Codebase.from_directory(directory)
        encode.append(_median_ms(
            lambda: dump_payload(analysis_payload(codebase, row, model)), 5))
    report_ms = [
        _median_ms(lambda p=pair: build_gate_report(
            *p, model=model, threshold=float(DEFAULT_THRESHOLD)), 3)
        for pair in extras["pairs"]]

    pool = EnginePool(EngineConfig(no_cache=True), size=1)
    overhead = []
    try:
        pool.prestart()
        for directory, _, _ in extras["trees"]:
            start = perf_counter()
            pool.extract_one(Codebase.from_directory(directory))
            pooled = perf_counter() - start
            start = perf_counter()
            engine.extract_one(Codebase.from_directory(directory))
            overhead.append(pooled - (perf_counter() - start))
    finally:
        pool.close()

    batch = _histogram(metricz, "serve.batch_size")
    wait = _histogram(metricz, "serve.pool.wait.seconds")
    counters = metricz.get("counters", {})
    serve = {
        # Scoring inline, without a batcher, is a batch of one.
        "serve.batch.mean_size": batch["mean"] if batch else 1.0,
        "core.model.assess_ms": harness.median(assess),
        "serve.pool.wait_p50_ms": 1e3 * wait["p50"] if wait else 0.0,
        "serve.enginepool.overhead_ms": 1e3 * harness.median(overhead),
        "serve.payloads.encode_ms": harness.median(encode),
        "gate.report_ms": harness.median(report_ms),
        "serve.shed": float(sum(value for name, value in counters.items()
                                if name.endswith("shed"))),
    }
    for endpoint in ("predict", "analyze", "gate"):
        summary = _histogram(metricz, f"serve.{endpoint}.seconds")
        serve[f"serve.handler.{endpoint}_p50_ms"] = (
            1e3 * summary["p50"] if summary else 0.0)
    out.update({name: (value, layers.SERVE_LAYERS[name])
                for name, value in serve.items()})
    return out

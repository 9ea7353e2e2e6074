"""Parallel, cache-aware, fault-tolerant execution layer for extraction.

Three layers live here:

- :class:`WorkerPool` — the one process executor: calls run in this
  process or in worker processes, each through :func:`worker_call`,
  and a wait may carry a deadline past which the workers are killed.
  The engine's runs, :func:`parallel_map` and the serving layer's
  engine pool all run on it.
- :func:`parallel_map` — a generic ordered fan-out over a
  :class:`WorkerPool`: results merge in input order, never completion
  order, so determinism does not depend on the scheduler's timing.
- :class:`ExtractionEngine` — the feature-extraction scheduler the
  pipeline, CLI, gate and daemon use. Per task it consults the
  content-addressed :class:`~repro.engine.cache.FeatureCache` (when
  configured), fans misses out across workers, grafts the workers'
  tracing spans and counters back into the parent :mod:`repro.obs`
  session, and stores fresh rows back to the cache.

Every entry point — :meth:`~ExtractionEngine.run`,
:meth:`~ExtractionEngine.extract_one` and the gate's
:meth:`~ExtractionEngine.extract_with_records` — runs one path: plan
the tasks, drive the units through pool rounds on one
:class:`WorkerPool` per run (failure policy, timeout, fault seam,
telemetry graft), merge file records, store back.

Incremental extraction
----------------------

With a cache configured the engine works at *file* granularity. A
whole-row hit (same tree, same args) still short-circuits everything.
On a row miss the engine probes the cache for each file's analyzer
record (keyed on content + path + analyzer version); when at least one
file hits, only the missing files are scheduled — as per-file units
through the same pool/failure machinery as whole apps, with per-file
:class:`TaskFailure` blame — and the cheap merge phase folds cached and
fresh records into the row. The records-returning mode with
``workers > 1`` sends its missed files out as file units even when none
hit, so one gate side still fans out. The merge is the same
:func:`~repro.core.features.merge_records` a cold extraction runs, so a
warm row is byte-identical to a cold one by construction. Cold cached
extractions return their per-file records from the worker and seed the
file cache (plus an advisory per-app manifest used to classify a later
run's files as changed/added/removed for the ``engine.delta.*``
counters). The records-returning mode behind ``extract_with_records``
skips the whole-row shortcut (the row cache holds no records) and
always probes the file cache.

Worker processes re-import this module, so the task payload must stay
picklable: :class:`~repro.lang.sourcefile.SourceFile` serialises as
(path, text, language) and re-lexes lazily on the far side.

Results are bit-identical to the serial uncached path by construction:
the same ``extract_features`` runs either way, rows are merged by task
index, and cached rows round-trip through JSON with exact float and
key-order fidelity.

Failure semantics
-----------------

At corpus scale individual analyses *will* fail, and one bad
application must not abort a whole run. The engine therefore takes an
explicit ``on_error`` policy:

- ``"raise"`` (default) — fail fast, exactly like a bare
  ``future.result()``, except in-flight work is cancelled and worker
  processes are killed instead of being waited for. The single-codebase
  entry points wrap it in an :class:`ExtractionError` naming the app
  (and file), the one exception type they raise under every policy.
- ``"skip"`` — a failed task becomes a structured :class:`TaskFailure`
  (app name, attempt count, exception, traceback text); its row is
  ``None`` and the run keeps going.
- ``"retry"`` — like ``"skip"``, but a crashed task is re-attempted up
  to ``max_retries`` extra times, the *last* attempt running serially
  in the scheduler's own process (process-pool flakiness — a poisoned
  worker, an unpicklable payload — cannot touch an in-process run).
  Timeouts are never retried: a task that hung once is assumed to hang
  again.

``task_timeout`` bounds the wall-clock wait for each task's result
(enforceable only when the task runs in a worker process; a serial
in-process task cannot be preempted, so a timeout puts even a
one-unit run into a worker). A timed-out task's workers are killed,
never joined; the units that were in flight beside it re-run on the
replacement workers, uncharged. A worker death (``BrokenProcessPool``)
aborts the run under ``"raise"``; under ``"skip"``/``"retry"`` it
triggers one pool rebuild per run — the workers are replaced and every
unfinished task re-submitted, each alone, so a repeat offender cannot
take innocent batch-mates down with it; a suspect that breaks its
workers again is failed as ``worker-lost``.

Failure observability: ``engine.task_failures`` / ``engine.task_retries``
/ ``engine.pool_rebuilds`` counters, and an ``error=`` attribute on the
failing task's ``testbed.app`` span.
"""

from __future__ import annotations

import os
import threading
import traceback as traceback_module
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence,
    Tuple, TypeVar,
)

from repro import obs
from repro.analysis.churn import CommitHistory
from repro.engine import faults
from repro.engine.cache import FeatureCache
from repro.engine.digest import file_digest, manifest_key, task_digest
from repro.lang.sourcefile import Codebase, SourceFile

T = TypeVar("T")
R = TypeVar("R")

#: Environment knobs the default engine honours (what the CI matrix leg
#: sets to run the whole suite through the parallel/cached path).
WORKERS_ENV = "REPRO_WORKERS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Valid ``on_error`` policies, in documentation order.
ON_ERROR_POLICIES = ("raise", "skip", "retry")

#: After a pool break every settled future resolves immediately; this
#: grace period only guards against the tiny window in which the
#: executor is still flagging pending futures as broken.
_POST_BREAK_GRACE = 5.0


class ExtractionError(RuntimeError):
    """A task failed and the failure policy did not absorb it."""


class TaskTimeout(ExtractionError):
    """A task exceeded the engine's per-task wall-clock timeout."""


@dataclass(frozen=True)
class ExtractionTask:
    """One unit of testbed work: an app's codebase plus extraction args."""

    name: str
    codebase: Codebase
    nominal_kloc: Optional[float] = None
    history: Optional[CommitHistory] = None
    include_dynamic: bool = False


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task the engine could not complete.

    ``kind`` is ``"crash"`` (the task raised), ``"timeout"`` (no result
    within ``task_timeout``), or ``"worker-lost"`` (the worker process
    died and recovery was exhausted). ``traceback`` is the formatted
    exception text (empty for timeouts and lost workers, where there is
    no Python frame to show). ``file`` names the source file whose
    per-file unit failed when the task ran through the incremental
    path; empty for whole-app failures.
    """

    app: str
    kind: str
    attempts: int
    error_type: str
    message: str
    traceback: str = ""
    file: str = ""

    def describe(self) -> str:
        """One human-readable summary line."""
        where = f"{self.app}[{self.file}]" if self.file else self.app
        return (f"{where}: {self.kind} after {self.attempts} "
                f"attempt(s) — {self.error_type}: {self.message}")


def format_failures(failures: Sequence[TaskFailure]) -> str:
    """Multi-line report of skipped tasks (what the CLI prints)."""
    lines = [f"extraction skipped {len(failures)} application(s):"]
    for failure in failures:
        lines.append(f"  {failure.describe()}")
    return "\n".join(lines)


@dataclass
class ExtractionReport:
    """Everything one :meth:`ExtractionEngine.run` call produced.

    ``rows`` aligns with the task list; a failed task's slot is None
    and its :class:`TaskFailure` appears in ``failures`` (task order).
    """

    rows: List[Optional[Dict[str, float]]]
    failures: List[TaskFailure]


@dataclass
class _WorkerResult:
    """What :func:`worker_call` returns: a value plus its telemetry.

    ``span_records``/``counters`` are the worker's obs shipment, None
    unless the call ran in capture mode.
    """

    value: Any
    span_records: Optional[List[Dict[str, Any]]] = None
    counters: Optional[Dict[str, float]] = None
    poison: Any = None  # fault-injection cargo; never set in real runs

    def graft(self) -> Any:
        """Fold the shipped telemetry into this session; return the value."""
        obs.graft_spans(self.span_records)
        obs.merge_counters(self.counters)
        return self.value


def worker_call(fn: Callable[..., R], args: tuple, capture: bool = False,
                trace_id: Optional[str] = None,
                app: Optional[str] = None) -> _WorkerResult:
    """Run ``fn(*args)`` as one unit of work; ship its telemetry home.

    Module-level so it pickles into workers: :class:`WorkerPool` runs
    every call through it. With ``app`` the ``REPRO_FAULTS`` seam
    (:mod:`repro.engine.faults`) fires first. With ``capture`` (a
    worker call under an active parent session) ``fn`` records into a
    private session under ``trace_id``, whose spans and counters
    :meth:`_WorkerResult.graft` stitches into the parent's trace;
    in-process calls record straight into the caller's session.
    """
    fault = faults.active_fault(app) if app is not None else None
    if fault is not None:
        fault.fire()
    session = obs.configure(trace_id=trace_id) if capture else None
    try:
        result = _WorkerResult(fn(*args))
    finally:
        if session is not None:
            obs.disable()
    if session is not None:
        result.span_records = session.tracer.records()
        result.counters = session.metrics.snapshot()["counters"]
    if fault is not None and fault.kind == "poison":
        result.poison = faults.Unpicklable()
    return result


class _Job(NamedTuple):
    """A call submitted to a :class:`WorkerPool`: its future and the
    executor it went to, or the in-process :func:`worker_call` args."""

    future: Optional[Future]
    executor: Optional[ProcessPoolExecutor]
    call: tuple = ()


class WorkerPool:
    """Process lifetime for calls: in this process or in workers.

    With ``processes == 0`` each call runs in-process and lazily, inside
    :meth:`wait` and so inside the caller's span, where a worker's wait
    would be. Otherwise one ProcessPoolExecutor of ``processes`` workers
    (each running ``initializer(*initargs)`` first) runs them, started
    on the first submit and replaced on the next after a :meth:`kill`.
    The pool is mechanism only (callers own retry, blame and rebuild
    budgets) and thread-safe: the daemon submits from many threads.
    """

    def __init__(self, processes: int = 0,
                 initializer: Optional[Callable[..., None]] = None,
                 initargs: tuple = ()):
        self.processes = processes
        self._initializer = initializer
        self._initargs = initargs
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # an abort must never wait on a wedged or dead worker
            self.kill()

    def submit(self, fn: Callable[..., R], args: tuple,
               app: Optional[str] = None) -> _Job:
        """Start ``fn(*args)`` through :func:`worker_call`.

        ``app`` names the unit for the ``REPRO_FAULTS`` seam. A submit
        to broken workers returns a job whose wait raises the break.
        """
        if self.processes <= 0:
            return _Job(None, None, (fn, args, False, None, app))
        capture = obs.is_enabled()
        # The trace identity workers inherit: the daemon's per-request
        # scope or the CLI's per-invocation default.
        trace_id = obs.current_trace_id() if capture else None
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    self.processes, initializer=self._initializer,
                    initargs=self._initargs)
            executor = self._executor
            try:
                future = executor.submit(worker_call, fn, args, capture,
                                         trace_id, app)
            except BrokenExecutor as exc:
                future = Future()
                future.set_exception(exc)
        return _Job(future, executor)

    def wait(self, job: _Job, timeout: Optional[float] = None) -> Any:
        """The call's value, its telemetry grafted into this session.

        Past ``timeout`` (worker jobs only: an in-process call cannot be
        preempted) the workers are killed and :class:`TaskTimeout` is
        raised. BrokenExecutor and the call's own exceptions pass
        through unchanged.
        """
        if job.future is None:
            return worker_call(*job.call).graft()
        try:
            result = job.future.result(timeout=timeout)
        except FutureTimeout:
            if not job.future.done():
                self.kill(job)
                raise TaskTimeout(f"no result within {timeout:g}s") from None
            # Done at the deadline, or the call itself raised TimeoutError.
            result = job.future.result()
        return result.graft()

    def kill(self, job: Optional[_Job] = None) -> bool:
        """Kill the workers without waiting; their calls fail as broken.

        With ``job``, only the workers it went to, and False when they
        were already replaced: two calls that saw one death kill once.
        ``_processes`` is executor-private, but killing is the only way
        to keep a hung call from stalling interpreter exit.
        """
        with self._lock:
            executor = self._executor
            if executor is None or (job is not None
                                    and job.executor is not executor):
                return False
            self._executor = None
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):  # pragma: no cover - racy exit
                pass
        # No cancel_futures: queued calls then fail with BrokenExecutor
        # like running ones, not with CancelledError.
        executor.shutdown(wait=False)
        return True

    def close(self) -> None:
        """Shut down gracefully: running calls finish; no more submits."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], workers: int = 1
) -> List[R]:
    """Map ``fn`` over ``items``, fanning out across processes.

    Results come back in input order regardless of completion order.
    ``fn`` and each item must be picklable when ``workers > 1``.
    """
    items = list(items)
    processes = min(workers, len(items))
    with WorkerPool(processes if processes > 1 else 0) as pool:
        jobs = [pool.submit(fn, (item,)) for item in items]
        return [pool.wait(job) for job in jobs]


def _extract_app(task: ExtractionTask, want_records: bool
                 ) -> Tuple[Dict[str, float], Optional[List[Dict[str, Any]]]]:
    """A whole-app unit: the row, plus the per-file records if wanted.

    ``want_records`` ships the records home to seed the file cache or
    to answer :meth:`ExtractionEngine.extract_with_records`.
    """
    from repro.core.features import extract_features_with_records

    with obs.span("engine.worker", pid=os.getpid(), app=task.name):
        row, records = extract_features_with_records(
            task.codebase,
            nominal_kloc=task.nominal_kloc,
            history=task.history,
            include_dynamic=task.include_dynamic,
        )
    return row, records if want_records else None


def _extract_file(app: str, source: SourceFile) -> Dict[str, Any]:
    """A file unit: one file's analyzer record.

    The ``engine.worker`` span carries a ``file`` attribute so traces
    tell file units from whole-app ones.
    """
    from repro.core.features import file_record

    with obs.span("engine.worker", pid=os.getpid(), app=app,
                  file=source.path):
        return file_record(source)


@dataclass(frozen=True)
class _Unit:
    """One schedulable piece of work: a whole app or a single file."""

    task_index: int
    source: Optional[SourceFile] = None  # None => whole-app unit
    file_pos: int = -1  # position in codebase.files for file units

    @property
    def file(self) -> str:
        return self.source.path if self.source is not None else ""


@dataclass
class _FilePlan:
    """Per-task file-cache probe result (cache configured, row missed).

    ``records`` aligns with ``codebase.files``; cached hits are
    prefilled, misses are None until their record is computed.
    ``recompute`` fixes the missed positions at probe time (the ones
    whose fresh records must be stored back).
    """

    file_digests: List[str]
    records: List[Optional[Dict[str, Any]]]
    hits: int
    recompute: List[int]


@dataclass
class _Run:
    """The working state of one extraction, indexed by task.

    ``units`` is the work scheduled through the pool rounds; ``merges``
    lists the tasks whose row is merged from file records once their
    file units are done. ``records`` is filled only when the caller
    wants the per-file records back.
    """

    tasks: List[ExtractionTask]
    with_records: bool = False
    units: List[_Unit] = field(default_factory=list)
    plans: Dict[int, _FilePlan] = field(default_factory=dict)
    merges: List[int] = field(default_factory=list)
    failures: Dict[int, TaskFailure] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rows: List[Optional[Dict[str, float]]] = [None] * len(self.tasks)
        self.digests: List[Optional[str]] = [None] * len(self.tasks)
        self.records: List[Optional[List[Dict[str, Any]]]] = (
            [None] * len(self.tasks))


@dataclass
class _RoundOutcome:
    """What one pool round produced besides successful rows.

    ``suspects`` were unfinished when a worker died; ``requeue`` were
    killed beside a timed-out unit, and re-run uncharged.
    """

    errors: Dict[int, Tuple[str, BaseException, str]] = field(
        default_factory=dict)
    suspects: List[int] = field(default_factory=list)
    requeue: List[int] = field(default_factory=list)
    broken: Optional[BaseException] = None  # the break, if one happened


def _format_tb(exc: BaseException) -> str:
    """Full traceback text, remote-cause chain included."""
    return "".join(traceback_module.format_exception(
        type(exc), exc, exc.__traceback__))


class ExtractionEngine:
    """Schedules feature extraction across workers, the cache, and faults.

    Args:
        workers: parallel worker processes; 1 (the default) runs
            everything in-process through the same scheduling code.
        cache: optional :class:`FeatureCache`; misses are computed and
            stored back, hits skip extraction entirely.
        on_error: ``"raise"`` (fail fast, cancel in-flight work),
            ``"skip"`` (failed apps become :class:`TaskFailure` records)
            or ``"retry"`` (bounded re-attempts, serial last attempt).
        task_timeout: per-task wall-clock budget in seconds; enforced
            only for tasks running in worker processes.
        max_retries: extra attempts per crashed task under ``"retry"``.

    The engine is a reusable handle: configuration is immutable after
    construction and each :meth:`run` opens its own :class:`WorkerPool`,
    so one engine serves many sequential runs (each engine-pool worker
    in the daemon reuses one engine across requests).
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[FeatureCache] = None,
                 on_error: str = "raise",
                 task_timeout: Optional[float] = None,
                 max_retries: int = 2):
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {on_error!r}")
        if task_timeout is not None and not task_timeout > 0:
            raise ValueError("task_timeout must be positive")
        self.workers = max(1, int(workers))
        self.cache = cache
        self.on_error = on_error
        self.task_timeout = task_timeout
        self.max_retries = max(0, int(max_retries))
        if task_timeout is not None and self.workers <= 1:
            warnings.warn(
                "task_timeout is only enforced with workers > 1; a "
                "serial in-process task cannot be preempted",
                RuntimeWarning, stacklevel=2)

    @classmethod
    def from_env(cls) -> "ExtractionEngine":
        """Engine configured from ``REPRO_WORKERS``/``REPRO_CACHE_DIR``.

        This is the default engine the pipeline builds when none is
        passed explicitly, which lets CI (or a user shell) route every
        extraction in the process through the parallel/cached path
        without touching call sites. Unset variables mean serial and
        uncached — the seed behaviour. An unparsable or non-positive
        ``REPRO_WORKERS`` falls back to 1 worker with a warning naming
        the bad value, so a CI misconfiguration is visible instead of
        silently serialising the run. ``REPRO_CACHE_DIR`` takes the
        same URI-style spec as ``--cache-dir``: a directory path for
        the filesystem backend, ``sqlite:PATH`` for the shared SQLite
        backend.
        """
        raw = os.environ.get(WORKERS_ENV)
        workers = 1
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                warnings.warn(
                    f"invalid {WORKERS_ENV}={raw!r} (not an integer); "
                    f"falling back to 1 worker",
                    RuntimeWarning, stacklevel=2)
                workers = 1
            if workers < 1:
                warnings.warn(
                    f"invalid {WORKERS_ENV}={raw!r} (must be >= 1); "
                    f"falling back to 1 worker",
                    RuntimeWarning, stacklevel=2)
                workers = 1
        cache_dir = os.environ.get(CACHE_DIR_ENV)
        cache = FeatureCache(cache_dir) if cache_dir else None
        return cls(workers=workers, cache=cache)

    def describe(self) -> Dict[str, Any]:
        """The engine's configuration as a JSON-ready dict.

        What ``/healthz`` reports so operators can see which engine
        shape (workers, cache, failure policy) is behind served
        traffic.
        """
        return {
            "workers": self.workers,
            "cache_dir": self.cache.cache_dir if self.cache else None,
            "cache_backend": self.cache.backend.kind if self.cache
            else None,
            "on_error": self.on_error,
            "task_timeout": self.task_timeout,
            "max_retries": self.max_retries,
        }

    def run(self, tasks: Sequence[ExtractionTask]) -> ExtractionReport:
        """Extract every task, honouring the failure policy.

        Rows are merged strictly by task index; neither worker
        completion order nor the hit/miss split nor retries can reorder
        them. Under ``on_error="raise"`` the first failure propagates
        (after cancelling in-flight work); otherwise failed tasks leave
        a None row and a :class:`TaskFailure` record.
        """
        state = _Run(list(tasks))
        self._extract(state)
        failures = [state.failures[index] for index in sorted(state.failures)]
        return ExtractionReport(rows=state.rows, failures=failures)

    def extract_rows(
        self, tasks: Sequence[ExtractionTask]
    ) -> List[Optional[Dict[str, float]]]:
        """Feature rows for ``tasks``, in task order.

        Thin wrapper over :meth:`run`; under ``on_error="skip"`` or
        ``"retry"`` a failed task's slot is None.
        """
        return self.run(tasks).rows

    def extract_one(
        self,
        codebase: Codebase,
        nominal_kloc: Optional[float] = None,
        history: Optional[CommitHistory] = None,
        include_dynamic: bool = False,
    ) -> Dict[str, float]:
        """Cache-aware extraction for a single codebase.

        There is no row to skip to, so a failure raises
        :class:`ExtractionError` whatever the policy.
        """
        task = ExtractionTask(
            name=codebase.name,
            codebase=codebase,
            nominal_kloc=nominal_kloc,
            history=history,
            include_dynamic=include_dynamic,
        )
        return self._extract_single(_Run([task]))[0]

    def extract_with_records(
        self,
        codebase: Codebase,
        include_dynamic: bool = False,
    ) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
        """Feature row *and* per-file analyzer records for one codebase.

        The gate surfaces (``repro gate``/``repro watch``/``POST
        /gate``) run on this: the records are what per-file delta
        attribution diffs. It is :meth:`extract_one` on the same
        scheduling path, except that the whole-row cache shortcut is
        skipped and, with a cache configured, the file cache is always
        probed — every file whose record is already cached (from a
        prior gate run, an ``/analyze`` request, *or the other side of
        the same gate*, since file keys ignore the app name) is reused,
        only changed files are recomputed (fanned out across
        ``workers`` as file units), and fresh records seed the cache
        for the next run. The merged row is byte-identical to a cold
        extraction's by the same
        :func:`~repro.core.features.merge_records` argument.

        Failures always raise :class:`ExtractionError`, as with
        :meth:`extract_one`.
        """
        task = ExtractionTask(name=codebase.name, codebase=codebase,
                              include_dynamic=include_dynamic)
        return self._extract_single(_Run([task], with_records=True))

    def _extract_single(
        self, state: _Run
    ) -> Tuple[Dict[str, float], Optional[List[Dict[str, Any]]]]:
        """Run a one-task ``state``; (row, records), or ExtractionError.

        Under ``on_error="raise"`` :meth:`run` lets the raw exception
        through; here it becomes an :class:`ExtractionError` naming the
        failed app (and file, for a file unit), like the other policies.
        """
        try:
            self._extract(state)
        except ExtractionError:
            raise
        except Exception as exc:
            if not state.failures:
                raise ExtractionError(
                    f"{state.tasks[0].name}: {type(exc).__name__}: {exc}"
                ) from exc
            raise ExtractionError(state.failures[0].describe()) from exc
        if state.failures:
            raise ExtractionError(state.failures[0].describe())
        return state.rows[0], state.records[0]

    def _extract(self, state: _Run) -> None:
        """Plan every task of ``state``, then run and merge its units.

        Each task resolves to a whole-row cache hit, a whole-app unit,
        or file units plus a merge. File units are used when some file
        records are cached, and in records mode with several workers,
        so one gate side fans its files out.
        """
        fan_out = state.with_records and self.workers > 1
        with obs.span("engine.extract", apps=len(state.tasks),
                      workers=self.workers,
                      cache=self.cache is not None,
                      on_error=self.on_error) as extract_span:
            for index, task in enumerate(state.tasks):
                if self.cache is not None:
                    with obs.span("engine.cache.lookup", app=task.name):
                        state.digests[index] = task_digest(
                            task.codebase,
                            nominal_kloc=task.nominal_kloc,
                            history=task.history,
                            include_dynamic=task.include_dynamic,
                            analyzer_version=self.cache.analyzer_version,
                        )
                        # The records are not in the row cache.
                        row = None if state.with_records else \
                            self.cache.get(state.digests[index])
                    if row is not None:
                        with obs.span("testbed.app", app=task.name,
                                      cached=True):
                            state.rows[index] = row
                        continue
                    if len(task.codebase) > 0:
                        with obs.span("engine.cache.probe", app=task.name,
                                      files=len(task.codebase)):
                            plan = self._probe_files(task)
                        state.plans[index] = plan
                        if plan.hits > 0:
                            self._classify_delta(task, plan)
                        if plan.hits > 0 or fan_out:
                            # Only the missed files run; the merge folds
                            # them into the cached records.
                            state.merges.append(index)
                            sources = task.codebase.files
                            state.units.extend(
                                _Unit(task_index=index,
                                      source=sources[pos], file_pos=pos)
                                for pos in plan.recompute)
                            continue
                state.units.append(_Unit(task_index=index))
            # One pool per run: worker processes when there is more than
            # one unit or a deadline (an in-process unit cannot be
            # preempted), else this process.
            processes = self.workers > 1 and (
                len(state.units) > 1 or self.task_timeout is not None)
            with WorkerPool(min(self.workers, len(state.units))
                            if processes else 0) as pool:
                self._run_pending(state, pool)
            self._merge_files(state)
            if state.failures:
                extract_span.set_attr("failures", len(state.failures))

    def _store(self, state: _Run, index: int, row: Dict[str, Any],
               records: Optional[List[Dict[str, Any]]]) -> None:
        """Store one finished task: its row, then the row/file caches.

        Rows are normalised to builtin floats: numpy scalars compare
        equal but repr (and pickle) differently from the floats a JSON
        cache round-trip yields, which would make warm rows
        distinguishable from cold ones.
        """
        task = state.tasks[index]
        row = {key: float(value) for key, value in row.items()}
        state.rows[index] = row
        if state.with_records:
            state.records[index] = records
        obs.incr("engine.extracted")
        if self.cache is None:
            return
        self.cache.put(state.digests[index], row, app=task.name)
        plan = state.plans.get(index)
        if plan is None:
            return
        sources = task.codebase.files
        for pos in plan.recompute:
            self.cache.put_file(plan.file_digests[pos], sources[pos].path,
                                records[pos])
        self.cache.put_manifest(
            manifest_key(task.name,
                         analyzer_version=self.cache.analyzer_version),
            {source.path: plan.file_digests[pos]
             for pos, source in enumerate(sources)})

    # -- incremental (file-granular) path -----------------------------

    def _probe_files(self, task: ExtractionTask) -> _FilePlan:
        """Ask the file cache for each file's analyzer record.

        Runs only after the whole-row lookup missed (a full-row hit
        must not touch the ``engine.cache.file_*`` counters). The
        returned plan prefils cached records and pins the positions
        that need recomputation.
        """
        sources = task.codebase.files
        file_digests = [
            file_digest(source,
                        analyzer_version=self.cache.analyzer_version)
            for source in sources
        ]
        records: List[Optional[Dict[str, Any]]] = [
            self.cache.get_file(digest) for digest in file_digests
        ]
        recompute = [pos for pos, record in enumerate(records)
                     if record is None]
        return _FilePlan(
            file_digests=file_digests,
            records=records,
            hits=len(records) - len(recompute),
            recompute=recompute,
        )

    def _classify_delta(self, task: ExtractionTask,
                        plan: _FilePlan) -> None:
        """Compare against the app's manifest for the delta counters.

        The manifest (last run's path → file-digest map) is purely
        advisory: it exists so ``engine.delta.files_changed`` /
        ``files_added`` / ``files_removed`` / ``files_unchanged`` can
        name *why* files are being recomputed. Correctness never
        depends on it — a missing or stale manifest just means no
        delta counters.
        """
        manifest = self.cache.get_manifest(
            manifest_key(task.name,
                         analyzer_version=self.cache.analyzer_version))
        if manifest is None:
            return
        current = {
            source.path: digest
            for source, digest in zip(task.codebase.files,
                                      plan.file_digests)
        }
        changed = sum(1 for path, digest in current.items()
                      if path in manifest and manifest[path] != digest)
        added = sum(1 for path in current if path not in manifest)
        removed = sum(1 for path in manifest if path not in current)
        unchanged = len(current) - changed - added
        for name, value in (
            ("engine.delta.files_changed", changed),
            ("engine.delta.files_added", added),
            ("engine.delta.files_removed", removed),
            ("engine.delta.files_unchanged", unchanged),
        ):
            if value:
                obs.incr(name, value)

    def _merge_files(self, state: _Run) -> None:
        """Fold cached + fresh file records into rows for file-unit tasks.

        Runs the same :func:`~repro.core.features.merge_records` a cold
        extraction runs, so the merged row is byte-identical to one
        computed from scratch. A task that already failed (one of its
        file units exhausted the policy) is skipped; a merge crash is
        subject to the same ``on_error`` policy as extraction itself.
        """
        if not state.merges:
            return
        from repro.core.features import merge_records

        for index in state.merges:
            if index in state.failures:
                continue
            task = state.tasks[index]
            plan = state.plans[index]
            error: Optional[BaseException] = None
            with obs.span("testbed.app", app=task.name, cached=False,
                          delta=plan.hits > 0, files_reused=plan.hits,
                          files_recomputed=len(plan.recompute),
                          ) as app_span:
                try:
                    row = merge_records(
                        task.codebase, plan.records,
                        nominal_kloc=task.nominal_kloc,
                        history=task.history,
                        include_dynamic=task.include_dynamic,
                    )
                except Exception as exc:
                    app_span.set_attr("error", type(exc).__name__)
                    error = exc
            if error is not None:
                self._record_failure(state, index, "crash", error,
                                     _format_tb(error), 1)
                if self.on_error == "raise":
                    raise error
                continue
            self._store(state, index, row, plan.records)

    # -- failure-policy machinery -------------------------------------

    def _run_pending(self, state: _Run, pool: WorkerPool) -> None:
        """Drive the scheduled units to completion or recorded failure.

        ``state.units`` mixes whole-app and per-file work; positions
        into it are the scheduling currency (attempts, retries,
        batches), while failures are keyed by *task* index — the first
        failing unit of a task claims the blame and the task's
        remaining units are dropped from the queue.
        """
        units, failures = state.units, state.failures
        attempts: Dict[int, int] = {pos: 0 for pos in range(len(units))}
        last_kind: Dict[int, str] = {}
        queue: List[int] = list(range(len(units)))
        rebuilds_left = 1
        while queue:
            queue = [pos for pos in queue
                     if units[pos].task_index not in failures]
            # The retry ladder's last rung runs serially in this very
            # process: process-pool flakiness cannot touch it.
            last_rung = {
                pos for pos in queue
                if self.on_error == "retry"
                and last_kind.get(pos) == "crash"
                and 0 < attempts[pos] == self.max_retries
            }
            pooled = [pos for pos in queue if pos not in last_rung]
            # A worker-lost suspect re-runs *alone*: if it kills its
            # worker again, the blame cannot spill onto innocent
            # batch-mates that merely shared the broken workers.
            grouped = [p for p in pooled
                       if last_kind.get(p) != "worker-lost"]
            rounds = [(grouped, False)]
            rounds += [([p], False) for p in pooled
                       if last_kind.get(p) == "worker-lost"]
            rounds.append((sorted(last_rung), True))
            queue = []
            for batch, serial in rounds:
                batch = [pos for pos in batch
                         if units[pos].task_index not in failures]
                if not batch:
                    continue
                outcome = self._pool_round(
                    state, batch, attempts,
                    WorkerPool() if serial else pool, serial)
                queue.extend(outcome.requeue)
                for pos, (kind, exc, tb) in outcome.errors.items():
                    attempts[pos] += 1
                    last_kind[pos] = kind
                    unit = units[pos]
                    if (kind == "crash" and self.on_error == "retry"
                            and attempts[pos] <= self.max_retries):
                        obs.incr("engine.task_retries")
                        obs.event(
                            "engine.task_retry",
                            app=state.tasks[unit.task_index].name,
                            file=unit.file, attempt=attempts[pos],
                            error_type=type(exc).__name__)
                        queue.append(pos)
                        continue
                    self._record_failure(state, unit.task_index, kind,
                                         exc, tb, attempts[pos], unit.file)
                if outcome.broken:
                    if self.on_error == "raise":
                        # Fail-fast: a dead worker aborts the run (pool
                        # rebuilding is a skip/retry amenity).
                        raise outcome.broken
                    suspects = outcome.suspects
                    for pos in suspects:
                        attempts[pos] += 1
                        last_kind[pos] = "worker-lost"
                    if rebuilds_left > 0 and suspects:
                        rebuilds_left -= 1
                        obs.incr("engine.pool_rebuilds")
                        obs.event(
                            "engine.pool_rebuild",
                            suspects=[state.tasks[units[p].task_index].name
                                      for p in suspects])
                        queue.extend(suspects)
                    else:
                        for pos in suspects:
                            unit = units[pos]
                            self._record_failure(
                                state, unit.task_index, "worker-lost",
                                outcome.broken, "", attempts[pos],
                                unit.file)

    def _submit(self, pool: WorkerPool, state: _Run, unit: _Unit) -> _Job:
        """Submit one unit to ``pool``."""
        task = state.tasks[unit.task_index]
        if unit.source is not None:
            fn, args = _extract_file, (task.name, unit.source)
        else:
            # Records are shipped back when they seed the file cache (a
            # plan exists) or when the caller asked for them.
            want_records = (state.with_records
                            or unit.task_index in state.plans)
            fn, args = _extract_app, (task, want_records)
        return pool.submit(fn, args, task.name)

    def _pool_round(
        self,
        state: _Run,
        positions: List[int],
        attempts: Dict[int, int],
        pool: WorkerPool,
        serial: bool = False,
    ) -> _RoundOutcome:
        """Submit unit ``positions`` to ``pool``, collect in unit order.

        Successes are stored (row/record, cache, telemetry graft) here;
        every kind of failure is classified into the returned outcome
        for the policy loop to act on. Broken workers are replaced
        before returning, so the next round starts on fresh ones.
        ``serial`` marks the retry ladder's in-process last rung.
        """
        outcome = _RoundOutcome()
        killed = False
        jobs = [(pos, self._submit(pool, state, state.units[pos]))
                for pos in positions]
        for pos, job in jobs:
            unit = state.units[pos]
            task = state.tasks[unit.task_index]
            span_attrs: Dict[str, Any] = dict(
                app=task.name, cached=False, attempt=attempts[pos] + 1)
            if unit.source is not None:
                span_attrs["file"] = unit.file
            if serial:
                span_attrs["serial_retry"] = True
            with obs.span("testbed.app", **span_attrs) as app_span:
                try:
                    value = pool.wait(job, _POST_BREAK_GRACE
                                      if outcome.broken
                                      else self.task_timeout)
                except Exception as exc:
                    app_span.set_attr("error", type(exc).__name__)
                    lost_work = isinstance(exc, (BrokenExecutor,
                                                 TaskTimeout))
                    if lost_work and outcome.broken:
                        outcome.suspects.append(pos)
                    elif lost_work and killed:
                        outcome.requeue.append(pos)
                    elif isinstance(exc, BrokenExecutor):
                        outcome.broken = exc
                        outcome.suspects.append(pos)
                    elif isinstance(exc, TaskTimeout):
                        killed = True
                        timeout_exc = TaskTimeout(f"{task.name}: {exc}")
                        if self.on_error == "raise":
                            raise timeout_exc from exc
                        outcome.errors[pos] = ("timeout", timeout_exc, "")
                    else:
                        if self.on_error == "raise":
                            self._record_failure(
                                state, unit.task_index, "crash", exc,
                                _format_tb(exc), attempts[pos] + 1,
                                unit.file)
                            raise
                        outcome.errors[pos] = (
                            "crash", exc, _format_tb(exc))
                    continue
            if unit.source is not None:
                state.plans[unit.task_index].records[unit.file_pos] = value
            else:
                self._store(state, unit.task_index, *value)
        if outcome.broken:
            pool.kill()
        return outcome

    @staticmethod
    def _record_failure(
        state: _Run,
        index: int,
        kind: str,
        exc: BaseException,
        tb: str,
        attempts: int,
        file: str = "",
    ) -> None:
        if index in state.failures:
            # First failing unit claims the task; later units of the
            # same task (still in flight when it failed) are dropped.
            return
        task = state.tasks[index]
        state.failures[index] = TaskFailure(
            app=task.name,
            kind=kind,
            attempts=attempts,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=tb,
            file=file,
        )
        obs.incr("engine.task_failures")
        obs.event("engine.task_failure", app=task.name, kind=kind,
                  attempts=attempts, error_type=type(exc).__name__,
                  file=file)

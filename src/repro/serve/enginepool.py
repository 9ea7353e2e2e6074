"""A pool of extraction engines for concurrent ``/analyze`` traffic.

One engine behind a lock would cap extraction throughput at one
request at a time no matter how many cores the host has. The
:class:`EnginePool` instead has *N engines checked out per request*:
each pool slot is a long-lived worker **process** owning its
own :class:`~repro.engine.ExtractionEngine` (built from the same
:class:`~repro.engine.EngineConfig` the CLI resolves), so N requests
extract genuinely in parallel — separate interpreters, no GIL
contention — while the (N+1)-th waits for a slot. The workers are the
engine's own :class:`~repro.engine.scheduler.WorkerPool`, the process
executor the scheduler's runs use too.

Checkout semantics are shed-don't-collapse: a request that cannot
obtain a slot within ``checkout_timeout`` seconds is refused with
:class:`PoolSaturated`, which the HTTP layer turns into ``503`` +
``Retry-After``. The wait itself is observable
(``serve.pool.wait.seconds``), as are the shed count
(``serve.pool.shed``), the live occupancy gauge (``serve.pool.in_use``),
and one-per-lifetime worker rebuilds after a worker death
(``serve.pool.rebuilds``). A second death leaves the pool broken, which
``/healthz`` reports as ``status: "degraded"``. The configured
``task_timeout`` is each request's deadline: past it the workers are
killed and replaced (without spending the rebuild budget) and the
request fails with :class:`~repro.engine.TaskTimeout`.

Byte-identity is preserved by construction: a pool worker runs the very
same ``ExtractionEngine.extract_one`` the offline CLI runs (serial
inside the worker — the pool slot *is* the parallelism unit), with the
same float normalisation and the same cache semantics, so a row
computed by slot 3 is indistinguishable from one computed by the CLI.
Worker-side telemetry (spans, counters — cache hits included) is
captured in the worker's private :mod:`repro.obs` session, stamped with
the request's trace ID, shipped back, and grafted into the parent
session by :func:`~repro.engine.scheduler.worker_call`, the helper
every worker call runs through.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import BrokenExecutor
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.engine import EngineConfig, ExtractionEngine, TaskTimeout
from repro.engine.scheduler import WorkerPool
from repro.lang import Codebase

#: Default bound on how long a request waits for a free engine before
#: being shed (seconds). Matches the serving layer's request timeout
#: scale: a pool that cannot free a slot in this long is overloaded.
DEFAULT_CHECKOUT_TIMEOUT = 30.0

_BROKEN_MESSAGE = ("engine pool worker processes died twice; refusing "
                   "to rebuild again")


class PoolSaturated(Exception):
    """Every engine is busy and the checkout wait timed out.

    ``retry_after`` is the whole-second hint the HTTP layer forwards as
    the ``Retry-After`` header.
    """

    def __init__(self, retry_after: int = 1):
        super().__init__(
            f"all extraction engines are busy; retry after {retry_after}s")
        self.retry_after = retry_after


# -- worker-process side ----------------------------------------------

#: Per-process engine handle, built lazily from the config the
#: initializer ships in. Module-level because pool workers re-import
#: this module; one engine per worker process, reused across requests.
_WORKER_ENGINE: Optional[ExtractionEngine] = None


def _slot_config(config: EngineConfig) -> EngineConfig:
    """One slot's engine: ``workers=1``, since the slot is the unit of
    parallelism (nested pools would oversubscribe the host), and no
    ``task_timeout``, which a serial engine cannot enforce and the pool
    does. The cache carries over: all slots share one warm cache."""
    return dataclasses.replace(config, workers=1, task_timeout=None)


def _pool_init(config: EngineConfig) -> None:
    """Worker initializer: build this worker's private engine."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = _slot_config(config).build()


def _engine_call(method: str, codebase: Codebase,
                 kwargs: Dict[str, Any]) -> Any:
    """Run one engine method on this worker's engine.

    ``method`` names the :class:`~repro.engine.ExtractionEngine` entry
    point (``extract_one`` for ``/analyze``, ``extract_with_records``
    for ``/gate``).
    """
    return getattr(_WORKER_ENGINE, method)(codebase, **kwargs)


# -- parent side ------------------------------------------------------


class EnginePool:
    """N extraction engines, each in its own process, checked out per
    request.

    Args:
        config: the engine shape every slot builds (workers forced to
            1 per slot; cache/failure knobs carry over; ``task_timeout``
            is each request's deadline, enforced by the pool).
        size: number of engine slots — the daemon's concurrent
            ``/analyze`` extraction bound.
        checkout_timeout: seconds a request may wait for a free slot
            before being shed with :class:`PoolSaturated`.

    The pool is thread-safe: handler threads call
    :meth:`extract_one` concurrently; a semaphore bounds occupancy and
    a :class:`~repro.engine.scheduler.WorkerPool` of one worker per
    slot runs the extractions. A worker death replaces the workers once
    per pool lifetime (``serve.pool.rebuilds``); a second death marks
    the pool broken (see :meth:`describe`) and every later extraction
    raises.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        size: int = 2,
        checkout_timeout: float = DEFAULT_CHECKOUT_TIMEOUT,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if not checkout_timeout > 0:
            raise ValueError("checkout_timeout must be positive")
        self.config = config if config is not None else EngineConfig()
        self.size = int(size)
        self.checkout_timeout = float(checkout_timeout)
        self._slots = threading.Semaphore(self.size)
        self._state_lock = threading.Lock()
        self._in_use = 0
        self._rebuilds_left = 1
        self._broken = False
        self._workers = WorkerPool(self.size, _pool_init, (self.config,))
        # Resolved once: /healthz asks for this on every probe, and
        # building an engine (cache backend included) per probe would
        # be wasteful.
        self._engine_shape = dict(
            _slot_config(self.config).build().describe(),
            task_timeout=self.config.task_timeout)

    # -- lifecycle ----------------------------------------------------

    def prestart(self) -> None:
        """Spawn and initialise every worker now, not on first request.

        A daemon that warms the pool at boot pays import/fork cost
        once, before traffic, instead of on the first N requests.
        """
        jobs = [self._workers.submit(os.getpid, ()) for _ in range(self.size)]
        for job in jobs:
            self._workers.wait(job)

    def close(self) -> None:
        """Shut the workers down; in-flight extractions finish first."""
        self._workers.close()

    # -- extraction ---------------------------------------------------

    def extract_one(
        self,
        codebase: Codebase,
        include_dynamic: bool = False,
    ) -> Dict[str, float]:
        """Extract one codebase on the next free engine.

        Blocks up to ``checkout_timeout`` for a slot, then raises
        :class:`PoolSaturated`. Extraction failures surface as
        :class:`~repro.engine.ExtractionError` exactly like the
        in-process path. The caller's thread-bound trace ID rides into
        the worker and its spans/counters are grafted back, so one
        request still exports one connected trace.
        """
        return self._checkout_and_run(
            "serve.pool.extract", "extract_one", codebase,
            {"include_dynamic": include_dynamic})

    def extract_with_records(
        self,
        codebase: Codebase,
    ) -> Tuple[Dict[str, float], List[dict]]:
        """Extract row *and* per-file records on the next free engine.

        The ``/gate`` counterpart of :meth:`extract_one`, with the same
        checkout semantics, but the worker runs ``extract_with_records``
        so the caller gets the per-file records the delta engine diffs.
        """
        return self._checkout_and_run(
            "serve.pool.extract_records", "extract_with_records",
            codebase, {})

    def _checkout_and_run(self, span: str, method: str,
                          codebase: Codebase, kwargs: Dict[str, Any]):
        """Check a slot out, run ``method`` in a worker, graft telemetry.

        The wait for a slot is observed (``serve.pool.wait.seconds``),
        a timeout sheds with :class:`PoolSaturated`, and occupancy is
        gauged (``serve.pool.in_use``) until the slot is released.
        """
        waited_from = perf_counter()
        if not self._slots.acquire(timeout=self.checkout_timeout):
            obs.incr("serve.pool.shed")
            obs.event("serve.pool.shed", size=self.size,
                      waited_s=round(self.checkout_timeout, 3))
            raise PoolSaturated(max(1, int(self.checkout_timeout // 4)))
        obs.observe("serve.pool.wait.seconds", perf_counter() - waited_from)
        with self._state_lock:
            self._in_use += 1
            obs.gauge("serve.pool.in_use", self._in_use)
        try:
            with obs.span(span, pool_size=self.size, app=codebase.name):
                return self._run((method, codebase, kwargs), codebase.name)
        finally:
            with self._state_lock:
                self._in_use -= 1
                obs.gauge("serve.pool.in_use", self._in_use)
            self._slots.release()

    def _run(self, args: tuple, name: str) -> Any:
        """Run one request in a worker, resubmitting after a death.

        Past the configured ``task_timeout`` the wait kills the workers
        and the request fails with :class:`TaskTimeout`; the requests
        in flight beside it resubmit, as after a death. A retry runs on
        the replacement workers; when the rebuild budget is spent,
        :meth:`_rebuild` marks the pool broken and raises.
        """
        while True:
            with self._state_lock:
                if self._broken:
                    raise RuntimeError(_BROKEN_MESSAGE)
            job = self._workers.submit(_engine_call, args)
            try:
                return self._workers.wait(job, self.config.task_timeout)
            except TaskTimeout as exc:
                raise TaskTimeout(f"{name}: {exc}") from None
            except BrokenExecutor:
                self._rebuild(job)

    def _rebuild(self, job) -> None:
        """Replace the workers ``job`` died on, once per pool lifetime.

        A no-op when they were already replaced — by another request
        that saw the same death, or by a deadline kill: two requests in
        flight on one dead executor are one worker death, not two, and
        a deadline kill is no death at all.
        """
        with self._state_lock:
            if not self._workers.kill(job):
                return
            if self._rebuilds_left <= 0:
                self._broken = True
                raise RuntimeError(_BROKEN_MESSAGE)
            self._rebuilds_left -= 1
        obs.incr("serve.pool.rebuilds")
        obs.event("serve.pool.rebuild", size=self.size)

    # -- identity -----------------------------------------------------

    @property
    def in_use(self) -> int:
        with self._state_lock:
            return self._in_use

    def describe(self) -> Dict[str, Any]:
        """The pool's shape and health for ``/healthz``.

        ``broken`` is true once the worker processes died with no
        rebuild left; every later extraction then fails until restart.
        """
        with self._state_lock:
            return {
                "size": self.size,
                "in_use": self._in_use,
                "checkout_timeout": self.checkout_timeout,
                "rebuilds_left": self._rebuilds_left,
                "broken": self._broken,
                "engine": dict(self._engine_shape),
            }


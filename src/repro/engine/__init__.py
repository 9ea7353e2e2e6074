"""Parallel, cache-aware execution engine for the testbed.

The paper's framework must run "all the code properties" analyzers over
hundreds of applications (§5.1); this package is the layer that makes
that corpus-scale extraction fast and incremental:

- :mod:`repro.engine.digest` — content-addressed keys over codebase
  bytes, commit history, extraction args, and the analyzer-set version;
- :mod:`repro.engine.cache` — a JSON feature cache, robust to
  corruption, with hit/miss counters in :mod:`repro.obs`; caches whole
  feature rows, per-file analyzer records, and per-app manifests (the
  incremental path's three artefact kinds);
- :mod:`repro.engine.backends` — the pluggable :class:`CacheBackend`
  storage protocol under the cache: the sharded-directory layout by
  default, a shared SQLite WAL database for ``sqlite:PATH`` specs so a
  fleet of runs shares one warm cache;
- :mod:`repro.engine.config` — the :class:`EngineConfig` value object
  (and shared argparse parent) every CLI command and the public API
  configure the engine through;
- :mod:`repro.engine.scheduler` — the scheduler, with failure
  policies (``on_error="raise"|"skip"|"retry"``), per-task timeouts
  and worker-crash recovery, plus the generic
  :func:`~repro.engine.scheduler.parallel_map` primitive the corpus
  builder reuses. ``run``, ``extract_one`` and the gate's
  ``extract_with_records`` share one extraction path, and process
  lifetime lives in one type,
  :class:`~repro.engine.scheduler.WorkerPool` (in-process or worker
  processes, waits with a deadline), which the scheduler,
  ``parallel_map`` and the engine pool in :mod:`repro.serve` share;
- :mod:`repro.engine.faults` — the fault-injection seam the recovery
  tests drive (inert unless ``REPRO_FAULTS`` is set).

Results are deterministic: rows merge in task order and are
bit-identical to a serial uncached run; under ``on_error="skip"`` the
surviving rows stay byte-identical to a clean run over the same apps.
"""

from repro.engine.backends import (
    BackendReadError,
    CacheBackend,
    FilesystemBackend,
    SqliteBackend,
    backend_from_spec,
)
from repro.engine.cache import CACHE_FORMAT_VERSION, FeatureCache
from repro.engine.config import EngineConfig, engine_options
from repro.engine.digest import (
    ANALYZER_SET_VERSION,
    codebase_digest,
    file_digest,
    history_digest,
    manifest_key,
    task_digest,
)
from repro.engine.scheduler import (
    CACHE_DIR_ENV,
    ON_ERROR_POLICIES,
    WORKERS_ENV,
    ExtractionEngine,
    ExtractionError,
    ExtractionReport,
    ExtractionTask,
    TaskFailure,
    TaskTimeout,
    format_failures,
    parallel_map,
)

__all__ = [
    "ANALYZER_SET_VERSION",
    "BackendReadError",
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CacheBackend",
    "EngineConfig",
    "FilesystemBackend",
    "SqliteBackend",
    "ExtractionEngine",
    "ExtractionError",
    "ExtractionReport",
    "ExtractionTask",
    "FeatureCache",
    "ON_ERROR_POLICIES",
    "TaskFailure",
    "TaskTimeout",
    "WORKERS_ENV",
    "backend_from_spec",
    "codebase_digest",
    "engine_options",
    "file_digest",
    "format_failures",
    "history_digest",
    "manifest_key",
    "parallel_map",
    "task_digest",
]

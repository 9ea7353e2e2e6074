"""Engine configuration shared by the CLI and the public API.

Every command that extracts features takes the same six knobs
(``--workers``, ``--cache-dir``, ``--no-cache``, ``--on-error``,
``--task-timeout``, ``--max-retries``). This module declares them
exactly once:

- :func:`engine_options` — an argparse *parent* parser carrying the
  flags, attached to every subcommand so the surface cannot drift
  between commands.
- :class:`EngineConfig` — the frozen value object the parsed flags
  collapse into; :meth:`EngineConfig.build` resolves the precedence
  (explicit flag > ``REPRO_WORKERS``/``REPRO_CACHE_DIR`` environment >
  built-in default) into a ready :class:`ExtractionEngine`.

Library callers use :class:`EngineConfig` directly — it is part of the
public API (``repro.EngineConfig``) — so a script and a shell invocation
configure extraction through the same object.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from repro.engine.cache import FeatureCache
from repro.engine.scheduler import ExtractionEngine, ON_ERROR_POLICIES


@dataclass(frozen=True)
class EngineConfig:
    """Declarative extraction-engine configuration.

    ``None`` fields mean "defer": :meth:`build` falls back to the
    ``REPRO_WORKERS``/``REPRO_CACHE_DIR`` environment and the engine's
    built-in defaults, mirroring what the CLI does with unset flags.
    ``no_cache=True`` disables caching even when the environment (or
    ``cache_dir``) configures one.

    ``cache_dir`` is a URI-style backend spec: a plain path selects
    the sharded filesystem layout, ``sqlite:PATH`` a single SQLite
    database in WAL mode that many concurrent runs (CI runners,
    daemons) can share as one warm cache.
    """

    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False
    on_error: Optional[str] = None
    task_timeout: Optional[float] = None
    max_retries: Optional[int] = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "EngineConfig":
        """Collapse an argparse namespace into a config.

        Tolerant of namespaces missing the engine attributes (a
        subcommand that somehow lacks the shared parent just gets the
        deferred defaults).
        """
        return cls(
            workers=getattr(args, "workers", None),
            cache_dir=getattr(args, "cache_dir", None),
            no_cache=bool(getattr(args, "no_cache", False)),
            on_error=getattr(args, "on_error", None),
            task_timeout=getattr(args, "task_timeout", None),
            max_retries=getattr(args, "max_retries", None),
        )

    def build(self) -> ExtractionEngine:
        """Resolve this config into a ready :class:`ExtractionEngine`.

        Explicit fields win; unset fields fall back to the environment
        (``REPRO_WORKERS``/``REPRO_CACHE_DIR``); ``no_cache`` disables
        caching even when the environment configures a cache dir.
        """
        env_engine = ExtractionEngine.from_env()
        workers = self.workers if self.workers is not None \
            else env_engine.workers
        if self.no_cache:
            cache = None
        elif self.cache_dir:
            cache = FeatureCache(self.cache_dir)
        else:
            cache = env_engine.cache
        return ExtractionEngine(
            workers=workers,
            cache=cache,
            on_error=self.on_error or "raise",
            task_timeout=self.task_timeout,
            max_retries=self.max_retries
            if self.max_retries is not None else 2,
        )


def engine_options() -> argparse.ArgumentParser:
    """The shared argparse parent declaring the engine flags once.

    Attach with ``add_parser(..., parents=[engine_options()])``; every
    subcommand then accepts the identical engine surface and
    :meth:`EngineConfig.from_args` reads it back uniformly.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "engine options",
        "extraction engine knobs shared by every command; defaults "
        "fall back to $REPRO_WORKERS / $REPRO_CACHE_DIR")
    group.add_argument(
        "--workers", type=int, metavar="N", default=None,
        help="parallel extraction worker processes (default: "
             "$REPRO_WORKERS or 1)")
    group.add_argument(
        "--cache-dir", metavar="PATH|sqlite:PATH", default=None,
        help="content-addressed feature cache: a directory for the "
             "filesystem backend, sqlite:PATH for a shared SQLite "
             "database many runs can use concurrently (default: "
             "$REPRO_CACHE_DIR or no cache)")
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the feature cache even if $REPRO_CACHE_DIR is set")
    group.add_argument(
        "--on-error", choices=list(ON_ERROR_POLICIES), default=None,
        help="failure policy for per-app extraction (default: raise)")
    group.add_argument(
        "--task-timeout", type=float, metavar="SECONDS", default=None,
        help="per-app wall-clock extraction budget (enforced with "
             "workers > 1 and by the serve daemon's engine pool)")
    group.add_argument(
        "--max-retries", type=int, metavar="N", default=None,
        help="extra attempts per crashed app with --on-error retry "
             "(default: 2)")
    return parent

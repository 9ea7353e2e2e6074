"""Fault injection for the extraction engine (a test seam).

The fault-tolerance guarantees in :mod:`repro.engine.scheduler` —
failure policies, per-task timeouts, worker-crash recovery — are only
trustworthy if the failure paths are actually exercised. Real analyzer
failures are hard to stage on demand, so the engine carries this tiny
failpoint layer instead: when the ``REPRO_FAULTS`` environment variable
is set, :func:`~repro.engine.scheduler.worker_call` consults it by
*application name* before (and after) running each extraction unit —
whole app or single file, from ``run``, ``extract_one`` or the gate's
``extract_with_records`` alike — and misbehaves on cue. The variable
travels into worker processes with the rest of the environment, so
faults fire identically under the serial and process-pool paths.

Spec grammar (``;``-separated, one clause per app)::

    REPRO_FAULTS="appA=crash;appB=hang:30;appC=kill_once:/tmp/s"

Kinds:

- ``crash`` — raise :class:`InjectedFault` on every attempt.
- ``crash_once:<sentinel>`` — raise on the first attempt only; the
  sentinel file (created atomically) marks the fault as spent, so
  retries and re-runs in other processes see a healthy task.
- ``crash_in_worker:<pid>`` — raise unless running in process ``pid``
  (pass the scheduler's pid to prove the serial last-attempt ladder).
- ``hang:<seconds>`` — sleep, simulating a wedged analyzer.
- ``kill`` — SIGKILL the current process (a worker crash the parent
  sees as ``BrokenProcessPool``).
- ``kill_once:<sentinel>`` — SIGKILL on the first attempt only.
- ``poison`` — complete normally but attach an unpicklable object to
  the result, so shipping it out of a worker fails.

When ``REPRO_FAULTS`` is unset (every production run) the lookup is a
single environment read returning None.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional

#: Environment variable holding the fault spec; unset means no faults.
FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """The exception every ``crash*`` fault kind raises."""


class Unpicklable:
    """A value that defeats pickling — the ``poison`` fault's cargo."""

    def __reduce__(self):
        raise TypeError("injected unpicklable result")


def _claim_sentinel(path: str) -> bool:
    """Atomically create ``path``; True if this call created it."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


@dataclass(frozen=True)
class Fault:
    """One injected misbehaviour bound to an application name."""

    app: str
    kind: str
    payload: str = ""

    def fire(self) -> None:
        """Misbehave per ``kind``; called at the top of task execution."""
        if self.kind == "crash":
            raise InjectedFault(f"injected crash in {self.app}")
        if self.kind == "crash_once":
            if _claim_sentinel(self.payload):
                raise InjectedFault(
                    f"injected one-shot crash in {self.app}")
            return
        if self.kind == "crash_in_worker":
            if os.getpid() != int(self.payload):
                raise InjectedFault(
                    f"injected worker-only crash in {self.app} "
                    f"(pid {os.getpid()})")
            return
        if self.kind == "hang":
            time.sleep(float(self.payload or "3600"))
            return
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover - unreachable
        if self.kind == "kill_once":
            if _claim_sentinel(self.payload):
                os.kill(os.getpid(), signal.SIGKILL)
            return
        if self.kind == "poison":
            return  # applied to the result after extraction
        raise ValueError(f"unknown injected fault kind {self.kind!r}")


def parse_faults(spec: str) -> Dict[str, Fault]:
    """Parse a ``REPRO_FAULTS`` spec into {app name: fault}."""
    faults: Dict[str, Fault] = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, _, directive = clause.partition("=")
        kind, _, payload = directive.partition(":")
        faults[name] = Fault(app=name, kind=kind, payload=payload)
    return faults


def active_fault(app: str) -> Optional[Fault]:
    """The fault configured for ``app``, or None (the common case)."""
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return None
    return parse_faults(spec).get(app)

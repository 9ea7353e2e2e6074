"""Cyclic-collector telemetry: ``runtime.gc.*`` counters per session."""

from __future__ import annotations

import gc

import pytest

from repro import obs
from repro.obs.metrics import prometheus_exposition
from repro.obs.report import format_metrics


@pytest.fixture(autouse=True)
def _no_session():
    obs.disable()
    yield
    obs.disable()


def _gc_counters(session) -> dict:
    counters = session.metrics.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("runtime.gc.")}


def test_forced_collection_is_counted_with_its_pause():
    session = obs.configure()
    gc.collect()
    counters = _gc_counters(session)
    assert counters["runtime.gc.collections.gen2"] >= 1
    assert counters["runtime.gc.pause_ms"] > 0


def test_generation_is_recorded():
    session = obs.configure()
    gc.collect(0)
    assert _gc_counters(session)["runtime.gc.collections.gen0"] >= 1


def test_hook_registered_once_and_only_while_a_session_is_active():
    assert obs._on_gc not in gc.callbacks
    obs.configure()
    obs.configure()  # replacing a session keeps one registration
    assert gc.callbacks.count(obs._on_gc) == 1
    obs.disable()
    assert obs._on_gc not in gc.callbacks
    gc.collect()  # nothing records, nothing raises


def test_collection_inside_a_registry_lock_does_not_deadlock():
    # The hook fires on whatever allocation starts a collection, possibly
    # inside the registry's own critical section: it must not lock.
    session = obs.configure()
    with session.metrics._lock:
        gc.collect()
    assert _gc_counters(session)["runtime.gc.collections.gen2"] >= 1


def test_reaches_metricz_profile_and_worker_grafts():
    worker = obs.configure()
    gc.collect()
    shipped = worker.metrics.snapshot()["counters"]  # what workers ship
    obs.disable()

    parent = obs.configure()
    obs.merge_counters(shipped)
    merged = _gc_counters(parent)
    assert merged["runtime.gc.collections.gen2"] >= \
        shipped["runtime.gc.collections.gen2"]
    assert merged["runtime.gc.pause_ms"] >= shipped["runtime.gc.pause_ms"]

    text = prometheus_exposition(parent.metrics.snapshot())
    assert "repro_runtime_gc_collections_gen2_total" in text
    assert "repro_runtime_gc_pause_ms_total" in text
    report = format_metrics(parent.metrics)
    assert "runtime.gc.collections.gen2" in report
    assert "runtime.gc.pause_ms" in report

"""``repro.serve`` resolves its public names lazily (PEP 562).

Reading ``SCHEMA_VERSION`` or a payload builder must not import the
daemon modules: the CLI, the gate and the train path only need
``repro.serve.payloads``. Each probe runs in a fresh interpreter so the
test suite's own imports cannot mask an eager one.
"""

import os
import subprocess
import sys

import pytest

import repro.serve

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
DAEMON_MODULES = ("repro.serve.aio", "repro.serve.enginepool")


def loaded_after(code):
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro.')))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("code", [
    "import repro.cli",
    # The start-up probe's import path (feature table + engine).
    "from repro.core.pipeline import build_feature_table\n"
    "from repro.engine import ExtractionEngine, FeatureCache",
    "from repro.serve import SCHEMA_VERSION, dump_payload",
])
def test_daemon_tiers_stay_unloaded(code):
    loaded = loaded_after(code)
    assert not loaded & set(DAEMON_MODULES)


def test_names_resolve_on_access():
    loaded = loaded_after(
        "import repro.serve as s\n"
        "assert s.AsyncPredictionServer.__module__ == 'repro.serve.aio'\n"
        "assert s.EnginePool.__module__ == 'repro.serve.enginepool'")
    assert set(DAEMON_MODULES) <= loaded


def test_all_and_dir():
    assert repro.serve.__all__ == sorted(repro.serve.__all__)
    for name in repro.serve.__all__:
        assert getattr(repro.serve, name) is not None
        assert name in dir(repro.serve)
    with pytest.raises(AttributeError):
        repro.serve.no_such_name


def test_threaded_tier_is_gone():
    with pytest.raises(AttributeError):
        repro.serve.PredictionServer

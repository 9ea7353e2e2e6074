"""Sessions nothing reads spans back from keep no finished spans.

A server started without ``--profile``/``--stream`` configures a
session only so ``/metricz`` has a registry, and a ``--stream``-only
CLI run streams each span as it finishes. Only ``--profile`` reads
finished spans back, so the other sessions must not keep them: a
long-lived daemon would otherwise grow by every span of every
request. Their ``span.<name>.seconds`` histograms must still see every
span, exactly as a span-keeping session's do.
"""

import pytest

from repro import obs
from repro.engine import EngineConfig
from repro.lang import Codebase
from repro.serve import AsyncPredictionServer

SOURCE = (
    "#include <string.h>\n"
    "int handle(char *req) {\n"
    "    char buf[32];\n"
    "    strcpy(buf, req);\n"
    "    return 0;\n"
    "}\n"
)

EXTRACTIONS = 41


def _run(store, checkpoints):
    """Extract one tree EXTRACTIONS times through a server's pool.

    Returns the session, its retained span counts at ``checkpoints``
    (extraction numbers) and its span histogram counts.
    """
    server = AsyncPredictionServer(
        store, config=EngineConfig(no_cache=True), port=0, pool_size=1)
    session = obs.active()
    retained = []
    try:
        for n in range(1, EXTRACTIONS + 1):
            server.pool.extract_one(
                Codebase.from_sources("app", {"app.c": SOURCE}))
            if n in checkpoints:
                retained.append(len(session.tracer.spans))
    finally:
        server.stop()
        obs.disable()
    histograms = {
        name: hist.count
        for name, hist in session.metrics.histograms.items()
        if name.startswith("span.")
    }
    return session, retained, histograms


def test_implicit_server_session_keeps_no_spans(store):
    obs.disable()
    session, retained, lean = _run(store, (1, 21, 41))
    assert session.tracer.keep_spans is False
    assert retained == [0, 0, 0]
    assert lean and all(count > 0 for count in lean.values())

    # The same extractions under a span-keeping session (which the
    # server reuses): identical histograms, and every span retained.
    keeping = obs.configure()
    reused, _, full = _run(store, ())
    assert reused is keeping
    assert full == lean
    assert len(keeping.tracer.spans) == sum(full.values())


@pytest.mark.parametrize("flags, keeps", [
    (["--stream", "{tmp}/s.jsonl"], False),
    (["--stream", "{tmp}/s.jsonl", "--profile"], True),
    (["--profile"], True),
])
def test_cli_session_keeps_spans_only_for_trace_or_profile(
        tmp_path, monkeypatch, capsys, flags, keeps):
    """The trace lives in the stream now, so only ``--profile`` keeps
    finished spans."""
    from repro.cli import main

    tree = tmp_path / "app"
    tree.mkdir()
    (tree / "app.c").write_text(SOURCE)
    sessions = []
    configure = obs.configure

    def recording_configure(**kwargs):
        sessions.append(configure(**kwargs))
        return sessions[-1]

    monkeypatch.setattr(obs, "configure", recording_configure)
    argv = [flag.format(tmp=tmp_path) for flag in flags]
    assert main(argv + ["analyze", str(tree)]) == 0
    (session,) = sessions
    assert session.tracer.keep_spans is keeps
    assert bool(session.tracer.spans) is keeps
    assert session.metrics.histograms

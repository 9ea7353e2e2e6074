"""``/predict`` is scored inline on the handler thread.

No collector thread, no batch-size histogram, and the served bytes are
exactly what the offline :func:`prediction_payload` produces for the
same rows, one ``assess`` per row.
"""

import json
import threading

from repro.serve.modelstore import load_model
from repro.serve.payloads import dump_payload, prediction_payload

from tests.serve.conftest import http as fire

FEATURES = {"loc.total": 120.0, "complexity.per_kloc": 4.5,
            "smells.per_kloc": 2.0}


def test_started_daemon_runs_no_batcher_thread(tier_server):
    status, _, _ = fire(tier_server, "POST", "/predict",
                        {"features": FEATURES})
    assert status == 200
    names = [thread.name for thread in threading.enumerate()]
    assert not any("batcher" in name for name in names), names


def test_metricz_has_no_batch_size_histogram(tier_server):
    fire(tier_server, "POST", "/predict",
         {"instances": [FEATURES, FEATURES]})
    status, _, body = fire(tier_server, "GET", "/metricz")
    assert status == 200
    histograms = json.loads(body)["histograms"]
    assert histograms["serve.predict.seconds"]["count"] >= 1
    assert "serve.batch_size" not in histograms


def test_predict_bytes_equal_offline_payloads(tier_server, model_file):
    model = load_model(model_file)
    rows = [FEATURES, {name: 3 * value for name, value in FEATURES.items()}]
    status, _, body = fire(tier_server, "POST", "/predict",
                           {"features": rows[0]})
    assert status == 200
    assert body == dump_payload(prediction_payload(model, rows[0]))
    status, _, body = fire(tier_server, "POST", "/predict",
                           {"instances": rows})
    assert status == 200
    assert body == dump_payload({
        "model": "default",
        "predictions": [prediction_payload(model, row) for row in rows],
    })

"""Canonical JSON payloads shared by the CLI and the serving layer.

Byte-identity between the offline path (``repro analyze --json``) and
the served path (``POST /analyze``, ``POST /predict``) is an explicit
contract — the CI serve-smoke leg diffs the two outputs — so both go
through these builders and through :func:`dump_payload` for
serialisation. Anything that would change a byte of output (key order,
float formatting, indentation, the trailing newline) lives here and
nowhere else.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.core.model import SecurityModel
from repro.lang import Codebase

#: Version stamp carried by every payload this module builds, so
#: consumers of ``analyze --json``, ``/predict``, and ``/analyze`` can
#: detect shape changes. Bump on any breaking payload change.
SCHEMA_VERSION = 1


def prediction_payload(
    model: SecurityModel, features: Dict[str, float]
) -> Dict[str, object]:
    """One application's model verdict as a plain JSON-ready dict.

    Predictions are computed per row through the exact same
    :meth:`~repro.core.model.SecurityModel.assess` call the offline
    CLI uses — ``/predict`` calls this once per row and never
    vectorises across rows, so an ``instances`` response is bit-equal
    to one-at-a-time responses.
    """
    assessment = model.assess(features)
    return {
        "schema_version": SCHEMA_VERSION,
        "probabilities": {
            key: assessment.probabilities[key]
            for key in sorted(assessment.probabilities)
        },
        "estimates": {
            key: assessment.estimates[key]
            for key in sorted(assessment.estimates)
        },
        "overall_risk": assessment.overall_risk,
    }


def analysis_payload(
    codebase: Codebase,
    row: Dict[str, float],
    model: Optional[SecurityModel] = None,
) -> Dict[str, object]:
    """The ``analyze --json`` document for one extracted codebase.

    With a model, a ``prediction`` block (the :func:`prediction_payload`
    shape) rides along — this is the document ``POST /analyze`` returns
    and the serve-smoke leg diffs against the offline CLI.
    """
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "app": codebase.name,
        "files": len(codebase),
        "primary_language": codebase.primary_language(),
        "features": dict(sorted(row.items())),
    }
    if model is not None:
        payload["prediction"] = prediction_payload(model, row)
    return payload


def dump_payload(payload: Dict[str, object]) -> str:
    """Serialise a payload exactly as the CLI prints it.

    ``sort_keys`` + two-space indent + trailing newline: the bytes a
    redirected ``repro analyze --json`` writes, and the bytes the HTTP
    endpoints respond with.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

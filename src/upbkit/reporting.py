"""Deterministic report serialization and schema validation.

Reports are JSON with a fixed layout::

    {"config": {...}, "payload": {...}, "meta": {...}}

``dumps_canonical`` renders them with ``json.dumps``, which keeps dict keys in
insertion order, writes every real in its shortest round-trip form
(``float.__repr__``, also for ``np.float64``) and spells the non-finite reals
``NaN`` / ``Infinity`` / ``-Infinity``, which ``json.loads`` accepts back.
Complex numbers appear only as two-element ``[re, im]`` arrays.  Re-running a
command with an identical config therefore reproduces the payload byte for
byte.

The text is one line with no whitespace between tokens, ending in one
newline: without ``indent``, ``json`` runs its C encoder, several times
faster on a long perturb-scan payload than the pure-Python encoder that any
``indent`` selects.  ``python -m json.tool report.json`` prints an indented
view.
"""

from __future__ import annotations

import json
from typing import Any


class SchemaError(RuntimeError):
    """A report does not match the documented schema."""


def dumps_canonical(value: Any) -> str:
    """Render plain dict/list/scalar data as deterministic JSON text."""
    return json.dumps(value, separators=(",", ":")) + "\n"


# --------------------------------------------------------------------------
# schema validation
#
# A schema is written with the Python types it checks:
#   int | float | str | bool | None           primitive (float accepts int; only bool takes a bool)
#   complex                                   [re, im] with two numbers
#   [spec]                                    homogeneous array
#   {str: spec}                               object with arbitrary string keys
#   (spec, spec, ...)                         first matching alternative wins
#   {key: spec, ...}                          object with exactly these keys
# --------------------------------------------------------------------------

_MEMBER = [[complex]]

_PER_EPSILON_ROW = {
    "epsilon": float,
    "predicted_min": float,
    "exact_min": float,
    "abs_error": float,
    "decided_by": str,
}

_SCAN_SAMPLE = {
    "noise": str,
    "compression_eigenvalues": [float],
    "verdict": str,
    "lambda_min": float,
    "per_epsilon": [_PER_EPSILON_ROW],
}

_HUNT_SAMPLE = {
    "index": int,
    "distinct_count": int,
    "rank": int,
    "overlaps": [float],
}

_CUT_ROW = {
    "side_a": [int],
    "side_b": [int],
    "ppt": bool,
    "min_eigenvalue": float,
}

PAYLOAD_SCHEMAS: dict[str, dict] = {
    "build": {
        "members": [_MEMBER],
        "spectrum": [float],
        "ppt": [_CUT_ROW],
        "rank": int,
    },
    "certify": {
        "max_overlap": float,
        "restarts": int,
        "certified": bool,
        "best_product_vector": _MEMBER,
        "witness_trace": float,
        "witness_detected_value": float,
    },
    "perturb-scan": {
        "cut": {"side_a": [int], "side_b": [int]},
        "samples": [_SCAN_SAMPLE],
        "verdict_counts": {str: int},
    },
    "rank-mixtures": {
        "rank_first": int,
        "rank_second": int,
        "rank_equal_mixture": int,
        "rank_state_plus_member": int,
        "rank_tol": float,
    },
    "subspace-hunt": {
        "kind": str,
        "dim": int,
        "samples": [_HUNT_SAMPLE],
        "histogram": {str: int},
    },
    "witness-radius": {
        "direction": (str, {str: float}),
        "radius": float,
        "detected_value": float,
        "denominator": float,
        "check": (
            None,
            {
                "inside_scale": float,
                "inside_value": float,
                "outside_scale": float,
                "outside_value": float,
            },
        ),
    },
}

META_SCHEMA = {"toolkit_version": str, "elapsed_seconds": float}

# a primitive spec: the types its values may have, and the error text for any other value
_PRIMITIVES = {
    int: (int, "expected int, got {}"),
    float: ((int, float), "expected number, got {}"),
    str: (str, "expected string, got {}"),
    bool: (bool, "expected bool, got {}"),
    None: (type(None), "expected null"),
}


def _check(value: Any, spec: Any, path: str) -> None:
    if spec is None or isinstance(spec, type) and spec is not complex:
        accepted, error = _PRIMITIVES[spec]
        if not isinstance(value, accepted) or isinstance(value, bool) and spec is not bool:
            raise SchemaError(f"{path}: {error.format(type(value).__name__)}")
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected object, got {type(value).__name__}")
        if str in spec:
            for key, item in value.items():
                if not isinstance(key, str):
                    raise SchemaError(f"{path}: non-string key {key!r}")
                _check(item, spec[str], f"{path}.{key}")
            return
        unknown = set(value) - set(spec)
        if unknown:
            raise SchemaError(f"{path}: unknown fields {sorted(unknown)}")
        missing = set(spec) - set(value)
        if missing:
            raise SchemaError(f"{path}: missing fields {sorted(missing)}")
        for key, sub in spec.items():
            _check(value[key], sub, f"{path}.{key}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected array, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]")
    elif spec is complex:
        if not isinstance(value, list) or len(value) != 2:
            raise SchemaError(f"{path}: expected [re, im] pair")
        _check(value, [float], path)
    else:
        for alt in spec:
            try:
                _check(value, alt, path)
                return
            except SchemaError:
                continue
        raise SchemaError(f"{path}: no schema alternative matched")


def validate_report(report: Any) -> None:
    """Raise SchemaError unless the report dict matches the documented schema."""
    if not isinstance(report, dict):
        raise SchemaError("report must be an object")
    unknown = set(report) - {"config", "payload", "meta"}
    if unknown:
        raise SchemaError(f"report: unknown top-level fields {sorted(unknown)}")
    for key in ("config", "payload", "meta"):
        if key not in report:
            raise SchemaError(f"report: missing top-level field {key!r}")
    _check(report["meta"], META_SCHEMA, "meta")
    config = report["config"]
    if not isinstance(config, dict) or "command" not in config:
        raise SchemaError("config: missing command")
    command = config["command"]
    if command not in PAYLOAD_SCHEMAS:
        raise SchemaError(f"config.command: unknown command {command!r}")
    _check(report["payload"], PAYLOAD_SCHEMAS[command], "payload")

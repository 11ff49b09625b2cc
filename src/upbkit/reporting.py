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
"""

from __future__ import annotations

import json
from typing import Any


class SchemaError(RuntimeError):
    """A report does not match the documented schema."""


def dumps_canonical(value: Any) -> str:
    """Render plain dict/list/scalar data as deterministic JSON text."""
    return json.dumps(value, indent=2) + "\n"


# --------------------------------------------------------------------------
# schema validation
#
# Spec mini-language:
#   "int" | "float" | "str" | "bool" | "null"  primitive (float accepts int)
#   ("list", spec)                             homogeneous array
#   ("pair",)                                  [re, im] with two numbers
#   ("map", spec)                              object with arbitrary string keys
#   ("any_of", spec, ...)                      first matching alternative wins
#   {key: spec, ...}                           object with exactly these keys
# --------------------------------------------------------------------------

_LOCAL_PAIR = ("list", ("pair",))
_MEMBER = ("list", _LOCAL_PAIR)

_PER_EPSILON_ROW = {
    "epsilon": "float",
    "predicted_min": "float",
    "exact_min": "float",
    "abs_error": "float",
    "decided_by": "str",
}

_SCAN_SAMPLE = {
    "noise": "str",
    "compression_eigenvalues": ("list", "float"),
    "verdict": "str",
    "lambda_min": "float",
    "per_epsilon": ("list", _PER_EPSILON_ROW),
}

_HUNT_SAMPLE = {
    "index": "int",
    "distinct_count": "int",
    "rank": "int",
    "overlaps": ("list", "float"),
}

_CUT_ROW = {
    "side_a": ("list", "int"),
    "side_b": ("list", "int"),
    "ppt": "bool",
    "min_eigenvalue": "float",
}

PAYLOAD_SCHEMAS: dict[str, dict] = {
    "build": {
        "members": ("list", _MEMBER),
        "spectrum": ("list", "float"),
        "ppt": ("list", _CUT_ROW),
        "rank": "int",
    },
    "certify": {
        "max_overlap": "float",
        "restarts": "int",
        "certified": "bool",
        "best_product_vector": _MEMBER,
        "witness_trace": "float",
        "witness_detected_value": "float",
    },
    "perturb-scan": {
        "cut": {"side_a": ("list", "int"), "side_b": ("list", "int")},
        "samples": ("list", _SCAN_SAMPLE),
        "verdict_counts": ("map", "int"),
    },
    "rank-mixtures": {
        "rank_first": "int",
        "rank_second": "int",
        "rank_equal_mixture": "int",
        "rank_state_plus_member": "int",
        "rank_tol": "float",
    },
    "subspace-hunt": {
        "kind": "str",
        "dim": "int",
        "samples": ("list", _HUNT_SAMPLE),
        "histogram": ("map", "int"),
    },
    "witness-radius": {
        "direction": ("any_of", "str", ("map", "float")),
        "radius": "float",
        "detected_value": "float",
        "denominator": "float",
        "check": (
            "any_of",
            "null",
            {
                "inside_scale": "float",
                "inside_value": "float",
                "outside_scale": "float",
                "outside_value": "float",
            },
        ),
    },
}

META_SCHEMA = {"toolkit_version": "str", "elapsed_seconds": "float"}


def _check(value: Any, spec: Any, path: str) -> None:
    if spec == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{path}: expected int, got {type(value).__name__}")
    elif spec == "float":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{path}: expected number, got {type(value).__name__}")
    elif spec == "str":
        if not isinstance(value, str):
            raise SchemaError(f"{path}: expected string, got {type(value).__name__}")
    elif spec == "bool":
        if not isinstance(value, bool):
            raise SchemaError(f"{path}: expected bool, got {type(value).__name__}")
    elif spec == "null":
        if value is not None:
            raise SchemaError(f"{path}: expected null")
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected object, got {type(value).__name__}")
        unknown = set(value) - set(spec)
        if unknown:
            raise SchemaError(f"{path}: unknown fields {sorted(unknown)}")
        missing = set(spec) - set(value)
        if missing:
            raise SchemaError(f"{path}: missing fields {sorted(missing)}")
        for key, sub in spec.items():
            _check(value[key], sub, f"{path}.{key}")
    elif isinstance(spec, tuple) and spec and spec[0] == "list":
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected array, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check(item, spec[1], f"{path}[{i}]")
    elif isinstance(spec, tuple) and spec and spec[0] == "pair":
        if not isinstance(value, list) or len(value) != 2:
            raise SchemaError(f"{path}: expected [re, im] pair")
        for i, item in enumerate(value):
            _check(item, "float", f"{path}[{i}]")
    elif isinstance(spec, tuple) and spec and spec[0] == "map":
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected object, got {type(value).__name__}")
        for key, item in value.items():
            if not isinstance(key, str):
                raise SchemaError(f"{path}: non-string key {key!r}")
            _check(item, spec[1], f"{path}.{key}")
    elif isinstance(spec, tuple) and spec and spec[0] == "any_of":
        for alt in spec[1:]:
            try:
                _check(value, alt, path)
                return
            except SchemaError:
                continue
        raise SchemaError(f"{path}: no schema alternative matched")
    else:
        raise AssertionError(f"bad schema spec at {path}: {spec!r}")


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

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

``validate_report`` checks a report against ``META_SCHEMA`` and the payload
schema of its command (``PAYLOAD_SCHEMAS``) by one recursive walk of the value
and its schema.  A container lets an entry whose type is exactly its primitive
spec pass without a call; only the other entries recurse.  The path in an
error (``payload.samples[0].per_epsilon[2].epsilon``) is built only when a
check fails: each container adds its segment while the failure propagates out.
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
# _check walks a value and its schema together and stops at the first failure.
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


class _Mismatch(Exception):
    """A value fails its spec: the error text, and the path segments added on the way out, innermost first."""

    def __init__(self, text: str):
        super().__init__(text)
        self.text = text
        self.segments: list[str] = []


def _sorted_names(keys: set) -> list:
    """Unknown keys in the order an error names them: strings sorted, then any others by ``repr``.

    A dict built in memory may mix key types, which ``sorted`` alone cannot order.
    """
    return sorted(keys, key=lambda k: (False, k) if isinstance(k, str) else (True, repr(k)))


def _check(value: Any, spec: Any) -> None:
    """Raise ``_Mismatch`` at the first part of ``value`` that fails ``spec``."""
    fields = string_keys = False
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise _Mismatch(f"expected object, got {type(value).__name__}")
        if str in spec:
            entries, sub, string_keys = value.items(), spec[str], True
        elif value.keys() == spec.keys():
            entries, fields = spec.items(), True
        else:
            unknown = set(value) - set(spec)
            if unknown:
                raise _Mismatch(f"unknown fields {_sorted_names(unknown)}")
            raise _Mismatch(f"missing fields {sorted(set(spec) - set(value))}")
    elif spec is complex or isinstance(spec, list):
        if spec is complex:
            if not isinstance(value, list) or len(value) != 2:
                raise _Mismatch("expected [re, im] pair")
            spec = [float]
        elif not isinstance(value, list):
            raise _Mismatch(f"expected array, got {type(value).__name__}")
        entries, sub = enumerate(value), spec[0]
    elif isinstance(spec, tuple):
        for alternative in spec:
            try:
                _check(value, alternative)
                return
            except _Mismatch:
                pass
        raise _Mismatch("no schema alternative matched")
    else:
        accepted, error = _PRIMITIVES[spec]
        # bool subclasses int, and only a bool spec takes one
        if not isinstance(value, accepted) or type(value) is bool and spec is not bool:
            raise _Mismatch(error.format(type(value).__name__))
        return
    for key, item in entries:
        if fields:  # an object's entries are its spec's (key, sub) pairs, taken in spec order
            item, sub = value[key], item
        elif string_keys and not isinstance(key, str):
            raise _Mismatch(f"non-string key {key!r}")
        # an exact primitive type always passes; a complex spec wants an [re, im] pair, never a complex
        if type(item) is sub and sub is not complex:
            continue
        try:
            _check(item, sub)
        except _Mismatch as exc:
            exc.segments.append(f"[{key}]" if type(key) is int else f".{key}")
            raise


def _run_check(spec: Any, value: Any, root: str) -> None:
    try:
        _check(value, spec)
    except _Mismatch as exc:
        raise SchemaError(f"{root}{''.join(reversed(exc.segments))}: {exc.text}") from None


def validate_report(report: Any) -> None:
    """Raise SchemaError unless the report dict matches the documented schema."""
    if not isinstance(report, dict):
        raise SchemaError("report must be an object")
    unknown = set(report) - {"config", "payload", "meta"}
    if unknown:
        raise SchemaError(f"report: unknown top-level fields {_sorted_names(unknown)}")
    for key in ("config", "payload", "meta"):
        if key not in report:
            raise SchemaError(f"report: missing top-level field {key!r}")
    _run_check(META_SCHEMA, report["meta"], "meta")
    config = report["config"]
    if not isinstance(config, dict) or "command" not in config:
        raise SchemaError("config: missing command")
    command = config["command"]
    if not isinstance(command, str) or command not in PAYLOAD_SCHEMAS:
        raise SchemaError(f"config.command: unknown command {command!r}")
    _run_check(PAYLOAD_SCHEMAS[command], report["payload"], "payload")

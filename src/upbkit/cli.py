"""Reproducible experiment driver.

Every pipeline in the toolkit is wrapped as a command; the command name and
all inputs live in a JSON config file, and the result is a JSON report whose
payload is byte-identical across re-runs of the same config (see
``reporting``).  There are no wall-clock defaults: a 64-bit seed is required,
and every draw is a pure function of it and a counter, so parallel and serial
execution would agree:

    sample s of a batch         -> default_rng([seed, s])
    seesaw restart r            -> block r of one stream, the first spawned
                                   child of SeedSequence([seed])
    restart r inside sample s   -> block r of the first spawned child of
                                   SeedSequence([seed, s])

A block is the restart's start draws, so the restarts of a shorter run
start as the first of a longer one (they stop together, so their ends also
depend on how many there are), and the child never replays the sample's own
stream.

A command's parties are those of the UPB it builds.  ``_DIMS``, the family's
``(2, 2, 2)``, bounds label keys, cut indices and ``subspace_dim`` and sets the
size of the drawn hunts.  ``npt_projector`` noise is the three-qubit fixture.

Usage::

    upbkit --config cfg.json [--out report.json]

The config schema (a command accepts exactly the fields it reads)::

    command       one of: build | certify | perturb-scan | rank-mixtures
                  | subspace-hunt | witness-radius
    seed          required unsigned 64-bit integer
    angles        [a, b, c] radians, each strictly inside (0, pi/2)
                  (subspace-hunt: upb_complement only)
    angles_second second parameter set       (rank-mixtures)
    noise         {"kind": "white" | "npt_projector"}
                  | {"kind": "random", "count": N}
                  | {"kind": "local", "coefficients": {"0,phi1,1": eps, ...}}
                                              (perturb-scan)
    epsilon_grid  list of floats in (0, 0.1]  (perturb-scan)
    cut           party indices of side a, default [0]  (perturb-scan)
    direction     "uniform" or {"0,0,0": w, ...} with nonnegative w summing
                  to 1                        (witness-radius)
    subspace_kind "random" | "planted" | "upb_complement"  (subspace-hunt)
    subspace_dim  subspace dimension          (subspace-hunt, not upb_complement)
    samples       number of subspaces         (subspace-hunt, not upb_complement)
    restarts      seesaw restarts, default 64 (certify, witness-radius,
                  subspace-hunt).  subspace-hunt solves dimensions <= 5
                  exactly and reads restarts only where that solve is
                  degenerate and falls back to the seesaw; for dimensions
                  >= 6 at most restarts hits are drawn.  A
                  upb_complement hunt that the partition margin proves
                  empty solves nothing

Every count (restarts, samples, the random noise count and the number of
epsilon_grid values) is an integer in [1, MAX_COUNT], MAX_COUNT = 1024, so
that no config asks a command for unbounded work or memory: the largest
(S, E, 8, 8) stack of mixtures perturb-scan forms, S noise states by E grid
values, is (1024, 1024, 8, 8), 1 GiB of complex128.

Numbers must be JSON numbers: a bool or a string is rejected wherever a number
is expected, and integer fields and cut indices take integers only.
``parse_config`` returns the validated config as JSON data, with defaults
filled in and label keys in their canonical ``"0,phi1,1"`` spelling.  The
report echoes it verbatim, and it parses back to itself.

Exit codes: 0 success, 1 invalid config or command line (an unreadable config or
an unwritable ``--out`` too), 2 numerical guard tripped (a ``ConvergenceError``:
LAPACK non-convergence or a seesaw objective drop), 3 certification failure
(the seesaw's floor leaves no witness, even for a proven UPB); any other
error raises.  No command reaches the library's ``PositivityError``;
``main`` still maps it to 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import __version__, linalg
from .linalg import ConvergenceError
from .perturbation import (
    EPSILON_GUARD,
    NoiseEffect,
    PositivityError,
    entangled_pair_noise,
    mixing_scan,
    perturb_mix,
    uniform_direction,
)
from .reporting import dumps_canonical, validate_report
from .states import (
    TRACE_TOL,
    DensityMatrix,
    expand_locals,
    is_ppt_all_cuts,
    product_projector,
    projector_combination,
    random_density_matrix,
    random_product_vector,
    validate_labels,
)
from .upb import (
    DEFAULT_RESTARTS,
    certify_unextendible,
    partition_margin,
    shifts_angles,
    shifts_family,
    subspace_product_hunt,
    upb_complement_hunt,
    upb_state,
)
from .witness import (
    CertificationError,
    build_upb_witness,
    evaluate,
    robustness_radius,
)

class ConfigError(ValueError):
    """The config file is malformed or inconsistent."""


MAX_COUNT = 1024  # the largest restarts, samples, random noise count or epsilon_grid length a config may ask for

# the family's parties, read only where no UPB exists: the config's bounds and the drawn hunts
_DIMS = (2, 2, 2)


@functools.cache
def _white_noise(dims: tuple[int, ...]) -> DensityMatrix:
    return DensityMatrix(np.eye(math.prod(dims)) / math.prod(dims), dims, validate=False)


@functools.cache
def _uniform_state(dims: tuple[int, ...]) -> DensityMatrix:
    return DensityMatrix(projector_combination(uniform_direction(len(dims))), dims)


def _parse_int(raw: Any, name: str, lo: int, hi: int) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or not lo <= raw <= hi:
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {raw!r}")
    return raw


def _parse_float(raw: Any, name: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(f"{name} is out of float range") from None


def _parse_angles(raw: Any, name: str) -> list[float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"{name} must be a list of three angles")
    vals = [_parse_float(x, f"{name} value") for x in raw]
    try:
        shifts_angles(vals)
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc
    return vals


def _parse_label_key(key: str) -> str:
    """The canonical spelling ``"0,phi1,1"`` of a label key, one label per party."""
    try:
        mu = validate_labels(tuple(part.strip() for part in key.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad label key {key!r}: {exc}") from exc
    if len(mu) != len(_DIMS):
        raise ConfigError(f"bad label key {key!r}: expected {len(_DIMS)} labels, got {len(mu)}")
    return ",".join(mu)


def _parse_label_map(raw: Any, name: str) -> dict[str, float]:
    """A nonempty label -> finite weight object, keys in their canonical spelling."""
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"{name} must be a nonempty label->weight object, got {raw!r}")
    weights: dict[str, float] = {}
    spelled: dict[str, str] = {}  # canonical key -> the raw key that named it
    for k, v in raw.items():
        key = _parse_label_key(k)
        if key in spelled:
            raise ConfigError(f"{name} keys {spelled[key]!r} and {k!r} both name the label {key!r}")
        spelled[key] = k
        weights[key] = _parse_float(v, f"{name}[{k!r}]")
    if not all(math.isfinite(v) for v in weights.values()):
        raise ConfigError(f"{name} weights must be finite")
    return weights


def _label_state(weights: dict[str, float], dims: tuple[int, ...]) -> DensityMatrix:
    """The state ``projector_combination(w) / sum(w)`` of a parsed label map; ValueError if that is not a state."""
    by_labels = {tuple(key.split(",")): w for key, w in weights.items()}
    return DensityMatrix(projector_combination(by_labels) / sum(weights.values()), dims)


def parse_config(raw: dict[str, Any]) -> dict[str, Any]:
    """Validate a config dict; a field its command does not read and a missing requirement are rejected.

    Each field is taken from a copy of ``raw`` where it is parsed, and
    whatever is left is unknown to the command.  Returns the config as JSON
    data: defaults filled in, label keys in their canonical spelling, numbers
    as floats where a float is meant.  It is the report's config echo, and
    parses back to itself.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    rest = dict(raw)
    command = rest.pop("command", None)
    if command not in tuple(_RUNNERS):
        raise ConfigError(f"command must be one of {tuple(_RUNNERS)}, got {command!r}")

    if "seed" not in rest:
        raise ConfigError("seed is required; runs must be reproducible")
    config: dict[str, Any] = {"command": command, "seed": _parse_int(rest.pop("seed"), "seed", 0, 2**64 - 1)}
    if command in ("certify", "subspace-hunt", "witness-radius"):
        config["restarts"] = _parse_int(rest.pop("restarts", DEFAULT_RESTARTS), "restarts", 1, MAX_COUNT)

    needs_angles = command != "subspace-hunt" or rest.get("subspace_kind") == "upb_complement"
    if "angles" in rest:
        config["angles"] = _parse_angles(rest.pop("angles"), "angles")
    elif needs_angles:
        raise ConfigError(f"{command} requires angles")

    if command == "rank-mixtures":
        if "angles_second" not in rest:
            raise ConfigError("rank-mixtures requires angles_second")
        config["angles_second"] = _parse_angles(rest.pop("angles_second"), "angles_second")
        if config["angles_second"] == config["angles"]:
            raise ConfigError("angles and angles_second must be distinct parameter sets")

    if command == "perturb-scan":
        config["noise"] = _parse_noise(rest.pop("noise", None))
        grid = rest.pop("epsilon_grid", None)
        if not isinstance(grid, (list, tuple)) or not grid:
            raise ConfigError("perturb-scan requires a nonempty epsilon_grid")
        if len(grid) > MAX_COUNT:
            raise ConfigError(f"epsilon_grid must hold at most {MAX_COUNT} values, got {len(grid)}")
        eps = [_parse_float(x, "epsilon_grid value") for x in grid]
        if any(not 0.0 < e <= EPSILON_GUARD for e in eps):
            raise ConfigError(f"epsilon_grid values must lie in (0, {EPSILON_GUARD}]")
        config["epsilon_grid"] = eps
        cut_raw = rest.pop("cut", [0])
        if not isinstance(cut_raw, (list, tuple)) or not cut_raw:
            raise ConfigError("cut must be a nonempty list of party indices")
        indices = [_parse_int(k, "cut index", 0, len(_DIMS) - 1) for k in cut_raw]
        try:
            config["cut"] = list(linalg.cut_parties(indices, len(_DIMS)))
        except ValueError as exc:
            raise ConfigError(f"invalid cut: {exc}") from exc

    if command == "witness-radius":
        direction = rest.pop("direction", "uniform")
        if direction != "uniform":
            direction = _parse_label_map(direction, "direction")
            if min(direction.values()) < 0:
                raise ConfigError("direction weights must be nonnegative")
            if abs(sum(direction.values()) - 1.0) > TRACE_TOL:
                raise ConfigError("direction weights must sum to 1")
        config["direction"] = direction

    if command == "subspace-hunt":
        kind = rest.pop("subspace_kind", "random")
        if kind not in ("random", "planted", "upb_complement"):
            raise ConfigError(f"unknown subspace_kind {kind!r}")
        config["subspace_kind"] = kind
        if kind == "upb_complement":
            if "subspace_dim" in rest or "samples" in rest:
                raise ConfigError("upb_complement hunts fix the subspace; drop subspace_dim/samples")
        else:
            if "angles" in config:
                raise ConfigError(f"{kind} hunts draw their subspaces from the seed; drop angles")
            config["subspace_dim"] = _parse_int(rest.pop("subspace_dim", None), "subspace_dim", 1, math.prod(_DIMS))
            config["samples"] = _parse_int(rest.pop("samples", None), "samples", 1, MAX_COUNT)

    if rest:
        raise ConfigError(f"unknown config fields for {command}: {sorted(rest)}")
    return config


def _parse_noise(raw: Any) -> dict[str, Any]:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError('noise must be an object with a "kind" field')
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _NOISE_KINDS:
        raise ConfigError(f"unknown noise kind {kind!r}")
    fields, _ = _NOISE_KINDS[kind]
    if set(raw) != {"kind", *fields}:
        raise ConfigError(f"{kind} noise takes exactly the fields {sorted({'kind', *fields})}")
    return {"kind": kind, **{name: parse(raw[name]) for name, parse in fields.items()}}


def _parse_local_coefficients(raw: Any) -> dict[str, float]:
    coeffs = _parse_label_map(raw, "noise coefficients")
    if sum(coeffs.values()) <= 0:
        raise ConfigError("noise coefficients must have positive total weight")
    return coeffs


def _random_noise(config: dict[str, Any], dims: tuple[int, ...]) -> list[tuple[str, DensityMatrix]]:
    return [(f"random[{s}]", random_density_matrix(dims, np.random.default_rng([config["seed"], s])))
            for s in range(config["noise"]["count"])]


def _local_noise(config: dict[str, Any], dims: tuple[int, ...]) -> list[tuple[str, DensityMatrix]]:
    try:
        return [("local", _label_state(config["noise"]["coefficients"], dims))]
    except ValueError as exc:
        raise ConfigError(f"local noise operator is not a state: {exc}") from exc


# noise kind -> (its config fields besides "kind", each with its parser; the named noise states of (config, dims))
_NOISE_KINDS = {
    "white": ({}, lambda config, dims: [("white", _white_noise(dims))]),
    "npt_projector": ({}, lambda config, dims: [("npt_projector", entangled_pair_noise())]),
    "random": ({"count": lambda raw: _parse_int(raw, "noise count", 1, MAX_COUNT)}, _random_noise),
    "local": ({"coefficients": _parse_local_coefficients}, _local_noise),
}


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _vector_payload(v: Sequence[np.ndarray]) -> list[list[list[float]]]:
    """A product vector, one local vector per party, as ``[re, im]`` pairs."""
    return [[[z.real, z.imag] for z in loc.tolist()] for loc in v]


def _cut_payload(cut: Sequence[int], n_parties: int) -> dict[str, list[int]]:
    """Both sides of a cut of ``n_parties`` parties, each as a new list."""
    return {"side_a": list(cut), "side_b": [k for k in range(n_parties) if k not in cut]}


def cmd_build(config: dict[str, Any]) -> dict[str, Any]:
    u = shifts_family(config["angles"])
    rho = upb_state(u)
    spectrum = linalg.eigvalsh_unchecked(rho.matrix)
    ppt_rows = [
        {**_cut_payload(cut, len(u.local_dims)), "ppt": verdict.ppt, "min_eigenvalue": verdict.min_eigenvalue}
        for cut, verdict in is_ppt_all_cuts(rho).items()
    ]
    return {
        "members": [_vector_payload(v) for v in zip(*u.local_stacks)],
        "spectrum": [float(x) for x in spectrum],
        "ppt": ppt_rows,
        "rank": linalg.numerical_rank(rho.matrix),
    }


def _certified_witness(config: dict[str, Any]):
    u = shifts_family(config["angles"])
    cert = certify_unextendible(u, restarts=config["restarts"], seed=config["seed"])
    return u, cert, build_upb_witness(u, cert)


def cmd_certify(config: dict[str, Any]) -> dict[str, Any]:
    u, cert, w = _certified_witness(config)
    return {
        "max_overlap": cert.max_overlap,
        "restarts": config["restarts"],
        "certified": partition_margin(u) > linalg.DEFAULT_TOL,
        "best_product_vector": _vector_payload(cert.best_product_vector),
        "witness_trace": float(np.trace(w.matrix).real),
        "witness_detected_value": w.detected_value,
    }


def cmd_perturb_scan(config: dict[str, Any]) -> dict[str, Any]:
    u = shifts_family(config["angles"])
    _, noise_states = _NOISE_KINDS[config["noise"]["kind"]]
    names, noises = zip(*noise_states(config, u.local_dims))
    scan = mixing_scan(u, noises, config["cut"], config["epsilon_grid"])
    counts = dict.fromkeys((effect.value for effect in NoiseEffect), 0)  # the verdict_counts keys, in the enum's order
    samples = []
    per_sample = zip(names, scan.verdicts, scan.compression_eigenvalues.tolist(),
                     scan.predicted_min.tolist(), scan.exact_min.tolist())
    for name, verdict, lam, predicted, exact in per_sample:
        counts[verdict.value] += 1
        decided_by = "exact" if verdict is NoiseEffect.DEGENERATE else "first_order"
        rows = [
            {
                "epsilon": eps,
                "predicted_min": p,
                "exact_min": x,
                "abs_error": abs(p - x),
                "decided_by": decided_by,
            }
            for eps, p, x in zip(config["epsilon_grid"], predicted, exact)
        ]
        samples.append(
            {
                "noise": name,
                "compression_eigenvalues": lam,
                "verdict": verdict.value,
                "lambda_min": lam[0],
                "per_epsilon": rows,
            }
        )
    return {
        "cut": _cut_payload(config["cut"], len(u.local_dims)),
        "samples": samples,
        "verdict_counts": counts,
    }


def cmd_rank_mixtures(config: dict[str, Any]) -> dict[str, Any]:
    u1 = shifts_family(config["angles"])
    u2 = shifts_family(config["angles_second"])
    rho1 = upb_state(u1)
    rho2 = upb_state(u2)
    equal_mix = (rho1.matrix + rho2.matrix) / 2.0
    member_mix = (rho1.matrix + product_projector([s[0] for s in u1.local_stacks])) / 2.0
    return {
        "rank_first": linalg.numerical_rank(rho1.matrix),
        "rank_second": linalg.numerical_rank(rho2.matrix),
        "rank_equal_mixture": linalg.numerical_rank(equal_mix),
        "rank_state_plus_member": linalg.numerical_rank(member_mix),
        "rank_tol": linalg.DEFAULT_TOL,
    }


def cmd_subspace_hunt(config: dict[str, Any]) -> dict[str, Any]:
    # sample s hunts with seed [seed, s]; a UPB complement is the one sample 0
    results = []
    if config["subspace_kind"] == "upb_complement":
        u = shifts_family(config["angles"])
        results.append(upb_complement_hunt(u, config["restarts"], [config["seed"], 0]))
        dim = len(u.vectors) - u.size
    else:
        dim, total = config["subspace_dim"], math.prod(_DIMS)
        for s in range(config["samples"]):
            rng = np.random.default_rng([config["seed"], s])
            if config["subspace_kind"] == "planted":
                vecs = [expand_locals(random_product_vector(_DIMS, rng)) for _ in range(dim)]
            else:
                raw = rng.standard_normal((total, dim)) + 1j * rng.standard_normal((total, dim))
                vecs = [raw[:, k] for k in range(dim)]
            projector = linalg.span_projector(vecs)
            results.append(subspace_product_hunt(projector, _DIMS, config["restarts"], [config["seed"], s]))

    sample_rows = []
    histogram: dict[int, int] = {}
    for index, result in enumerate(results):
        histogram[result.distinct_count] = histogram.get(result.distinct_count, 0) + 1
        sample_rows.append(
            {
                "index": index,
                "distinct_count": result.distinct_count,
                "rank": result.rank,
                "overlaps": [float(x) for x in result.overlaps],
            }
        )
    return {
        "kind": config["subspace_kind"],
        "dim": dim,
        "samples": sample_rows,
        "histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }


def cmd_witness_radius(config: dict[str, Any]) -> dict[str, Any]:
    u, _, w = _certified_witness(config)
    rho = upb_state(u)
    direction = config["direction"]
    sigma = _uniform_state(u.local_dims) if direction == "uniform" else _label_state(direction, u.local_dims)
    radius = robustness_radius(w, rho, sigma)
    check = None
    if 0.0 < radius < math.inf:
        inside, outside = (evaluate(w, perturb_mix(rho, sigma, scale * radius)) for scale in (0.5, 2.0))
        check = {
            "inside_scale": 0.5,
            "inside_value": inside,
            "outside_scale": 2.0,
            "outside_value": outside,
        }
    return {
        "direction": config["direction"],
        "radius": radius,
        "detected_value": evaluate(w, rho),
        "denominator": evaluate(w, sigma),
        "check": check,
    }


_RUNNERS = {
    "build": cmd_build,
    "certify": cmd_certify,
    "perturb-scan": cmd_perturb_scan,
    "rank-mixtures": cmd_rank_mixtures,
    "subspace-hunt": cmd_subspace_hunt,
    "witness-radius": cmd_witness_radius,
}


@dataclass(frozen=True)
class Report:
    """One command's report: the config echo, the result payload and the run metadata."""

    config: dict[str, Any]
    payload: dict[str, Any]
    meta: dict[str, Any]

    def render(self) -> str:
        """The whole report as canonical JSON text."""
        return dumps_canonical({"config": self.config, "payload": self.payload, "meta": self.meta})


def run_command(config: dict[str, Any]) -> Report:
    started = time.perf_counter()
    payload = _RUNNERS[config["command"]](config)
    meta = {"toolkit_version": __version__, "elapsed_seconds": time.perf_counter() - started}
    validate_report({"config": config, "payload": payload, "meta": meta})
    return Report(config, payload, meta)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _invalid_config(exc: Exception) -> int:
    print(f"invalid config: {exc}", file=sys.stderr)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="upbkit",
        description="Reproducible experiments on UPB bound-entangled states and their noise robustness.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 here means a numerical guard tripped
        return 1 if exc.code else 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # json.load raises plain ValueErrors too
        return _invalid_config(exc)
    try:
        text = run_command(parse_config(raw)).render()
    except ConfigError as exc:
        return _invalid_config(exc)
    except (ConvergenceError, PositivityError) as exc:
        print(f"numerical guard tripped: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _invalid_config(exc)
    return 0

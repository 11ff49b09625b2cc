"""Reproducible experiment driver.

Every pipeline in the toolkit is wrapped as a command; the command name and
all inputs live in a JSON config file, and the result is a JSON report whose
payload is byte-identical across re-runs of the same config (see
``reporting``).  There are no wall-clock defaults: a 64-bit seed is required,
and all randomness is derived from it by a counter scheme, so parallel and
serial execution would agree:

    seesaw restart r            -> default_rng([seed, r])
    sample s of a batch         -> default_rng([seed, s])
    restart r inside sample s   -> default_rng([seed, s, r])

Usage::

    upbkit --config cfg.json [--seed N] [--restarts N] [--out report.json]

The config schema (unknown fields are rejected)::

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
    restarts      seesaw restarts, default 64.  subspace-hunt solves
                  dimensions <= 5 exactly and reads restarts only where that
                  solve is degenerate and falls back to the seesaw

Exit codes: 0 success, 1 invalid config or command line, 2 numerical guard
tripped (non-convergence or positivity violation), 3 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Any, Sequence

import numpy as np

from . import __version__, linalg
from .linalg import ConvergenceError
from .perturbation import (
    NoiseEffect,
    PositivityError,
    entangled_pair_noise,
    mixing_scan,
    perturb_local,
    uniform_direction,
)
from .reporting import complex_pair, dumps_canonical, validate_report
from .states import (
    Bipartition,
    DensityMatrix,
    ProductVector,
    expand,
    is_ppt_all_cuts,
    product_projector,
    projector_combination,
    qubits,
    random_density_matrix,
    random_product_vector,
    validate_labels,
)
from .upb import (
    DEFAULT_RESTARTS,
    ShiftsParams,
    certify_unextendible,
    shifts_family,
    subspace_product_hunt,
    upb_state,
)
from .witness import CertificationError, build_upb_witness, evaluate, robustness_radius

COMMANDS = ("build", "certify", "perturb-scan", "rank-mixtures", "subspace-hunt", "witness-radius")


class ConfigError(ValueError):
    """The config file is malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A config as ``parse_config`` returns it: defaults filled in, fields the command does not take None."""

    command: str
    seed: int
    restarts: int
    angles: tuple[float, float, float] | None = None
    angles_second: tuple[float, float, float] | None = None
    noise: dict[str, Any] | None = None
    epsilon_grid: tuple[float, ...] | None = None
    cut: tuple[int, ...] | None = None
    direction: Any = None
    subspace_kind: str | None = None
    subspace_dim: int | None = None
    samples: int | None = None


_COMMON_KEYS = {"command", "seed", "restarts"}
_ALLOWED_KEYS = {
    "build": _COMMON_KEYS | {"angles"},
    "certify": _COMMON_KEYS | {"angles"},
    "perturb-scan": _COMMON_KEYS | {"angles", "noise", "epsilon_grid", "cut"},
    "rank-mixtures": _COMMON_KEYS | {"angles", "angles_second"},
    "subspace-hunt": _COMMON_KEYS | {"angles", "subspace_kind", "subspace_dim", "samples"},
    "witness-radius": _COMMON_KEYS | {"angles", "direction"},
}


def _parse_angles(raw: Any, name: str) -> tuple[float, float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigError(f"{name} must be a list of three angles")
    try:
        vals = tuple(float(x) for x in raw)
        ShiftsParams(*vals)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc
    return vals


def _parse_float(raw: Any, name: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from exc


def _parse_label_key(key: str) -> tuple[str, ...]:
    try:
        mu = validate_labels(tuple(part.strip() for part in key.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad label key {key!r}: {exc}") from exc
    if len(mu) != 3:
        raise ConfigError(f"bad label key {key!r}: expected 3 labels, got {len(mu)}")
    return mu


def _format_label_key(mu: tuple[str, ...]) -> str:
    """The config key of a label tuple, the inverse of ``_parse_label_key``."""
    return ",".join(mu)


def parse_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Validate a config dict; unknown fields and missing requirements are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    unknown = set(raw) - _ALLOWED_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown config fields for {command}: {sorted(unknown)}")

    if "seed" not in raw:
        raise ConfigError("seed is required; runs must be reproducible")
    seed = raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")

    restarts = raw.get("restarts", DEFAULT_RESTARTS)
    if not isinstance(restarts, int) or isinstance(restarts, bool) or restarts < 1:
        raise ConfigError("restarts must be a positive integer")

    kwargs: dict[str, Any] = {"command": command, "seed": seed, "restarts": restarts}

    needs_angles = command != "subspace-hunt" or raw.get("subspace_kind") == "upb_complement"
    if "angles" in raw:
        kwargs["angles"] = _parse_angles(raw["angles"], "angles")
    elif needs_angles:
        raise ConfigError(f"{command} requires angles")

    if command == "rank-mixtures":
        if "angles_second" not in raw:
            raise ConfigError("rank-mixtures requires angles_second")
        kwargs["angles_second"] = _parse_angles(raw["angles_second"], "angles_second")
        if kwargs["angles_second"] == kwargs["angles"]:
            raise ConfigError("angles and angles_second must be distinct parameter sets")

    if command == "perturb-scan":
        kwargs["noise"] = _parse_noise(raw.get("noise"))
        grid = raw.get("epsilon_grid")
        if not isinstance(grid, (list, tuple)) or not grid:
            raise ConfigError("perturb-scan requires a nonempty epsilon_grid")
        eps = tuple(_parse_float(x, "epsilon_grid value") for x in grid)
        if any(not 0.0 < e <= 0.1 for e in eps):
            raise ConfigError("epsilon_grid values must lie in (0, 0.1]")
        kwargs["epsilon_grid"] = eps
        cut_raw = raw.get("cut", [0])
        if not isinstance(cut_raw, (list, tuple)) or not cut_raw:
            raise ConfigError("cut must be a nonempty list of party indices")
        try:
            cut = Bipartition(tuple(int(k) for k in cut_raw))
            cut.validate_for(qubits(3))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid cut: {exc}") from exc
        kwargs["cut"] = cut.side_a

    if command == "subspace-hunt":
        kind = raw.get("subspace_kind", "random")
        if kind not in ("random", "planted", "upb_complement"):
            raise ConfigError(f"unknown subspace_kind {kind!r}")
        kwargs["subspace_kind"] = kind
        if kind == "upb_complement":
            if "subspace_dim" in raw or "samples" in raw:
                raise ConfigError("upb_complement hunts fix the subspace; drop subspace_dim/samples")
        else:
            if "angles" in raw:
                raise ConfigError(f"{kind} hunts draw their subspaces from the seed; drop angles")
            dim = raw.get("subspace_dim")
            count = raw.get("samples")
            if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 8:
                raise ConfigError("subspace_dim must be an integer in 1..8")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ConfigError("samples must be a positive integer")
            kwargs["subspace_dim"] = dim
            kwargs["samples"] = count

    if command == "witness-radius":
        kwargs["direction"] = _parse_direction(raw.get("direction", "uniform"))

    return ExperimentConfig(**kwargs)


def _parse_noise(raw: Any) -> dict[str, Any]:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError('noise must be an object with a "kind" field')
    kind = raw["kind"]
    if kind in ("white", "npt_projector"):
        if set(raw) != {"kind"}:
            raise ConfigError(f"noise kind {kind!r} takes no extra fields")
        return {"kind": kind}
    if kind == "random":
        if set(raw) != {"kind", "count"}:
            raise ConfigError('random noise takes exactly {"kind", "count"}')
        count = raw["count"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError("noise count must be a positive integer")
        return {"kind": kind, "count": count}
    if kind == "local":
        if set(raw) != {"kind", "coefficients"}:
            raise ConfigError('local noise takes exactly {"kind", "coefficients"}')
        coeffs = raw["coefficients"]
        if not isinstance(coeffs, dict) or not coeffs:
            raise ConfigError("local noise coefficients must be a nonempty object")
        parsed = {
            _parse_label_key(k): _parse_float(v, f"local noise coefficient {k!r}")
            for k, v in coeffs.items()
        }
        if not all(math.isfinite(v) for v in parsed.values()):
            raise ConfigError("local noise coefficients must be finite")
        total = sum(parsed.values())
        if total <= 0:
            raise ConfigError("local noise coefficients must have positive total weight")
        return {"kind": kind, "coefficients": parsed}
    raise ConfigError(f"unknown noise kind {kind!r}")


def _parse_direction(raw: Any) -> Any:
    if raw == "uniform":
        return "uniform"
    if isinstance(raw, dict) and raw:
        parsed = {
            _parse_label_key(k): _parse_float(v, f"direction weight {k!r}") for k, v in raw.items()
        }
        if not all(0 <= v < math.inf for v in parsed.values()):
            raise ConfigError("direction coefficients must be nonnegative and finite")
        if abs(sum(parsed.values()) - 1.0) > 1e-12:
            raise ConfigError("direction coefficients must sum to 1")
        return parsed
    raise ConfigError('direction must be "uniform" or a label->weight object')


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _echo_value(value: Any) -> Any:
    """JSON data of a parsed config value: tuples become lists, label-tuple keys ``"0,phi1,1"``."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {
            _format_label_key(k) if isinstance(k, tuple) else k: _echo_value(v)
            for k, v in value.items()
        }
    return value


def _config_echo(config: ExperimentConfig) -> dict[str, Any]:
    """The config's set fields in declaration order, as JSON data that ``parse_config`` reads back."""
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    return {name: _echo_value(value) for name, value in echo.items() if value is not None}


def _vector_payload(v: ProductVector) -> list[list[list[float]]]:
    return [[complex_pair(z) for z in loc] for loc in v.locals]


def cmd_build(config: ExperimentConfig) -> dict[str, Any]:
    u = shifts_family(ShiftsParams(*config.angles))
    rho = upb_state(u)
    spectrum, _ = linalg.hermitian_eig(rho.matrix)
    ppt_rows = []
    for cut, verdict in is_ppt_all_cuts(rho).items():
        ppt_rows.append(
            {
                "side_a": list(cut.side_a),
                "side_b": list(cut.side_b(rho.parts)),
                "ppt": verdict.ppt,
                "min_eigenvalue": verdict.min_eigenvalue,
            }
        )
    return {
        "members": [_vector_payload(v) for v in u.members],
        "spectrum": [float(x) for x in spectrum],
        "ppt": ppt_rows,
        "rank": linalg.numerical_rank(rho.matrix),
    }


def _certified_witness(config: ExperimentConfig):
    u = shifts_family(ShiftsParams(*config.angles))
    cert = certify_unextendible(u, restarts=config.restarts, seed=config.seed)
    return u, cert, build_upb_witness(u, cert)


def cmd_certify(config: ExperimentConfig) -> dict[str, Any]:
    _, cert, w = _certified_witness(config)
    return {
        "max_overlap": cert.max_overlap,
        "restarts": cert.restarts,
        "certified": cert.certifies_unextendible,
        "best_product_vector": _vector_payload(cert.best_product_vector),
        "witness_trace": float(np.trace(w.matrix).real),
        "witness_detected_value": w.detected_value,
    }


def _noise_samples(config: ExperimentConfig) -> list[tuple[str, DensityMatrix]]:
    noise = config.noise
    parts = qubits(3)
    if noise["kind"] == "white":
        return [("white", DensityMatrix(np.eye(8) / 8.0, parts, validate=False))]
    if noise["kind"] == "npt_projector":
        return [("npt_projector", entangled_pair_noise(3, (0, 1)))]
    if noise["kind"] == "random":
        out = []
        for s in range(noise["count"]):
            rng = np.random.default_rng([config.seed, s])
            out.append((f"random[{s}]", random_density_matrix(parts, rng)))
        return out
    if noise["kind"] == "local":
        coeffs = noise["coefficients"]
        op = projector_combination(coeffs) / sum(coeffs.values())
        try:
            return [("local", DensityMatrix(op, parts))]
        except ValueError as exc:
            raise ConfigError(f"local noise operator is not a state: {exc}") from exc
    raise AssertionError(f"unreachable noise kind {noise['kind']!r}")


def cmd_perturb_scan(config: ExperimentConfig) -> dict[str, Any]:
    u = shifts_family(ShiftsParams(*config.angles))
    cut = Bipartition(config.cut)
    names, noises = zip(*_noise_samples(config))
    scan = mixing_scan(u, noises, cut, config.epsilon_grid)
    counts = {effect.value: 0 for effect in NoiseEffect}
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
            for eps, p, x in zip(config.epsilon_grid, predicted, exact)
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
        "cut": {"side_a": list(cut.side_a), "side_b": list(cut.side_b(u.parts))},
        "samples": samples,
        "verdict_counts": counts,
    }


def cmd_rank_mixtures(config: ExperimentConfig) -> dict[str, Any]:
    u1 = shifts_family(ShiftsParams(*config.angles))
    u2 = shifts_family(ShiftsParams(*config.angles_second))
    rho1 = upb_state(u1)
    rho2 = upb_state(u2)
    equal_mix = (rho1.matrix + rho2.matrix) / 2.0
    member_mix = (rho1.matrix + product_projector(u1.members[0])) / 2.0
    return {
        "rank_first": linalg.numerical_rank(rho1.matrix),
        "rank_second": linalg.numerical_rank(rho2.matrix),
        "rank_equal_mixture": linalg.numerical_rank(equal_mix),
        "rank_state_plus_member": linalg.numerical_rank(member_mix),
        "rank_tol": linalg.DEFAULT_TOL,
    }


def cmd_subspace_hunt(config: ExperimentConfig) -> dict[str, Any]:
    parts = qubits(3)
    runs: list[tuple[int, list[np.ndarray], Sequence[int]]] = []
    if config.subspace_kind == "upb_complement":
        u = shifts_family(ShiftsParams(*config.angles))
        basis = linalg.kernel(u.member_sum_projector(), tol=0.5)
        runs.append((0, basis, [config.seed, 0]))
        dim = len(basis)
    else:
        dim = config.subspace_dim
        for s in range(config.samples):
            rng = np.random.default_rng([config.seed, s])
            if config.subspace_kind == "planted":
                vecs = [expand(random_product_vector(parts, rng)) for _ in range(dim)]
            else:
                raw = rng.standard_normal((parts.dim, dim)) + 1j * rng.standard_normal((parts.dim, dim))
                vecs = [raw[:, k] for k in range(dim)]
            basis = linalg.orthonormalize(vecs)
            if len(basis) != dim:
                raise ConfigError(f"sample {s}: drawn subspace basis is degenerate; change the seed")
            runs.append((s, basis, [config.seed, s]))

    sample_rows = []
    histogram: dict[int, int] = {}
    for index, basis, seed in runs:
        result = subspace_product_hunt(basis, parts, restarts=config.restarts, seed=seed)
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
        "kind": config.subspace_kind,
        "dim": dim,
        "samples": sample_rows,
        "histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }


def cmd_witness_radius(config: ExperimentConfig) -> dict[str, Any]:
    u, _, w = _certified_witness(config)
    rho = upb_state(u)
    direction = uniform_direction(3) if config.direction == "uniform" else config.direction
    radius = robustness_radius(w, rho, direction)
    detected = evaluate(w, rho)
    denom = abs(detected) / radius if np.isfinite(radius) and radius > 0 else 0.0
    check = None
    if np.isfinite(radius):
        inside, outside = (
            evaluate(w, perturb_local(rho, {mu: scale * radius * v for mu, v in direction.items()}))
            for scale in (0.5, 2.0)
        )
        check = {
            "inside_scale": 0.5,
            "inside_value": inside,
            "outside_scale": 2.0,
            "outside_value": outside,
        }
    return {
        "direction": _echo_value(config.direction),
        "radius": radius,
        "detected_value": detected,
        "denominator": denom,
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

    def payload_text(self) -> str:
        """Deterministic byte-stable rendering of the result payload alone."""
        return dumps_canonical(self.payload)

    def render(self) -> str:
        """The whole report as canonical JSON text."""
        return dumps_canonical({"config": self.config, "payload": self.payload, "meta": self.meta})


def run_command(config: ExperimentConfig) -> Report:
    started = time.perf_counter()
    payload = _RUNNERS[config.command](config)
    elapsed = time.perf_counter() - started
    report = Report(
        config=_config_echo(config),
        payload=payload,
        meta={"toolkit_version": __version__, "elapsed_seconds": elapsed},
    )
    validate_report({"config": report.config, "payload": report.payload, "meta": report.meta})
    return report


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _apply_overrides(raw: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.restarts is not None:
        raw["restarts"] = args.restarts
    return raw


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="upbkit",
        description="Reproducible experiments on UPB bound-entangled states and their noise robustness.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--restarts", type=int, default=None, help="override the seesaw restart count")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 here means a numerical guard tripped
        return 1 if exc.code else 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        config = parse_config(_apply_overrides(raw, args))
    except (OSError, json.JSONDecodeError, ConfigError, ValueError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1

    try:
        report = run_command(config)
    except (ConfigError, ValueError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, PositivityError) as exc:
        print(f"numerical guard tripped: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3

    text = report.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference checks of every report, computed with numpy apart from upbkit.

Each check function takes the job's config and its parsed report payload and
returns a list of problems (empty when the report is right).  Nothing here
imports upbkit: the family, the states, the noise and the partial transpose
are rebuilt from their formulas.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import CORE_MARGIN, HALF_PI

ATOL = 1e-12                  # agreement of eigenvalues and expectations
HIT_OVERLAP = 1.0 - 1e-3      # the program's hit threshold
SECOND_ORDER = 10.0           # |predicted - exact| <= SECOND_ORDER * eps^2
RANDOM_PRODUCT_VECTORS = 256

_LABEL_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "phi1": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "phi2": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}


def _kron3(a, b, c) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def family(angles) -> np.ndarray:
    """The four members as rows: |000>, |1 B C>, |A 1 C~>, |A~ B~ 1>."""
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    va, vb, vc = (np.array([math.cos(t), math.sin(t)]) for t in angles)
    wa, wb, wc = (np.array([math.sin(t), -math.cos(t)]) for t in angles)
    return np.array([_kron3(e0, e0, e0), _kron3(e1, vb, vc), _kron3(va, e1, wc), _kron3(wa, wb, e1)])


def complement(angles) -> np.ndarray:
    members = family(angles)
    return np.eye(8) - members.T @ members.conj()


def partial_transpose(m: np.ndarray, side_a) -> np.ndarray:
    t = m.reshape((2,) * 6)
    perm = list(range(6))
    for k in side_a:
        perm[k], perm[3 + k] = perm[3 + k], perm[k]
    return t.transpose(perm).reshape(8, 8)


def _vector(locals_payload) -> np.ndarray:
    parts = [np.array([complex(re, im) for re, im in loc]) for loc in locals_payload]
    return _kron3(*parts)


def _close(x: float, y: float, tol: float = ATOL) -> bool:
    return abs(x - y) <= tol


def in_core(angles) -> bool:
    return all(CORE_MARGIN <= a <= HALF_PI - CORE_MARGIN for a in angles)


def check_certify(config: dict, payload: dict) -> list[str]:
    problems = []
    q = complement(config["angles"])
    v = _vector(payload["best_product_vector"])
    attained = float(np.vdot(v, q @ v).real)
    if not _close(attained, payload["max_overlap"]):
        problems.append(f"best vector attains {attained!r}, report says {payload['max_overlap']!r}")
    rng = np.random.default_rng([config["seed"], 1])
    locs = rng.standard_normal((3, RANDOM_PRODUCT_VECTORS, 2)) + 1j * rng.standard_normal((3, RANDOM_PRODUCT_VECTORS, 2))
    locs /= np.linalg.norm(locs, axis=2, keepdims=True)
    full = np.einsum("ka,kb,kc->kabc", *locs).reshape(RANDOM_PRODUCT_VECTORS, 8)
    best_random = float(np.einsum("ki,ij,kj->k", full.conj(), q, full).real.max())
    if best_random > payload["max_overlap"] + ATOL:
        problems.append(f"a random product vector reaches {best_random!r} > max_overlap")
    if not _close(payload["witness_trace"], 1.0):
        problems.append(f"witness trace {payload['witness_trace']!r}")
    if not payload["certified"] or payload["restarts"] != config["restarts"]:
        problems.append("certificate flag or restart count is wrong")
    return problems


def check_witness_radius(config: dict, payload: dict) -> list[str]:
    d, r, check = payload["detected_value"], payload["radius"], payload["check"]
    if not (d < 0 and math.isfinite(r) and r > 0 and check is not None):
        return [f"detected value {d!r} / radius {r!r} / check {check!r} out of range"]
    problems = []
    # tr(W rho_s) = d (1 - s) / (1 + s r) along the normalized ray at scale s * r
    if check["inside_scale"] != 0.5 or not _close(check["inside_value"], 0.5 * d / (1 + 0.5 * r)):
        problems.append(f"inside value {check['inside_value']!r} off the linear-fractional form")
    if check["outside_scale"] != 2.0 or not _close(check["outside_value"], -d / (1 + 2 * r)):
        problems.append(f"outside value {check['outside_value']!r} off the linear-fractional form")
    return problems


def check_hunt(config: dict, payload: dict) -> list[str]:
    kind = config["subspace_kind"]
    dim = 4 if kind == "upb_complement" else config["subspace_dim"]
    if payload["kind"] != kind or payload["dim"] != dim or len(payload["samples"]) != config.get("samples", 1):
        return ["kind, dim or sample count echoed wrongly"]
    problems = []
    histogram: dict[str, int] = {}
    for row in payload["samples"]:
        count, rank, overlaps = row["distinct_count"], row["rank"], row["overlaps"]
        histogram[str(count)] = histogram.get(str(count), 0) + 1
        if len(overlaps) != count or any(o < HIT_OVERLAP for o in overlaps):
            problems.append(f"sample {row['index']}: overlaps {overlaps!r} do not match {count} hits")
        if dim <= 4 and (count, rank) != (0, 0):
            # a generic subspace of dimension <= 4 misses the Segre variety; a UPB complement does by definition
            problems.append(f"sample {row['index']}: {count} hits of rank {rank} in a product-free subspace")
        if dim >= 6 and rank != dim:
            # a subspace of dimension >= 6 meets the variety in a continuum that spans it
            problems.append(f"sample {row['index']}: rank {rank}, expected {dim}")
    if payload["histogram"] != dict(sorted(histogram.items(), key=lambda kv: int(kv[0]))):
        problems.append("histogram does not count the samples")
    return problems


def noise_state(config: dict, name: str) -> np.ndarray:
    kind = config["noise"]["kind"]
    if kind == "white":
        return np.eye(8) / 8.0
    if kind == "npt_projector":
        v = np.zeros(8)
        v[0] = v[6] = 1 / math.sqrt(2.0)       # (|000> + |110>)/sqrt(2)
        return np.outer(v, v)
    if kind == "random":
        s = int(name[len("random["):-1])
        rng = np.random.default_rng([config["seed"], s])
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        return m / np.trace(m).real
    coefficients = config["noise"]["coefficients"]
    total = sum(coefficients.values())
    op = np.zeros((8, 8), dtype=complex)
    for key, w in coefficients.items():
        v = _kron3(*(_LABEL_VECTORS[label] for label in key.split(",")))
        op += (w / total) * np.outer(v, v.conj())
    return op


def check_perturb_scan(config: dict, payload: dict) -> list[str]:
    cut = config["cut"]
    if payload["cut"]["side_a"] != cut:
        return [f"cut echoed as {payload['cut']!r}"]
    rho = complement(config["angles"]) / 4.0
    # members with the cut parties conjugated; the family is real, so they are the members
    basis = family(config["angles"]).T
    problems = []
    kind = config["noise"]["kind"]
    names = [f"random[{s}]" for s in range(config["noise"]["count"])] if kind == "random" else [kind]
    if [sample["noise"] for sample in payload["samples"]] != names:
        return [f"noise samples {[sample['noise'] for sample in payload['samples']]!r}"]
    verdicts: dict[str, int] = {}
    eps_min = min(config["epsilon_grid"])
    for sample in payload["samples"]:
        tag = sample["noise"]
        rho1 = noise_state(config, tag)
        rho1_pt = partial_transpose(rho1, cut)
        comp = np.linalg.eigvalsh(basis.conj().T @ rho1_pt @ basis)
        got = np.array(sample["compression_eigenvalues"])
        if got.shape != comp.shape or np.max(np.abs(got - comp)) > ATOL:
            problems.append(f"{tag}: compression eigenvalues {got!r}, numpy {comp!r}")
        lam = sample["lambda_min"]
        verdicts[sample["verdict"]] = verdicts.get(sample["verdict"], 0) + 1
        rows = sample["per_epsilon"]
        if [row["epsilon"] for row in rows] != config["epsilon_grid"]:
            problems.append(f"{tag}: epsilon grid echoed wrongly")
            continue
        for row in rows:
            eps = row["epsilon"]
            exact = float(np.linalg.eigvalsh(partial_transpose((rho + eps * rho1) / (1 + eps), cut))[0])
            if not _close(row["exact_min"], exact):
                problems.append(f"{tag} eps={eps}: exact_min {row['exact_min']!r}, numpy {exact!r}")
            if not _close(row["predicted_min"], eps * lam, 1e-15):
                problems.append(f"{tag} eps={eps}: prediction is not eps * lambda_min")
            if row["abs_error"] > SECOND_ORDER * eps * eps:
                problems.append(f"{tag} eps={eps}: abs_error {row['abs_error']!r} > {SECOND_ORDER} eps^2")
            if eps == eps_min and sample["verdict"] != "DEGENERATE" and abs(lam) > SECOND_ORDER * eps:
                # first order outweighs the second-order bound, so it fixes the sign
                if (exact > 0) != (lam > 0):
                    problems.append(f"{tag}: verdict {sample['verdict']} but exact min {exact!r} at eps={eps}")
    if {k: v for k, v in payload["verdict_counts"].items() if v} != verdicts:
        problems.append("verdict counts do not count the samples")
    return problems


CHECKS = {
    "certify": check_certify,
    "witness-radius": check_witness_radius,
    "subspace-hunt": check_hunt,
    "perturb-scan": check_perturb_scan,
}


def check_job(config: dict, status: int, payload: dict | None) -> list[str]:
    """Problems with one job's outcome; exit 3 is accepted only off the core cube."""
    if status == 3:
        if config["command"] in ("certify", "witness-radius") and not in_core(config["angles"]):
            return []
        return [f"certification failed on {config['angles']!r}, inside the certifiable core"]
    if status != 0:
        return [f"job failed with status {status}"]
    return CHECKS[config["command"]](config, payload)

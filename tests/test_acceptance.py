"""Acceptance suite: one test per release criterion, each at its stated tolerance.

Every test prints a ``ACCEPTANCE nn PASS`` line on success (run with ``-s`` or
``-rP`` to see them); a failed criterion surfaces as an ordinary pytest
failure.  Criteria are property-based plus a handful of structural constants
that the constructions fix exactly.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from upbkit import linalg as la
from upbkit import (
    NoiseEffect,
    ShiftsParams,
    basis_labels,
    bipartitions,
    build_upb_witness,
    decompose_in_projector_basis,
    DensityMatrix,
    evaluate,
    is_ppt_all_cuts,
    kernel_product_basis,
    min_pt_eigenvalue,
    mixing_scan,
    perturb_local,
    perturb_mix,
    projector_basis_gram,
    random_density_matrix,
    robustness_radius,
    shifts_family,
    upb_state,
)
from upbkit.cli import parse_config, run_command
from upbkit.states import product_projector
from upbkit.reporting import dumps_canonical, validate_report

from conftest import kernel_vectors
from test_witness import label_state, scaled

CUT0 = (0,)
PI4 = [math.pi / 4] * 3


def sample_params(rng):
    return ShiftsParams(*rng.uniform(0.01, np.pi / 2 - 0.01, size=3))


@pytest.fixture(scope="module")
def fifty_states():
    rng = np.random.default_rng(1001)
    out = []
    for _ in range(50):
        u = shifts_family(sample_params(rng))
        out.append((u, upb_state(u)))
    return out


def test_01_upb_state_spectrum(fifty_states):
    expected = np.array([0.0] * 4 + [0.25] * 4)
    worst = 0.0
    for _, rho in fifty_states:
        vals = np.linalg.eigvalsh(rho.matrix)
        worst = max(worst, float(np.max(np.abs(vals - expected))))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 01 PASS: 50 random-parameter states have spectrum "
          f"{{0 x4, 0.25 x4}} (max deviation {worst:.2e})")


def test_02_ppt_on_every_bipartition(fifty_states):
    worst = 0.0
    for _, rho in fifty_states:
        report = is_ppt_all_cuts(rho)
        assert len(report) == 3
        for verdict in report.values():
            assert verdict.min_eigenvalue >= -1e-10
            worst = min(worst, verdict.min_eigenvalue)
    print(f"ACCEPTANCE 02 PASS: same 50 states PPT on all 3 cuts "
          f"(worst min eigenvalue {worst:.2e})")


def test_03_certification_and_witness(ten_seed_certs, pi4_upb, pi4_state):
    values = [cert.max_overlap for cert in ten_seed_certs]
    assert all(v < 1 - 1e-3 for v in values)
    spread = max(values) - min(values)
    assert spread < 1e-6
    witness = build_upb_witness(pi4_upb, ten_seed_certs[0])
    detected = evaluate(witness, pi4_state)
    assert detected < -1e-6
    print(f"ACCEPTANCE 03 PASS: max_overlap {values[0]:.12f} < 1-1e-3 at 256 restarts, "
          f"seed spread {spread:.2e}, tr(W rho) = {detected:.6f} < -1e-6")


def test_04_kernel_span_equality():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(50):
        u = shifts_family(sample_params(rng))
        rho = upb_state(u)
        for cut in bipartitions(len(rho.local_dims)):
            pt = la.partial_transpose(rho.matrix, rho.local_dims, cut)
            numerical = kernel_vectors(pt)
            conjugated = list(kernel_product_basis(u, cut).T)
            dist = la.subspace_distance(numerical, conjugated)
            worst = max(worst, dist)
    assert worst < 1e-9
    print(f"ACCEPTANCE 04 PASS: conjugated product basis spans ker(rho^T_a) for "
          f"50 parameter sets x 3 cuts (max projector distance {worst:.2e})")


def test_05_first_order_accuracy(pi4_upb, pi4_state):
    rng_seed = 2024
    eps_grid = (1e-2, 5e-3, 2.5e-3)
    worst_ratio_lo, worst_ratio_hi = np.inf, 0.0
    noises = [random_density_matrix((2, 2, 2), np.random.default_rng([rng_seed, s])) for s in range(20)]
    scan = mixing_scan(pi4_upb, noises, CUT0, eps_grid)
    for rho1, lam in zip(noises, scan.compression_eigenvalues):

        def max_err(eps):
            pred = eps * lam
            mixed = perturb_mix(pi4_state, rho1, eps)
            pt = la.partial_transpose(mixed.matrix, (2, 2, 2), CUT0)
            exact = np.linalg.eigvalsh(pt)[:4]  # independent oracle
            return float(np.max(np.abs(pred - exact)))

        for eps in eps_grid:
            err = max_err(eps)
            assert err <= 10 * eps * eps
            ratio = err / max_err(eps / 2)
            assert 3.5 <= ratio <= 4.5
            worst_ratio_lo = min(worst_ratio_lo, ratio)
            worst_ratio_hi = max(worst_ratio_hi, ratio)
    print(f"ACCEPTANCE 05 PASS: 20 random noise states: prediction error <= 10 eps^2 "
          f"and halving eps shrinks it by [{worst_ratio_lo:.3f}, {worst_ratio_hi:.3f}]")


def test_06_classification_soundness(pi4_upb, pi4_state):
    rng_seed = 31337
    counts = {effect: 0 for effect in NoiseEffect}
    noises = [random_density_matrix((2, 2, 2), np.random.default_rng([rng_seed, s])) for s in range(200)]
    scan = mixing_scan(pi4_upb, noises, CUT0, [1e-4])
    for rho1, verdict in zip(noises, scan.verdicts):
        counts[verdict] += 1
        if verdict is NoiseEffect.PPT_PRESERVING:
            mixed = perturb_mix(pi4_state, rho1, 1e-4)
            assert min_pt_eigenvalue(mixed, CUT0) >= -1e-12
        elif verdict is NoiseEffect.NPT_INDUCING:
            mixed = perturb_mix(pi4_state, rho1, 1e-3)
            assert min_pt_eigenvalue(mixed, CUT0) < -1e-9
        else:
            mixed = perturb_mix(pi4_state, rho1, 1e-4)
            # degenerate verdicts are resolved by the exact spectrum per instance
            assert math.isfinite(min_pt_eigenvalue(mixed, CUT0))
    assert counts[NoiseEffect.PPT_PRESERVING] + counts[NoiseEffect.NPT_INDUCING] > 0
    print(f"ACCEPTANCE 06 PASS: 200 random noise states: "
          f"{counts[NoiseEffect.PPT_PRESERVING]} PPT-preserving / "
          f"{counts[NoiseEffect.NPT_INDUCING]} NPT-inducing / "
          f"{counts[NoiseEffect.DEGENERATE]} degenerate, all confirmed by exact spectra")


def test_07_nonnegative_region_and_negative_reach(pi4_upb, pi4_state):
    labels = basis_labels(3)
    rng = np.random.default_rng(7007)
    for _ in range(200):
        eps = rng.uniform(0.0, 1e-2, size=64)
        out = perturb_local(pi4_state, dict(zip(labels, eps)))
        for verdict in is_ppt_all_cuts(out).values():
            assert verdict.ppt

    # negative-coefficient reach: decompose a PPT-preserving state over the
    # basis (unique via the nonsingular Gram), scale, and perturb
    raw = 0.9 * np.eye(8) / 8 + 0.1 * random_density_matrix((2, 2, 2), rng).matrix
    rho1 = DensityMatrix(raw, (2, 2, 2), validate=False)
    coeffs = decompose_in_projector_basis(rho1)
    n_negative = int(np.sum(coeffs < 0))
    assert n_negative > 0
    out = perturb_local(pi4_state, dict(zip(labels, 1e-3 * coeffs)))
    for verdict in is_ppt_all_cuts(out).values():
        assert verdict.ppt
    print(f"ACCEPTANCE 07 PASS: 200 nonnegative local-noise draws stay PPT on all cuts; "
          f"a label map with {n_negative} negative coefficients also passes")


def test_08_witness_robustness(pi4_witness, pi4_state):
    labels = basis_labels(3)
    rng = np.random.default_rng(8008)
    radii = []
    for _ in range(100):
        weights = rng.random(64)
        weights /= weights.sum()
        direction = dict(zip(labels, weights))
        radius = robustness_radius(pi4_witness, pi4_state, label_state(direction))
        radii.append(radius)
        for frac in (0.3, 0.6, 0.9):
            inside = perturb_local(pi4_state, scaled(direction, frac * radius))
            assert evaluate(pi4_witness, inside) < 0
        outside = perturb_local(pi4_state, scaled(direction, 2.0 * radius))
        assert evaluate(pi4_witness, outside) >= 0
    print(f"ACCEPTANCE 08 PASS: 100 random directions: detection persists to 0.9x radius "
          f"and is lost by 2x (radii in [{min(radii):.4f}, {max(radii):.4f}])")


def test_09_mixture_ranks(pi4_upb, pi4_state):
    rng = np.random.default_rng(9009)
    for _ in range(5):
        rho_a = upb_state(shifts_family(sample_params(rng)))
        rho_b = upb_state(shifts_family(sample_params(rng)))
        assert la.numerical_rank((rho_a.matrix + rho_b.matrix) / 2) >= 6
    member_mix = (pi4_state.matrix + product_projector([s[0] for s in pi4_upb.local_stacks])) / 2
    member_rank = la.numerical_rank(member_mix)
    assert member_rank == 5
    print("ACCEPTANCE 09 PASS: two-state mixtures have rank >= 6; "
          "state + member projector has rank exactly 5")


def test_10_projector_basis_maximality():
    smallest = {}
    for n in (1, 2, 3):
        gram = projector_basis_gram(n)
        vals = np.linalg.eigvalsh(gram)
        # the Gram is symmetric positive definite, so singular values equal eigenvalues
        assert vals[0] > 1e-6
        smallest[n] = vals[0]
    print(f"ACCEPTANCE 10 PASS: projector-basis Gram nonsingular for n=1,2,3 "
          f"(smallest singular values {smallest[1]:.4f}, {smallest[2]:.4f}, {smallest[3]:.4f})")


def test_11_cli_determinism(tmp_path):
    configs = {
        "build": {"command": "build", "seed": 42, "angles": PI4},
        "certify": {"command": "certify", "seed": 7, "angles": PI4, "restarts": 32},
        "perturb-scan": {
            "command": "perturb-scan", "seed": 3, "angles": PI4,
            "noise": {"kind": "random", "count": 2}, "epsilon_grid": [0.01, 0.005],
        },
        "rank-mixtures": {
            "command": "rank-mixtures", "seed": 1, "angles": PI4,
            "angles_second": [0.3, 0.7, 1.1],
        },
        "subspace-hunt": {
            "command": "subspace-hunt", "seed": 11, "subspace_kind": "random",
            "subspace_dim": 5, "samples": 1, "restarts": 48,
        },
        "witness-radius": {
            "command": "witness-radius", "seed": 7, "angles": PI4,
            "direction": "uniform", "restarts": 32,
        },
    }
    for name, raw in configs.items():
        config = parse_config(dict(raw))
        first = run_command(config)
        second = run_command(config)
        assert dumps_canonical(first.payload) == dumps_canonical(second.payload), name
        validate_report(json.loads(first.render()))

    # end-to-end: two fresh processes produce byte-identical payloads
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(configs["certify"]))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "upbkit", "--config", str(cfg)],
            capture_output=True, text=True, check=True,
        )
        for _ in range(2)
    ]
    payloads = [
        dumps_canonical(json.loads(r.stdout)["payload"]).encode() for r in runs
    ]
    assert payloads[0] == payloads[1]
    print("ACCEPTANCE 11 PASS: all six commands re-run byte-identically "
          "(in-process and across fresh processes)")

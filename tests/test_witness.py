import math

import numpy as np
import pytest

from upbkit import upb
from upbkit import (
    CertificationError,
    DensityMatrix,
    UPB,
    UnextendibilityCertificate,
    Witness,
    basis_labels,
    build_upb_witness,
    certify_unextendible,
    evaluate,
    perturb_local,
    projector_basis,
    projector_combination,
    random_density_matrix,
    random_product_vector,
    robustness_radius,
    uniform_direction,
)
from upbkit.states import expand_locals
from upbkit.witness import SAFETY_MARGIN

from test_upb import degenerate_family_members


def scaled(direction, factor):
    """The label map with every weight multiplied by ``factor``."""
    return {mu: factor * weight for mu, weight in direction.items()}


def label_state(direction):
    """The state ``sum_mu w[mu] E_mu`` of a label map with nonnegative weights summing to 1."""
    n = len(next(iter(direction)))
    return DensityMatrix(projector_combination(direction), (2,) * n)


def bell_pair():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = DensityMatrix(np.outer(v, v.conj()), (2, 2), validate=False)
    w = Witness(matrix=np.eye(4) / 2 - rho.matrix, detected_value=-0.5)
    return w, rho


class TestConstruction:
    def test_trace_one(self, pi4_witness):
        assert abs(np.trace(pi4_witness.matrix).real - 1.0) < 1e-12

    def test_detects_the_state(self, pi4_witness, pi4_state, pi4_cert, pi4_upb):
        value = evaluate(pi4_witness, pi4_state)
        assert value < 0
        assert abs(value - pi4_witness.detected_value) < 1e-12
        # tr(W rho) = -c / (m - c D): structural, since tr(S rho) = 0 exactly
        c = (1 - pi4_cert.max_overlap) - SAFETY_MARGIN
        m, d = pi4_upb.size, len(pi4_upb.vectors)
        assert abs(value - (-c / (m - c * d))) < 1e-12

    def test_nonnegative_on_random_product_states(self, pi4_witness):
        rng = np.random.default_rng(13)
        dims = (2, 2, 2)
        worst = np.inf
        for _ in range(10_000):
            phi = expand_locals(random_product_vector(dims, rng))
            worst = min(worst, np.vdot(phi, pi4_witness.matrix @ phi).real)
        assert worst >= -1e-9

    def test_failed_certificate_rejected(self):
        u = UPB(degenerate_family_members())
        cert = certify_unextendible(u, restarts=32, seed=4)
        with pytest.raises(CertificationError, match="unextendibility"):
            build_upb_witness(u, cert)

    def test_floor_must_survive_the_safety_margin(self, pi4_upb, pi4_cert, monkeypatch):
        # a gap below the margin certifies an overlap whose floor 1 - overlap is under the margin
        monkeypatch.setattr(upb, "UNEXTENDIBILITY_GAP", SAFETY_MARGIN / 10)
        cert = UnextendibilityCertificate(1.0 - SAFETY_MARGIN / 2, pi4_cert.best_product_vector)
        assert cert.certifies_unextendible
        with pytest.raises(CertificationError, match="floor vanished after the safety margin"):
            build_upb_witness(pi4_upb, cert)

    def test_floor_too_large_for_the_family_rejected(self, pi4_upb, pi4_cert):
        # overlap 0.1 puts the floor c near 0.9, and m - c D = 4 - 0.9 * 8 < 0
        cert = UnextendibilityCertificate(0.1, pi4_cert.best_product_vector)
        assert cert.certifies_unextendible
        with pytest.raises(CertificationError, match="trace normalization is nonpositive"):
            build_upb_witness(pi4_upb, cert)

    def test_witness_type_validations(self):
        with pytest.raises(ValueError, match="trace"):
            Witness(matrix=np.eye(4), detected_value=-1.0)
        with pytest.raises(ValueError, match="detect"):
            Witness(matrix=np.eye(4) / 4, detected_value=0.5)

    def test_matrix_is_read_only(self, pi4_witness):
        with pytest.raises(ValueError, match="read-only"):
            pi4_witness.matrix[0, 0] = -5.0


class TestEvaluate:
    def test_nonnegative_on_every_basis_projector(self, pi4_witness):
        for e in projector_basis(3):
            assert evaluate(pi4_witness, DensityMatrix(e, (2, 2, 2), validate=False)) >= 0

    def test_nonnegative_on_maximally_mixed(self, pi4_witness):
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2), validate=False)
        assert evaluate(pi4_witness, rho) >= 0

    def test_linearity_under_mixing(self, pi4_witness, pi4_state):
        other = DensityMatrix(np.eye(8) / 8, (2, 2, 2), validate=False)
        for lam in (0.1, 0.5, 0.9):
            mix = DensityMatrix(
                lam * pi4_state.matrix + (1 - lam) * other.matrix, (2, 2, 2), validate=False
            )
            combo = lam * evaluate(pi4_witness, pi4_state) + (1 - lam) * evaluate(pi4_witness, other)
            assert abs(evaluate(pi4_witness, mix) - combo) <= 1e-12

    def test_dimension_mismatch(self, pi4_witness):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2), validate=False)
        with pytest.raises(ValueError, match="dimensions"):
            evaluate(pi4_witness, rho)


class TestRobustnessRadius:
    def test_uniform_direction_radius_is_finite_positive(self, pi4_witness, pi4_state):
        radius = robustness_radius(pi4_witness, pi4_state, label_state(uniform_direction(3)))
        assert 0 < radius < math.inf

    def test_closed_form(self, pi4_witness, pi4_state):
        # oracle: recompute the crossing scale from direct trace evaluations
        direction = uniform_direction(3)
        denom = sum(
            w * evaluate(pi4_witness, DensityMatrix(e, (2, 2, 2), validate=False))
            for w, e in zip(direction.values(), projector_basis(3))
        )
        expected = abs(evaluate(pi4_witness, pi4_state)) / denom
        radius = robustness_radius(pi4_witness, pi4_state, label_state(direction))
        assert abs(radius - expected) < 1e-12

    def test_two_point_consistency(self, pi4_witness, pi4_state):
        direction = uniform_direction(3)
        radius = robustness_radius(pi4_witness, pi4_state, label_state(direction))
        inside = perturb_local(pi4_state, scaled(direction, 0.5 * radius))
        outside = perturb_local(pi4_state, scaled(direction, 2.0 * radius))
        assert evaluate(pi4_witness, inside) < 0
        assert evaluate(pi4_witness, outside) >= 0

    def test_detection_persists_below_radius(self, pi4_witness, pi4_state):
        rng = np.random.default_rng(41)
        labels = basis_labels(3)
        for _ in range(20):
            weights = rng.random(64)
            weights /= weights.sum()
            direction = dict(zip(labels, weights))
            radius = robustness_radius(pi4_witness, pi4_state, label_state(direction))
            for frac in (0.25, 0.6, 0.9):
                perturbed = perturb_local(pi4_state, scaled(direction, frac * radius))
                assert evaluate(pi4_witness, perturbed) < 0
            lost = perturb_local(pi4_state, scaled(direction, 2.0 * radius))
            assert evaluate(pi4_witness, lost) >= 0

    def test_undetected_state_gets_zero_radius(self, pi4_witness):
        # white noise is not detected: tr(W I/8) = tr(W)/8 = 1/8, so detection is lost at s = 0
        white = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        assert evaluate(pi4_witness, white) > 0
        assert robustness_radius(pi4_witness, white, label_state(uniform_direction(3))) == 0.0

    def test_zero_denominator_gives_infinite_radius(self):
        # |phi+> witness and the one product direction it cannot see:
        # <++|phi+> has squared overlap exactly 1/2, the witness's floor
        w, rho = bell_pair()
        assert robustness_radius(w, rho, label_state({("phi1", "phi1"): 1.0})) == math.inf

    def test_direction_may_be_any_state(self, pi4_witness, pi4_state):
        # a DensityMatrix built directly, not from a label map; the radius is -tr(W rho) / tr(W sigma)
        white = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        drawn = random_density_matrix((2, 2, 2), np.random.default_rng(23))
        detected = np.trace(pi4_witness.matrix @ pi4_state.matrix).real
        for sigma in (white, drawn):
            denom = np.trace(pi4_witness.matrix @ sigma.matrix).real
            assert detected < 0 < denom
            assert robustness_radius(pi4_witness, pi4_state, sigma) == -detected / denom

"""Entanglement witnesses for UPB states and the noise radius of detection.

The construction is the standard one for a UPB state: with S the sum of the
member projectors and c the certified product-state floor of <phi|S|phi>
(one minus the seesaw's max complementary overlap, less a small safety
margin), the operator

    W = (S - c * I) / (m - c * D)

has unit trace, nonnegative expectation on every product vector up to the
certificate slack, and detects the UPB state structurally: tr(S rho) = 0
exactly because the state lives in the complement, so tr(W rho) = -c / (m - c D) < 0.

The detection radius along a normalized nonnegative local-noise direction is
where the witness expectation crosses zero; losing detection by this witness
does not prove separability, so the value is a lower bound on how far the
entanglement persists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .perturbation import LocalNoiseSpec
from .states import DensityMatrix, projector_combination
from .upb import UPB, UnextendibilityCertificate

WITNESS_TRACE_TOL = 1e-12
SAFETY_MARGIN = 1e-6      # subtracted from the certified floor c
RADIUS_DENOM_FLOOR = 1e-15
DIRECTION_SUM_TOL = 1e-12


class CertificationError(RuntimeError):
    """Witness construction requires a certificate asserting unextendibility."""


@dataclass(frozen=True)
class Witness:
    """Unit-trace Hermitian operator with a cached negative detection value."""

    matrix: np.ndarray
    detected_value: float

    def __post_init__(self):
        m = linalg.as_hermitian(self.matrix)
        object.__setattr__(self, "matrix", m)
        if abs(np.trace(m).real - 1.0) > WITNESS_TRACE_TOL:
            raise ValueError(f"witness trace is {np.trace(m).real!r}, expected 1")
        if not self.detected_value < 0.0:
            raise ValueError("a witness must detect the state it was built against")


def build_upb_witness(u: UPB, certificate: UnextendibilityCertificate | None = None) -> Witness:
    """Trace-normalized S - c*I witness from a certified UPB."""
    cert = certificate if certificate is not None else u.certificate
    if cert is None:
        raise CertificationError("no unextendibility certificate attached or provided")
    if not cert.certifies_unextendible:
        raise CertificationError(
            f"certificate does not assert unextendibility (max_overlap = {cert.max_overlap!r})"
        )
    c = (1.0 - cert.max_overlap) - SAFETY_MARGIN
    if c <= 0.0:
        raise CertificationError("certified product-state floor vanished after the safety margin")
    d = u.parts.dim
    m = u.size
    norm = m - c * d
    if norm <= 0.0:
        raise CertificationError(
            "trace normalization is nonpositive; the certified floor is too large for this family"
        )
    w = (u.member_sum_projector() - c * np.eye(d)) / norm
    detected = -c / norm
    return Witness(matrix=w, detected_value=detected)


def evaluate(w: Witness, rho: DensityMatrix) -> float:
    """tr(W rho); negative means the witness detects the state as entangled."""
    if w.matrix.shape != rho.matrix.shape:
        raise ValueError("witness and state dimensions do not match")
    return float(np.trace(w.matrix @ rho.matrix).real)


def robustness_radius(w: Witness, rho: DensityMatrix, direction: LocalNoiseSpec) -> float:
    """Noise scale along a normalized direction at which this witness stops detecting.

    The direction must have nonnegative coefficients summing to 1.  Returns
    ``math.inf`` when the witness expectation of the direction is numerically
    zero (detection never lost along that ray).
    """
    if not direction.all_nonnegative:
        raise ValueError("direction coefficients must be nonnegative")
    if abs(direction.total - 1.0) > DIRECTION_SUM_TOL:
        raise ValueError(f"direction coefficients sum to {direction.total!r}, expected 1")
    detected = evaluate(w, rho)
    denom = float(np.trace(w.matrix @ projector_combination(direction.coefficients)).real)
    if denom <= RADIUS_DENOM_FLOOR:
        return math.inf
    return abs(detected) / denom

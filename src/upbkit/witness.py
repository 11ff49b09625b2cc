"""Entanglement witnesses for UPB states and the noise radius of detection.

The construction is the standard one for a UPB state: with S the sum of the
member projectors and c the certified product-state floor of <phi|S|phi>
(one minus the seesaw's max complementary overlap, less a small safety
margin), the operator

    W = (S - c * I) / (m - c * D)

has unit trace, nonnegative expectation on every product vector up to the
certificate slack, and detects the UPB state structurally: tr(S rho) = 0
exactly because the state lives in the complement, so tr(W rho) = -c / (m - c D) < 0.

The detection radius along a direction, a label -> weight map over the
separable projector basis with nonnegative weights summing to 1, is where
the witness expectation crosses zero; losing detection by this witness
does not prove separability, so the value is a lower bound on how far the
entanglement persists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linalg
from .states import TRACE_TOL, DensityMatrix, projector_combination
from .upb import UPB, UnextendibilityCertificate

SAFETY_MARGIN = 1e-6      # subtracted from the certified floor c
RADIUS_DENOM_FLOOR = 1e-15


class CertificationError(RuntimeError):
    """Witness construction requires a certificate asserting unextendibility."""


@dataclass(frozen=True)
class Witness:
    """Unit-trace Hermitian operator, held read-only, with a cached negative detection value."""

    matrix: np.ndarray
    detected_value: float

    def __post_init__(self):
        m = linalg.as_hermitian(self.matrix)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError(f"witness trace is {np.trace(m).real!r}, expected 1")
        if not self.detected_value < 0.0:
            raise ValueError("a witness must detect the state it was built against")


def build_upb_witness(u: UPB, certificate: UnextendibilityCertificate) -> Witness:
    """Trace-normalized S - c*I witness from a certified UPB."""
    if not certificate.certifies_unextendible:
        raise CertificationError(
            f"seesaw found a product vector with overlap {certificate.max_overlap!r}; "
            "the certificate does not assert unextendibility"
        )
    c = (1.0 - certificate.max_overlap) - SAFETY_MARGIN
    if c <= 0.0:
        raise CertificationError("certified product-state floor vanished after the safety margin")
    d = u.parts.dim
    m = u.size
    norm = m - c * d
    if norm <= 0.0:
        raise CertificationError(
            "trace normalization is nonpositive; the certified floor is too large for this family"
        )
    w = (u.member_sum_projector - c * np.eye(d)) / norm
    detected = -c / norm
    return Witness(matrix=w, detected_value=detected)


def evaluate(w: Witness, rho: DensityMatrix) -> float:
    """tr(W rho); negative means the witness detects the state as entangled."""
    if w.matrix.shape != rho.matrix.shape:
        raise ValueError("witness and state dimensions do not match")
    return float(np.trace(w.matrix @ rho.matrix).real)


def robustness_radius(
    w: Witness, rho: DensityMatrix, direction: Mapping[tuple[str, ...], float]
) -> float:
    """Noise scale along a normalized direction at which this witness stops detecting.

    The direction is a label -> weight map with nonnegative weights summing
    to 1.  A state the witness does not detect (``tr(W rho) >= 0``) gets 0.0:
    along ``(rho + s sigma) / (1 + s)`` it is undetected from s = 0 on.
    Returns ``math.inf`` when the witness expectation of the direction is
    numerically zero (detection never lost along that ray).
    """
    if not all(weight >= 0.0 for weight in direction.values()):
        raise ValueError("direction coefficients must be nonnegative")
    total = float(sum(direction.values()))
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"direction coefficients sum to {total!r}, expected 1")
    detected = evaluate(w, rho)
    if detected >= 0.0:
        return 0.0
    denom = float(np.trace(w.matrix @ projector_combination(direction)).real)
    if denom <= RADIUS_DENOM_FLOOR:
        return math.inf
    return abs(detected) / denom

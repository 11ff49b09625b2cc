"""Entanglement witnesses for UPB states and the noise radius of detection.

The construction is the standard one for a UPB state: with S the sum of the
member projectors and c the seesaw's estimate of the product-state floor of
<phi|S|phi> (one minus its best complementary overlap, less a small safety
margin), the operator

    W = (S - c * I) / (m - c * D)

has unit trace and detects the UPB state structurally: tr(S rho) = 0 exactly
because the state lives in the complement, so tr(W rho) = -c / (m - c D) < 0.
It is a witness only if c is at most the true floor, which nothing proves:
the seesaw's best overlap is only a lower bound on the true maximum.  The
construction reads only that floor: ``upb.partition_margin`` decides whether
the set is a UPB, and one that is not leaves no floor after the margin.

The detection radius toward a noise state sigma is the scale s at which the
witness expectation along the ray (rho + s sigma) / (1 + s) crosses zero,
s = -tr(W rho) / tr(W sigma); losing detection by this witness does not
prove separability, so the value is a lower bound on how far the
entanglement persists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import TRACE_TOL, DensityMatrix, _read_only
from .upb import UPB, UnextendibilityCertificate

SAFETY_MARGIN = 1e-6        # subtracted from the seesaw's floor estimate c
RADIUS_DENOM_FLOOR = 1e-15  # tr(W sigma) at or below it: detection is never lost along the ray


class CertificationError(RuntimeError):
    """The certificate's floor does not give a witness: nothing is left after the safety margin, or too much."""


@dataclass(frozen=True, eq=False)
class Witness:
    """Unit-trace Hermitian operator, held read-only, with a cached negative detection value."""

    matrix: np.ndarray
    detected_value: float

    def __post_init__(self):
        m = _read_only(linalg.as_hermitian(self.matrix))
        object.__setattr__(self, "matrix", m)
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError(f"witness trace is {np.trace(m).real}, expected 1")
        if not self.detected_value < 0.0:
            raise ValueError("a witness must detect the state it was built against")


def build_upb_witness(u: UPB, certificate: UnextendibilityCertificate) -> Witness:
    """Trace-normalized S - c*I witness, c resting on the certificate's seesaw overlap (a lower bound)."""
    c = (1.0 - certificate.max_overlap) - SAFETY_MARGIN
    if not c > 0.0:  # written so that a NaN overlap fails too
        raise CertificationError(
            f"seesaw overlap {certificate.max_overlap!r}: the product-state floor vanished after the safety margin"
        )
    d = len(u.vectors)
    m = u.size
    norm = m - c * d
    if norm <= 0.0:
        raise CertificationError(
            "trace normalization is nonpositive; the seesaw floor is too large for this family"
        )
    w = (u.member_sum_projector - c * np.eye(d)) / norm
    detected = -c / norm
    return Witness(matrix=w, detected_value=detected)


def evaluate(w: Witness, rho: DensityMatrix) -> float:
    """tr(W rho); negative means the witness detects the state as entangled."""
    if w.matrix.shape != rho.matrix.shape:
        raise ValueError("witness and state dimensions do not match")
    return float(np.trace(w.matrix @ rho.matrix).real)


def robustness_radius(w: Witness, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Noise scale s at which this witness stops detecting along ``(rho + s sigma) / (1 + s)``.

    Returns ``|tr(W rho)| / tr(W sigma)``.  A state the witness does not
    detect (``tr(W rho) >= 0``) gets 0.0: it is undetected from s = 0 on.
    Returns ``math.inf`` when ``tr(W sigma)`` is at most
    ``RADIUS_DENOM_FLOOR`` (detection never lost along that ray).
    """
    detected = evaluate(w, rho)
    if detected >= 0.0:
        return 0.0
    denom = evaluate(w, sigma)
    if denom <= RADIUS_DENOM_FLOOR:
        return math.inf
    return abs(detected) / denom

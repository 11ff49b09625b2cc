"""Noise constructors and first-order analysis of partial-transpose spectra.

Two ways of perturbing a state are implemented:

- local noise: rho -> (rho + sum_mu eps_mu E_mu) / (1 + sum_mu eps_mu), with
  E_mu the separable projector basis.  The noise is a plain label ->
  coefficient map ``{("0", "phi1", "1"): eps}`` that goes straight to
  ``states.projector_combination``.  Nonnegative coefficients preserve
  positivity and every separability property automatically; with negative
  coefficients positivity is checked post hoc via the full spectrum (exact
  and cheap at these dimensions).
- mixing noise: rho -> (rho + eps * rho1) / (1 + eps) for any state rho1 and
  any finite eps > 0, the exact ray along which a witness radius is
  measured.  Only the first-order analysis below keeps eps in
  (0, EPSILON_GUARD].

For a UPB state the kernel of the partially transposed state is spanned by
the UPB members with the cut parties conjugated entrywise.  Compressing the
noise's partial transpose onto that basis gives a small Hermitian matrix
whose eigenvalues lam_r predict the lowest eigenvalues of the perturbed
partial transpose to first order, eps * lam_r + O(eps^2).  The sign of the
smallest lam_r therefore classifies the noise: positive keeps the state PPT
across the cut, negative makes it NPT, and one within ``linalg.DEFAULT_TOL`` of
zero is degenerate (first order is silent; callers resolve those instances by
exact diagonalization at their eps).

``mixing_scan`` is the one entry point for that analysis: it classifies S
noise states and compares the prediction with the exact spectrum over a grid
of E epsilons as one stacked computation, and returns flat arrays.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .states import (
    DensityMatrix,
    basis_labels,
    expand_locals,
    projector_combination,
)
from .upb import UPB

EPSILON_GUARD = 0.1          # the largest eps of the first-order predictions' perturbative regime


class PositivityError(RuntimeError):
    """A perturbation drove an eigenvalue below the admissible tolerance."""


def uniform_direction(n_qubits: int) -> dict[tuple[str, ...], float]:
    """Equal weight on every basis projector, summing to 1."""
    labels = basis_labels(n_qubits)
    w = 1.0 / len(labels)
    return {mu: w for mu in labels}


def perturb_local(
    rho: DensityMatrix, coefficients: Mapping[tuple[str, ...], float]
) -> DensityMatrix:
    """Add the weighted separable projectors of a label -> coefficient map and renormalize.

    Each basis projector has unit trace, so the normalization constant is
    1 + sum of the coefficients.  Raises PositivityError if ``DensityMatrix``
    rejects the result as not positive semidefinite (only possible with
    negative coefficients).
    """
    if set(rho.local_dims) != {2}:
        raise ValueError("local noise needs qubit parties")
    noise = projector_combination(coefficients)
    if noise.shape != rho.matrix.shape:
        raise ValueError("local noise does not match the state's party structure")
    norm = 1.0 + float(sum(coefficients.values()))
    if norm <= 0.0:
        raise PositivityError("total noise weight drives the trace nonpositive")
    try:
        return DensityMatrix((rho.matrix + noise) / norm, rho.local_dims)
    except ValueError as exc:
        raise PositivityError(f"perturbed {exc}") from exc


def perturb_mix(rho: DensityMatrix, rho1: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Convex combination (rho + eps * rho1) / (1 + eps) for a finite eps > 0; positivity is automatic."""
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    if rho1.local_dims != rho.local_dims:
        raise ValueError("noise state does not match the party structure")
    out = (rho.matrix + epsilon * rho1.matrix) / (1.0 + epsilon)
    return DensityMatrix(out, rho.local_dims, validate=False)


def kernel_product_basis(u: UPB, cut: Sequence[int]) -> np.ndarray:
    """The ``(D, m)`` matrix whose columns are the members with the cut parties conjugated entrywise.

    ``cut`` lists the side-a parties, checked by ``linalg.cut_parties``.
    Built from the UPB's local stacks.  The columns are orthonormal
    (conjugation preserves the zero pattern of the local overlaps) and span
    the kernel of the partially transposed UPB state.  For a real family they
    equal the expanded members.
    """
    side_a = linalg.cut_parties(cut, len(u.local_dims))
    stacks = [s.conj() if k in side_a else s for k, s in enumerate(u.local_stacks)]
    return np.ascontiguousarray(expand_locals(stacks).T)


@functools.cache
def entangled_pair_noise() -> DensityMatrix:
    """Three qubits: maximally entangled projector on qubits 0 and 1, qubit 2 in its ground state.

    The partial transpose across any cut separating qubits 0 and 1 has a
    negative eigenvalue, so this is the canonical NPT-inducing noise fixture.
    It is built on first use and cached: every call returns one read-only state.
    """
    vec = np.zeros(8, dtype=complex)
    vec[[0, 6]] = 1.0 / np.sqrt(2.0)  # |000> and |110>
    return DensityMatrix(np.outer(vec, vec.conj()), (2, 2, 2), validate=False)


class NoiseEffect(enum.Enum):
    PPT_PRESERVING = "PPT_PRESERVING"
    NPT_INDUCING = "NPT_INDUCING"
    DEGENERATE = "DEGENERATE"


@dataclass(frozen=True, eq=False)
class MixingScan:
    """Compression spectra, verdicts, and predicted against exact minimum PT eigenvalue.

    Row s of each array belongs to noise state s, column e to epsilon e.  The
    smallest compression eigenvalue lam_min is ``compression_eigenvalues[:, 0]``
    and the full first-order prediction at eps is ``eps * compression_eigenvalues``.
    """

    compression_eigenvalues: np.ndarray   # (S, m): eigenvalues lam_r of each compression, ascending
    verdicts: tuple[NoiseEffect, ...]     # one per noise state, from the sign of lam_min
    predicted_min: np.ndarray             # (S, E): eps * lam_min, the smallest first-order prediction
    exact_min: np.ndarray                 # (S, E): smallest eigenvalue of the mixture's partial transpose


def mixing_scan(
    u: UPB,
    noises: Sequence[DensityMatrix],
    cut: Sequence[int],
    epsilons: Sequence[float],
) -> MixingScan:
    """Classify every noise state and compare the prediction with the exact spectrum on a grid.

    Here rho = u.complement_projector / (D - m), rho1_s is noise state s
    (at least one) and ``cut`` lists the side-a parties.  The kernel basis is
    built once; the S compressions are symmetrized together and diagonalized
    in one stacked solve.  A verdict is DEGENERATE when |lam_min| <=
    ``linalg.DEFAULT_TOL``; the exact column decides those.

    Every partial transpose is taken once, rho's and the S noise states' in
    one stacked call.  The partial transpose is an index permutation, so
    ``(rho^T + eps * rho1^T) / (1 + eps)`` is the partial transpose of the
    mixture bit for bit; all S x E of them form one ``(S, E, D, D)`` stack
    and one stacked eigensolve.  rho and the validated noise states are Hermitian bit for
    bit, so their mixtures need no symmetrizing; their unit trace holds by
    construction (convex weights, and the permutation keeps the diagonal).
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or not all(0.0 < e <= EPSILON_GUARD for e in eps.tolist()):
        raise ValueError(f"epsilon must lie in (0, {EPSILON_GUARD}]")
    if not noises:
        raise ValueError("mixing_scan needs at least one noise state")
    if any(noise.local_dims != u.local_dims for noise in noises):
        raise ValueError("noise state does not match the UPB's party structure")
    basis = kernel_product_basis(u, cut)
    rho = u.complement_projector / (len(u.vectors) - u.size)
    pts = linalg.partial_transpose(np.array([rho, *(noise.matrix for noise in noises)]), u.local_dims, cut)
    pt_state, pt_noise = pts[0], pts[1:]
    comp = basis.conj().T @ pt_noise @ basis
    lam = linalg.eigvalsh_unchecked((comp + comp.conj().swapaxes(-1, -2)) / 2.0)
    verdicts = tuple(
        NoiseEffect.PPT_PRESERVING if x > linalg.DEFAULT_TOL
        else NoiseEffect.NPT_INDUCING if x < -linalg.DEFAULT_TOL
        else NoiseEffect.DEGENERATE
        for x in lam[:, 0].tolist()
    )
    mixed = (pt_state + eps[:, None, None] * pt_noise[:, None]) / (1.0 + eps)[:, None, None]
    return MixingScan(
        compression_eigenvalues=lam,
        verdicts=verdicts,
        predicted_min=lam[:, :1] * eps,
        exact_min=linalg.eigvalsh_unchecked(mixed)[..., 0],
    )

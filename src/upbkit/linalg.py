"""Dense complex linear algebra kernel.

Everything downstream works on small (dim <= 64) dense complex matrices:

- ``eigvalsh_unchecked`` (``np.linalg.eigvalsh``, eigenvalues only) and
  ``eigh_unchecked`` (``np.linalg.eigh``, eigenvalues and eigenvectors) hand
  a matrix, or a stack of matrices, that must already be Hermitian to LAPACK
  and check nothing.  Callers that drop the vectors (PSD and PPT checks,
  ranks, spectra, the perturb-scan solves) use the first; ``kernel``, the
  seesaw's qudit local updates and the exact hunt use the second.  Operands
  Hermitian by construction (symmetrized or validated matrices, their
  partial transposes and mixtures of those) go to them directly; others are
  validated with ``as_hermitian`` first, and ``hermitian_eig`` is that
  checked pair.  The two LAPACK paths may differ in the last ulp of an
  eigenvalue, so values compared float for float come from the same one.
  The output is deterministic for identical input on one install, so report
  payloads are byte-stable there; another BLAS/LAPACK build may move floats
  by a few ulps and pick different eigenvector phases.
- ``partial_transpose`` is a pure index permutation (reshape + axis swap) of
  one matrix or of every matrix in a ``(..., D, D)`` stack, never a
  similarity transform, so traces and involution hold exactly.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

HERMITIAN_RTOL = 1e-12      # admissible |H - H^dag| relative to 1 + maxabs(H)
DEFAULT_TOL = 1e-9          # rank / kernel threshold for unit-trace operators
DROP_TOL = 1e-10            # Gram-Schmidt residual norm below which a vector is dependent


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to converge or lost monotonicity."""


def as_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate Hermiticity within tolerance and return the symmetrized copy.

    Takes one matrix or a stack of shape ``(..., n, n)``.  Raises ValueError
    if the matrices are not square or one of them deviates from its conjugate
    transpose by more than ``HERMITIAN_RTOL * (1 + maxabs)``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    adj = m.conj().swapaxes(-1, -2)
    scale = 1.0 + np.max(np.abs(m), axis=(-2, -1), initial=0.0)
    dev = np.max(np.abs(m - adj), axis=(-2, -1), initial=0.0)
    if np.any(dev > HERMITIAN_RTOL * scale):
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {np.max(dev):.3e}")
    return (m + adj) / 2.0


def eigh_unchecked(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a matrix, or a stack of them, with LAPACK (``eigh``); input must already be Hermitian.

    Nothing is checked: LAPACK reads only the lower triangle, so a
    non-Hermitian input gives the spectrum of a different matrix.  Accepts
    shape ``(n, n)`` or ``(..., n, n)``.  Returns numpy's named pair
    ``(eigenvalues, eigenvectors)``: real eigenvalues ascending along the
    last axis, and orthonormal eigenvectors as the columns of the last two
    axes.  Identical input on one install gives identical output.

    Raises ConvergenceError if LAPACK reports that it did not converge.
    """
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc


def eigvalsh_unchecked(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a matrix, or a stack of them, with LAPACK (``eigvalsh``); input must already be Hermitian.

    The values-only counterpart of ``eigh_unchecked``, and as unchecked:
    LAPACK reads only the lower triangle.  Accepts shape ``(n, n)`` or
    ``(..., n, n)`` and returns the real eigenvalues ascending along the last
    axis.  Identical input on one install gives identical output.

    Raises ConvergenceError if LAPACK reports that it did not converge.
    """
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate Hermiticity (``as_hermitian``), then diagonalize with ``eigh_unchecked``.

    Raises ValueError on a non-Hermitian input and ConvergenceError if LAPACK
    reports that it did not converge.
    """
    return eigh_unchecked(as_hermitian(matrix))


def partial_transpose(
    matrix: np.ndarray, local_dims: Sequence[int], transposed: Iterable[int]
) -> np.ndarray:
    """Transpose the row/column indices of the parties listed in ``transposed``.

    Takes one matrix or a stack of shape ``(..., D, D)`` and transposes every
    matrix of the stack.  Implemented as an index permutation on the composite
    multi-indices, so the operation is exact: applying it twice returns the
    input bit for bit, the trace is untouched, and it commutes bit for bit
    with entrywise arithmetic such as mixing two matrices.
    """
    m = np.asarray(matrix)
    dims = tuple(int(d) for d in local_dims)
    n = len(dims)
    total = math.prod(dims)
    if m.ndim < 2 or m.shape[-2:] != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match local dims {dims}")
    cut = sorted(set(int(k) for k in transposed))
    if not cut or len(cut) >= n or cut[0] < 0 or cut[-1] >= n:
        raise ValueError(f"transposed parties {cut} must be a nonempty proper subset of 0..{n - 1}")
    lead = m.shape[:-2]
    off = len(lead)
    perm = list(range(off + 2 * n))
    for k in cut:
        perm[off + k], perm[off + n + k] = perm[off + n + k], perm[off + k]
    return m.reshape(lead + dims + dims).transpose(perm).reshape(m.shape)


def kernel(matrix: np.ndarray) -> list[np.ndarray]:
    """Orthonormal eigenvectors of a Hermitian matrix with |eigenvalue| < DEFAULT_TOL."""
    vals, vecs = hermitian_eig(matrix)
    return [vecs[:, k].copy() for k in range(len(vals)) if abs(vals[k]) < DEFAULT_TOL]


def numerical_rank(matrix: np.ndarray) -> int:
    """Number of eigenvalues of a Hermitian matrix with |eigenvalue| >= DEFAULT_TOL."""
    vals = eigvalsh_unchecked(as_hermitian(matrix))
    return int(np.count_nonzero(np.abs(vals) >= DEFAULT_TOL))


def orthonormalize(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Modified Gram-Schmidt; vectors whose residual norm falls below DROP_TOL are dropped."""
    basis: list[np.ndarray] = []
    for vec in vectors:
        w = np.asarray(vec, dtype=complex).copy()
        for b in basis:
            w = w - b * np.vdot(b, w)
        nrm = float(np.sqrt(np.vdot(w, w).real))
        if nrm > DROP_TOL:
            basis.append(w / nrm)
    return basis


def subspace_distance(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> float:
    """Max-entry distance between the orthogonal projectors onto the two spans.

    Both vector lists are orthonormalized internally; the result is zero
    exactly when the spans coincide.
    """
    def projector(vectors: Sequence[np.ndarray]) -> np.ndarray:
        ortho = orthonormalize(vectors)
        if not ortho:
            raise ValueError("empty span")
        b = np.column_stack(ortho)
        return b @ b.conj().T

    return float(np.max(np.abs(projector(first) - projector(second))))

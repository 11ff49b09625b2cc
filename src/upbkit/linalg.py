"""Dense complex linear algebra kernel.

Everything downstream works on small (dim <= 64) dense complex matrices:

- ``eigvalsh_unchecked`` (``np.linalg.eigvalsh``, eigenvalues only) and
  ``eigh_unchecked`` (``np.linalg.eigh``, eigenvalues and eigenvectors) are
  the two eigensolver entry points.  They hand a matrix, or a stack of
  matrices, that must already be Hermitian to LAPACK and check nothing.
  Callers that drop the vectors (PSD and PPT checks, ranks, spectra, the
  perturb-scan solves) use the first; the seesaw's qudit local updates and
  the exact hunt use the second.  Operands Hermitian by construction
  (symmetrized or validated matrices, their partial transposes and mixtures
  of those) go to them directly; others pass ``as_hermitian``, the one
  checked boundary, first.  The two LAPACK paths may differ in the last ulp
  of an eigenvalue, so values compared float for float come from the same
  one.  The output is deterministic for identical input on one install, so
  report payloads are byte-stable there; another BLAS/LAPACK build may move
  floats by a few ulps and pick different eigenvector phases.
- ``span_projector`` builds the projector onto a span from the left singular
  vectors of the stacked vectors (``np.linalg.svd``).
- ``party_dims`` holds the one rule for a party structure, the tuple of
  local dimensions, and ``cut_parties`` the one rule for a cut: a nonempty
  proper subset of the party indices, the side-a parties as a sorted tuple.
  Both read each integer through ``as_index``, the one integer check.
- ``partial_transpose`` is a pure index permutation (reshape + axis swap) of
  one matrix or of every matrix in a ``(..., D, D)`` stack, never a
  similarity transform, so traces and involution hold exactly.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

HERMITIAN_RTOL = 1e-12      # a matrix is Hermitian when max |H - H^dag| <= this times 1 + max |H|
DEFAULT_TOL = 1e-9          # a unit-trace operator's |eigenvalue| below it is zero: rank, span, PPT, degeneracy


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to converge or lost monotonicity."""


def as_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate Hermiticity within tolerance and return the symmetrized copy.

    Takes one square matrix.  Raises ValueError if the input is not square
    (a stack included), deviates from its conjugate transpose by more than
    ``HERMITIAN_RTOL * (1 + maxabs)``, or has an entry that is not finite.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = 1.0 + np.abs(m).max(initial=0.0)
    # a NaN or infinite entry makes max |entry| NaN or infinite
    if not math.isfinite(scale):
        raise ValueError("matrix has an entry that is not finite")
    adj = m.conj().T
    dev = np.abs(m - adj).max(initial=0.0)
    if dev > HERMITIAN_RTOL * scale:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e}")
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


def as_index(value: int, name: str) -> int:
    """``operator.index(value)``, which passes numpy integers and reads ``True`` as 1, but a bool raises TypeError naming ``name``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got the bool {value!r}")
    return operator.index(value)


def party_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """The one check of a party structure: its local dimensions as a tuple of Python ints.

    A non-integer or bool dim raises TypeError; ValueError if a dim is below 1 or the
    total dimension, their product, is below 2.
    """
    checked = tuple(as_index(d, "a local dim") for d in dims)
    if math.prod(checked) < 2 or min(checked) < 1:
        raise ValueError(f"local dims {checked} must each be at least 1, with product at least 2")
    return checked


def cut_parties(parties: Iterable[int], n_parties: int) -> tuple[int, ...]:
    """The one check of a cut: its side-a party indices, sorted and distinct.

    A non-integer or bool index raises TypeError; ValueError unless the indices form a
    nonempty proper subset of ``0..n_parties - 1``.
    """
    cut = tuple(sorted({as_index(k, "a cut party") for k in parties}))
    if not cut or len(cut) >= n_parties or cut[0] < 0 or cut[-1] >= n_parties:
        raise ValueError(f"cut parties {list(cut)} must be a nonempty proper subset of 0..{n_parties - 1}")
    return cut


def partial_transpose(
    matrix: np.ndarray, local_dims: Sequence[int], transposed: Iterable[int]
) -> np.ndarray:
    """Transpose the row/column indices of the parties listed in ``transposed``.

    Takes one matrix or a stack of shape ``(..., D, D)`` and transposes every
    matrix of the stack; ``local_dims`` are checked by ``party_dims`` and
    ``transposed`` is a cut, checked by ``cut_parties``.
    Implemented as an index permutation on the composite multi-indices, so the
    operation is exact: applying it twice returns the input bit for bit, the
    trace is untouched, and it commutes bit for bit with entrywise arithmetic
    such as mixing two matrices.
    """
    m = np.asarray(matrix)
    dims = party_dims(local_dims)
    n = len(dims)
    total = math.prod(dims)
    if m.ndim < 2 or m.shape[-2:] != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match local dims {dims}")
    cut = cut_parties(transposed, n)
    lead = m.shape[:-2]
    off = len(lead)
    perm = list(range(off + 2 * n))
    for k in cut:
        perm[off + k], perm[off + n + k] = perm[off + n + k], perm[off + k]
    return m.reshape(lead + dims + dims).transpose(perm).reshape(m.shape)


def numerical_rank(matrix: np.ndarray) -> int:
    """Number of eigenvalues of a Hermitian matrix with |eigenvalue| >= DEFAULT_TOL."""
    vals = eigvalsh_unchecked(as_hermitian(matrix))
    return int(np.count_nonzero(np.abs(vals) >= DEFAULT_TOL))


def span_projector(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Orthogonal projector onto the span of ``vectors``: the left singular vectors with singular value above DEFAULT_TOL.

    An empty span (no vectors, or none above the tolerance) or an entry that
    is not finite raises ValueError.
    """
    if len(vectors):
        stacked = np.column_stack(vectors)
        if not np.isfinite(stacked).all():
            raise ValueError("vectors have an entry that is not finite")
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        basis = u[:, s > DEFAULT_TOL]
        if basis.shape[1]:
            return basis @ basis.conj().T
    raise ValueError("empty span")


def subspace_distance(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> float:
    """Max-entry distance between the orthogonal projectors onto the two spans (``span_projector``).

    The result is zero exactly when the spans coincide.
    """
    return float(np.max(np.abs(span_projector(first) - span_projector(second))))

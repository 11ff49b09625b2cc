"""Multipartite state representations and PPT testing.

Holds the party bookkeeping (a party structure is the tuple of local
dimensions, as ``linalg.party_dims`` checks it; a cut is the tuple of its
side-a party indices, as ``linalg.cut_parties`` checks it), product vectors,
density matrices, and the completely separable projector family
indexed by per-qubit labels ``{0, 1, phi1, phi2}``.  A product vector is a
tuple of local vectors, one ``(d_k,)`` array per party, and a set of m of
them is a tuple of ``(m, d_k)`` stacks, one per party; ``expand_locals``
takes either to the composite space.  The projector family:

    |0>, |1>, |phi1> = (|0>+|1>)/sqrt(2), |phi2> = (|0>+i|1>)/sqrt(2)

The 4^n projectors onto tensor products of these vectors form a (nonsingular
Gram) basis of the n-qubit operator space, which is what makes "perturb in
every independent direction" a finite computation.  ``projector_basis(n)``
holds them as one cached, read-only ``(4^n, 2^n, 2^n)`` array in
``basis_labels(n)`` order, and ``projector_combination`` contracts a
label -> coefficient map against it.  A cut is PPT when its smallest
partial-transpose eigenvalue is at least ``-linalg.DEFAULT_TOL``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import InitVar, dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import linalg

LABELS = ("0", "1", "phi1", "phi2")

TRACE_TOL = 1e-12                # a trace, a norm or a weight sum that must be 1 may miss it by this much
PSD_TOL = 1e-10                  # a validated state's smallest eigenvalue may lie this far below 0
PROJECTOR_BASIS_MAX_QUBITS = 6   # the largest n of projector_basis(n), so that D = 2^n <= 64


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_LOCAL_VECTORS = {
    "0": _read_only(np.array([1.0, 0.0], dtype=complex)),
    "1": _read_only(np.array([0.0, 1.0], dtype=complex)),
    "phi1": _read_only(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)),
    "phi2": _read_only(np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)),
}
_LOCAL_PROJECTORS = _read_only(np.array([np.outer(v, v.conj()) for v in _LOCAL_VECTORS.values()]))


def local_vector(label: str) -> np.ndarray:
    """Single-qubit vector for one projector-basis label."""
    try:
        return _LOCAL_VECTORS[label].copy()
    except KeyError:
        raise ValueError(f"unknown label {label!r}; expected one of {LABELS}") from None


def bipartitions(n_parties: int) -> list[tuple[int, ...]]:
    """All cuts of ``n_parties`` parties up to complement symmetry, deterministic order.

    Each cut is the sorted tuple of its side-a parties, the side containing
    party 0; cuts are listed by binary counting over the remaining parties.
    """
    if n_parties < 2:
        raise ValueError("need at least two parties to bipartition")
    rest = list(range(1, n_parties))
    return [
        (0,) + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
        for mask in range(2 ** len(rest) - 1)
    ]


def expand_locals(local_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of one local vector per party, taken over the last axis.

    Party k's entry is one ``(d_k,)`` vector or a ``(..., d_k)`` stack of
    them; leading axes broadcast, so ``(m, d_k)`` stacks give the ``(m, D)``
    rows of m expanded product vectors.
    """
    out = local_vectors[0]
    for v in local_vectors[1:]:
        out = (out[..., :, None] * v[..., None, :]).reshape(*out.shape[:-1], out.shape[-1] * v.shape[-1])
    return out


def product_projector(vector: Sequence[np.ndarray]) -> np.ndarray:
    """``|phi><phi|`` of the product vector given as one local vector per party."""
    full = expand_locals(vector)
    return np.outer(full, full.conj())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite (within tolerance) operator, held read-only, and its checked dims."""

    matrix: np.ndarray
    local_dims: tuple[int, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        m = _read_only(linalg.as_hermitian(self.matrix))
        object.__setattr__(self, "matrix", m)
        dims = linalg.party_dims(self.local_dims)
        object.__setattr__(self, "local_dims", dims)
        if m.shape[0] != math.prod(dims):
            raise ValueError(f"matrix dimension {m.shape[0]} does not match the party structure {dims}")
        if abs(m.trace().real - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {m.trace().real!r}, expected 1")
        if validate:
            vals = linalg.eigvalsh_unchecked(m)
            if vals[0] < -PSD_TOL:
                raise ValueError(f"operator is not positive semidefinite: min eigenvalue {vals[0]:.3e}")


def validate_labels(labels: Sequence[str]) -> tuple[str, ...]:
    mu = tuple(labels)
    for l in mu:
        if l not in LABELS:
            raise ValueError(f"unknown label {l!r}; expected one of {LABELS}")
    return mu


def basis_labels(n_qubits: int) -> list[tuple[str, ...]]:
    """The 4^n label tuples in lexicographic order over ``LABELS``."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return list(itertools.product(LABELS, repeat=n_qubits))


@functools.cache
def projector_basis(n_qubits: int) -> np.ndarray:
    """All 4^n separable basis projectors as one read-only ``(4^n, 2^n, 2^n)`` array.

    Entry ``mu`` is the Kronecker product of the single-qubit projectors named
    by ``basis_labels(n_qubits)[mu]``; the stack is built once per ``n_qubits``.
    """
    if not 1 <= n_qubits <= PROJECTOR_BASIS_MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{PROJECTOR_BASIS_MAX_QUBITS}")
    stack = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n_qubits):
        # (A, 1, d, d) kron (4, 2, 2): every stacked projector times every local one
        d = 2 * stack.shape[-1]
        stack = np.kron(stack[:, None], _LOCAL_PROJECTORS).reshape(-1, d, d)
    return _read_only(stack)


def projector_combination(coefficients: Mapping[tuple[str, ...], float]) -> np.ndarray:
    """The operator sum_mu c[mu] * E_mu for a label -> coefficient map."""
    widths = {len(mu) for mu in coefficients}
    if len(widths) != 1:
        raise ValueError(f"need labels of one width, got widths {sorted(widths)}")
    (n,) = widths
    stack = projector_basis(n)
    index = _basis_index(n)
    weights = np.zeros(len(stack))
    for mu, c in coefficients.items():
        weights[index[validate_labels(mu)]] += c
    # the (1, 4^n) @ (4^n, 4^n) product that np.tensordot(weights, stack, axes=1) forms, without its wrapper
    return np.dot(weights[None], stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


@functools.cache
def _basis_index(n_qubits: int) -> dict[tuple[str, ...], int]:
    """Position of each label tuple in ``basis_labels(n_qubits)``; built once per ``n_qubits``."""
    return {mu: i for i, mu in enumerate(basis_labels(n_qubits))}


def projector_basis_gram(n_qubits: int) -> np.ndarray:
    """Real Gram matrix G[uv] = tr(E_u E_v) of the separable projector basis."""
    stack = projector_basis(n_qubits)
    return np.einsum("aij,bji->ab", stack, stack, optimize=True).real


def decompose_in_projector_basis(rho: DensityMatrix) -> np.ndarray:
    """Unique real coefficients c with rho = sum_mu c[mu] * E_mu.

    Solves G c = (tr(E_mu rho))_mu, which is well posed because the Gram
    matrix G is nonsingular for qubit parties.
    """
    if set(rho.local_dims) != {2}:
        raise ValueError("projector basis decomposition requires qubit parties")
    n = len(rho.local_dims)
    rhs = np.einsum("aij,ji->a", projector_basis(n), rho.matrix).real
    return np.linalg.solve(projector_basis_gram(n), rhs)


class CutVerdict(NamedTuple):
    ppt: bool
    min_eigenvalue: float


def min_pt_eigenvalue(rho: DensityMatrix, cut: Sequence[int]) -> float:
    """Smallest eigenvalue of the partial transpose of rho across the cut (its side-a parties)."""
    # an index permutation of the Hermitian rho.matrix, so Hermitian as well
    pt = linalg.partial_transpose(rho.matrix, rho.local_dims, cut)
    return float(linalg.eigvalsh_unchecked(pt)[0])


def is_ppt_all_cuts(rho: DensityMatrix) -> dict[tuple[int, ...], CutVerdict]:
    """PPT verdict and min PT eigenvalue for every cut of ``bipartitions``, keyed by the cut.

    A cut is PPT when its min PT eigenvalue is at least ``-linalg.DEFAULT_TOL``.
    """
    report: dict[tuple[int, ...], CutVerdict] = {}
    for cut in bipartitions(len(rho.local_dims)):
        mn = min_pt_eigenvalue(rho, cut)
        report[cut] = CutVerdict(mn >= -linalg.DEFAULT_TOL, mn)
    return report


def random_product_vector(local_dims: Sequence[int], rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One local vector per party, each uniform on the complex unit sphere; ``linalg.party_dims`` checks the dims."""
    locs = []
    for d in linalg.party_dims(local_dims):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        locs.append(v / np.linalg.norm(v))
    return tuple(locs)


def random_density_matrix(local_dims: Sequence[int], rng: np.random.Generator) -> DensityMatrix:
    """Full-rank state G G^dag / tr from a complex Gaussian G (Ginibre sampling), dims checked by ``party_dims``."""
    dims = linalg.party_dims(local_dims)
    d = math.prod(dims)
    x = rng.standard_normal((2, d, d))  # the real parts, then the imaginary parts
    g = x[0] + 1j * x[1]
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, dims, validate=False)

"""Unextendible product bases: construction, certification, and product hunting.

The three-qubit family built here is parametrized by one angle per party:

    |psi_1> = |0>|0>|0>          |psi_3> = |A>|1>|C~>
    |psi_2> = |1>|B>|C>          |psi_4> = |A~>|B~>|1>

with |A> = cos(a)|0> + sin(a)|1> and |A~> = sin(a)|0> - cos(a)|1> (the phase
convention for the orthogonal partner is fixed for determinism), similarly
for B and C.  For angles strictly inside (0, pi/2) the four vectors are
pairwise orthogonal and their complement contains no product vector; at the
boundary the complement acquires one and the family degenerates.

Product vectors take the format of ``states``: a ``UPB`` holds its m
members, and a hunt result its hits, as one ``(m, d_k)`` stack of local
vectors per party, and the certificate's best product vector is one local
vector per party.  A party structure is the tuple of local dims: a ``UPB``
reads its own from the widths of its stacks, and the seesaw and the hunt
take theirs next to the projector, checked by ``linalg.party_dims``.

Unextendibility is tested numerically: a multi-start alternating ("seesaw")
maximization of <phi|Q|phi> over product vectors, Q the complementary
projector.  Each local update maximizes exactly over one party, so the
objective never decreases; the best value over all restarts, bounded away
from 1 by a fixed gap, is the certificate: a lower bound on the true maximum,
so no proof.  Qubit updates are closed form: with Bloch vectors, |<a|m>|^2 =
(1 + r_a . r_m)/2 makes the objective multilinear, g_0 + g . r_k in party k,
maximal at r_k = g/|g|.  Other local dims take the top eigenvector of the
party's local operator.

Product hunting takes a projector, as the certificate does, and searches its
range.  For three qubits and rank k <= 5 the product vectors form a finite
set (the Segre variety has degree 6), found by one degree-6 polynomial solve:
six points in a five-dimensional (super)space, of which those within
HUNT_RESIDUAL_TOL of the range count.  Every other input, and a degenerate
solve (a root at infinity, a rank-deficient constraint matrix, a multiple
root, a continuum), goes to the seesaw, where each restart that reaches
overlap 1 - gap counts.  One fidelity rule keeps the distinct hits of either.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .states import DensityMatrix, expand_locals

UNEXTENDIBILITY_GAP = 1e-3       # certified when max_overlap < 1 - gap
UNIT_NORM_TOL = 1e-12
PAIRWISE_ORTHO_TOL = 1e-10
SEESAW_IMPROVEMENT_TOL = 1e-12
SEESAW_MAX_SWEEPS = 500
DEFAULT_RESTARTS = 64
DISTINCT_FIDELITY_TOL = 1e-6     # hits with fidelity > 1 - tol are the same solution
PROJECTOR_TOL = 1e-10
HUNT_RESIDUAL_TOL = 1e-8         # a solved point lies in the subspace when ||(I - P) phi|| < tol
SEGRE_DEGENERACY_TOL = 1e-12     # relative size below which the solve's leading term or N's rank vanishes


@dataclass(frozen=True)
class ShiftsParams:
    """Angles (radians) for the three local pairs; each strictly inside (0, pi/2)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, val in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not 0.0 < val < np.pi / 2:
                raise ValueError(
                    f"angle {name}={val!r} is at or outside (0, pi/2); "
                    "the family degenerates there and the complement acquires product vectors"
                )


@dataclass(frozen=True, eq=False)
class UnextendibilityCertificate:
    """Best product overlap with the complementary projector found by the seesaw: a lower bound on the maximum.

    ``best_product_vector`` attains it: one read-only ``(d_k,)`` local vector per party.
    """

    max_overlap: float
    best_product_vector: tuple[np.ndarray, ...]

    @property
    def certifies_unextendible(self) -> bool:
        return self.max_overlap < 1.0 - UNEXTENDIBILITY_GAP


@dataclass(frozen=True, eq=False)
class UPB:
    """Ordered orthogonal product vectors with 1 <= m < D, one ``(m, d_k)`` stack per party.

    Row i of ``local_stacks[k]`` is member i's local vector for party k.
    Construction keeps read-only copies of the stacks, reads ``local_dims``
    from their widths, checks every row for unit norm, expands the members
    once into the columns of the read-only ``(D, m)`` matrix ``vectors`` and
    checks orthogonality with one Gram product ``V^H V``.  The projector
    attributes are built from ``vectors`` on first use and cached read-only.
    """

    local_stacks: tuple[np.ndarray, ...]
    local_dims: tuple[int, ...] = field(init=False)
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stacks = tuple(_read_only(np.array(s, dtype=complex)) for s in self.local_stacks)
        object.__setattr__(self, "local_stacks", stacks)
        if not stacks or any(s.ndim != 2 for s in stacks):
            raise ValueError(f"stacks of shapes {[s.shape for s in stacks]} are not one (m, d_k) stack per party")
        dims = tuple(s.shape[1] for s in stacks)
        object.__setattr__(self, "local_dims", dims)
        counts = sorted({len(s) for s in stacks})
        if len(counts) > 1:
            raise ValueError(f"the parties' stacks hold different member counts {counts}")
        if counts == [0]:
            raise ValueError("an unextendible product basis needs at least one member")
        if counts[0] >= math.prod(dims):
            raise ValueError("an unextendible product basis must be incomplete (m < D)")
        for k, s in enumerate(stacks):
            # written so that a NaN norm fails too
            bad = ~(np.abs(np.linalg.norm(s, axis=1) - 1.0) <= UNIT_NORM_TOL)
            if bad.any():
                raise ValueError(f"member {np.argmax(bad)}: local vector {k} is not normalized")
        vecs = _read_only(np.ascontiguousarray(expand_locals(stacks).T))
        object.__setattr__(self, "vectors", vecs)
        gram = vecs.conj().T @ vecs
        # written so that a NaN overlap fails too; the first pair found has i < j
        bad = ~(np.abs(gram) <= PAIRWISE_ORTHO_TOL)
        np.fill_diagonal(bad, False)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"members {i} and {j} are not orthogonal: |<i|j>| = {abs(gram[i, j]):.3e}")

    @property
    def size(self) -> int:
        return self.vectors.shape[1]

    @functools.cached_property
    def member_sum_projector(self) -> np.ndarray:
        """``V V^H``, the projector onto the members' span; built on first use, then the same read-only array."""
        return _read_only(self.vectors @ self.vectors.conj().T)

    @functools.cached_property
    def complement_projector(self) -> np.ndarray:
        """``I - V V^H``, the projector onto the complement; built on first use, then the same read-only array."""
        return _read_only(np.eye(len(self.vectors)) - self.member_sum_projector)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _angle_pair(theta: float) -> np.ndarray:
    """The rows ``|T> = cos(t)|0> + sin(t)|1>`` and ``|T~> = sin(t)|0> - cos(t)|1>``."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def shifts_family(params: ShiftsParams) -> UPB:
    """The one-angle-per-party three-qubit family; orthogonal by construction."""
    (va, wa), (vb, wb), (vc, wc) = (_angle_pair(t) for t in (params.a, params.b, params.c))
    e0, e1 = np.eye(2, dtype=complex)
    # row i of party k's stack is member i's local vector, in the order of the module docstring
    stacks = (
        np.array([e0, e1, va, wa]),
        np.array([e0, vb, e1, wb]),
        np.array([e0, vc, wc, e1]),
    )
    return UPB(stacks)


def upb_state(u: UPB) -> DensityMatrix:
    """Maximally mixed state on the orthogonal complement of the UPB."""
    # spectrum is exactly {0 x m, 1/(D-m) x (D-m)}, so no PSD re-check needed
    return DensityMatrix(u.complement_projector / (len(u.vectors) - u.size), u.local_dims, validate=False)


# sigma_0 = I, sigma_x, sigma_y, sigma_z, stacked as PAULI[i, row, column]
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _pauli_tensor(p_tensor: np.ndarray) -> np.ndarray:
    """Real ``T[i_1..i_n] = tr(P sigma_i_1 x ... x sigma_i_n) / 2^n`` of a Hermitian n-qubit ``P``.

    ``p_tensor`` is ``P`` as a ``(2,) * 2n`` tensor (ket axes, then bra axes).
    One contraction per party; for a product vector with Bloch vectors
    ``r_k`` and ``s_k = (1, r_k)``, ``<phi|P|phi>`` is ``T`` contracted with
    every ``s_k``.
    """
    n = p_tensor.ndim // 2
    t = p_tensor
    half = PAULI / 2
    for k in range(n):
        # party k's ket axis is first and its bra axis at n - k; T's axes collect at the end
        t = np.tensordot(t, half, axes=([0, n - k], [2, 1]))
    return t.real


def _ket_to_bloch(kets: np.ndarray) -> np.ndarray:
    """``(R, 4)`` rows ``s = (1, r)`` of ``(R, 2)`` unit kets, ``r_j = <a|sigma_j|a>``."""
    c = 2 * kets[:, 0].conj() * kets[:, 1]
    z = np.abs(kets[:, 0]) ** 2 - np.abs(kets[:, 1]) ** 2
    return np.column_stack([np.ones(len(kets)), c.real, c.imag, z])


def _bloch_to_ket(s: np.ndarray) -> np.ndarray:
    """Unit kets of the ``(R, 4)`` rows ``s = (1, r)``, on the branch that stays away from ``1 + r_z = 0``."""
    x, y, z = s[:, 1], s[:, 2], s[:, 3]
    north = z >= 0
    kets = np.column_stack([np.where(north, 1 + z, x - 1j * y), np.where(north, x + 1j * y, 1 - z)])
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def _bloch_update(op: np.ndarray, w: np.ndarray, prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Qubit party: the objective is ``g_0 + g . r`` with ``g = w @ op``, maximal at ``r = g / |g|``.

    ``g_0 + |g|`` and ``(1, g / |g|)`` are the top eigenpair of the 2x2 local
    operator ``sum_j g_j sigma_j`` in Bloch form.  Where ``|g| = 0`` every
    ``r`` is a maximizer and the previous state ``prev`` is kept.
    """
    g = w @ op
    h = g[:, 1:]
    norm = np.sqrt((h * h).sum(axis=1, keepdims=True))
    s = prev.copy()
    np.divide(h, norm, out=s[:, 1:], where=norm > 0)
    return g[:, 0] + norm[:, 0], s


def _eigh_update(op: np.ndarray, w: np.ndarray, prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Any party: top eigenpair of each restart's local operator ``<w| P |w>``, one stacked LAPACK call."""
    d = prev.shape[1]
    x = (w @ op).reshape(len(w), d * d, -1)
    vals, vecs = linalg.eigh_unchecked((x @ w.conj()[:, :, None]).reshape(-1, d, d))
    return vals[:, -1], vecs[:, :, -1]


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a nonnegative int, lowest first, as ``np.random.SeedSequence`` splits it."""
    if n < 0:
        raise ValueError(f"a seed must be nonnegative, got {n}")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _seed_words(seed: int | Sequence[int], restarts: int) -> list[int]:
    """The seed's uint32 words; TypeError or ValueError unless restarts is an int >= 1 and the seed ints >= 0."""
    if operator.index(restarts) < 1:
        raise ValueError("need at least one restart")
    base = seed if isinstance(seed, (list, tuple)) else [operator.index(seed)]
    return [w for s in base for w in _uint32_words(s)]


def _seesaw(
    projector: np.ndarray,
    dims: Sequence[int],
    seed: int | Sequence[int],
    restarts: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run every restart in lockstep until its sweep improves by less than ``SEESAW_IMPROVEMENT_TOL``.

    ``projector`` is the D x D matrix, ``D = prod(dims)``, and must already be
    Hermitian: nothing here checks it again.  It is reshaped once into a
    ``dims + dims`` tensor (ket axes, then bra axes).  Restart r starts from
    the stream of ``default_rng([*seed, r])``, with the seed's uint32 words
    split once per call and r's appended for each restart.  Party k's
    states form one array over the restarts, and a local update maximizes over
    party k with the product ``w`` of the other parties' states held fixed:

    - every local dim 2: states are Bloch rows ``s_k = (1, r_k)``, converted
      from the start kets and back for all parties in one call each, and
      party k's slice of the real Pauli tensor (``_pauli_tensor``) is one
      ``(4^(n-1), 4)`` matrix, so an update is one real matmul and the closed
      form of ``_bloch_update``, with no eigensolver;
    - otherwise: states are kets, party k's operator is reshaped once into an
      ``(A_k, d_k * d_k * A_k)`` matrix, ``A_k = D / d_k``, and an update is two
      matmuls and one stacked ``linalg.eigh_unchecked`` (``_eigh_update``).

    The states and objectives of the restarts still improving are kept as
    compact arrays from sweep to sweep, and written back to the full arrays
    only on a sweep where a restart retires and once at the sweep cap.  The
    objective's monotonicity is checked once per sweep, over every party's
    update; a drop raises ConvergenceError naming the first party with one.

    Returns the final objective of every restart and the per-party local
    kets.  Raises ValueError for fewer than two parties, where there is
    nothing to alternate over, and the errors of ``_seed_words``.
    """
    n = len(dims)
    if n < 2:
        raise ValueError(f"the seesaw needs at least two parties, got local dims {tuple(dims)}")
    seed_words = _seed_words(seed, restarts)
    p_tensor = projector.reshape(tuple(dims) * 2)
    # party j draws d_j real parts, then d_j imaginary parts, in party order
    draws = np.array([
        np.random.default_rng(np.array(seed_words + _uint32_words(r), dtype=np.uint32))
        .standard_normal(2 * sum(dims))
        for r in range(restarts)
    ])
    offsets = np.cumsum([0] + [2 * d for d in dims])
    locs = []
    for k, d in enumerate(dims):
        v = draws[:, offsets[k]:offsets[k] + d] + 1j * draws[:, offsets[k] + d:offsets[k + 1]]
        locs.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    bloch = all(d == 2 for d in dims)
    if bloch:
        # one block of rows per party, so that locs are views the write-back fills
        bloch_rows = _ket_to_bloch(np.concatenate(locs)).reshape(n, restarts, 4)
        locs = list(bloch_rows)
        t = _pauli_tensor(p_tensor)
        ops = [np.moveaxis(t, k, -1).reshape(-1, 4) for k in range(n)]
        update = _bloch_update
    else:
        # ops[k][y, a, b, x] = <x, a| P |y, b>, with x, y the other parties' indices
        # (party k's ket and bra axes in the middle), so that for their product
        # vector w, ((w @ ops[k]) @ conj(w))[a, b] = <w, a| P |w, b>
        ops = []
        for k in range(n):
            others = [j for j in range(n) if j != k]
            axes = [n + j for j in others] + [k, n + k] + others
            ops.append(p_tensor.transpose(axes).reshape(math.prod(dims) // dims[k], -1))
        update = _eigh_update
    objective = np.full(restarts, -np.inf)
    active = np.arange(restarts)
    # the active restarts' states; row 0 of values is their objective at the
    # start of a sweep, row k + 1 the maximum of party k's update in it
    cur = list(locs)
    values = np.full((n + 1, restarts), -np.inf)
    for sweep in range(SEESAW_MAX_SWEEPS):
        values[0] = values[n]
        # a sweep starts from C-contiguous states: with two parties w is the other
        # party's state itself, and a matmul can round a strided operand (the
        # eigenvector columns of _eigh_update) differently
        cur = [np.ascontiguousarray(c) for c in cur]
        for k in range(n):
            w = expand_locals(cur[:k] + cur[k + 1:])
            values[k + 1], cur[k] = update(ops[k], w, cur[k])
        # each local update is an exact maximization, so the objective is monotone
        drop = values[:-1] - values[1:]
        if (drop > SEESAW_IMPROVEMENT_TOL).any():
            k = int(np.argmax((drop > SEESAW_IMPROVEMENT_TOL).any(axis=1)))
            i = int(np.argmax(drop[k]))
            raise linalg.ConvergenceError(
                f"seesaw objective decreased at restart {active[i]}, sweep {sweep}, "
                f"party {k}: drop {drop[k, i]:.3e} exceeds {SEESAW_IMPROVEMENT_TOL:.3e}"
            )
        # written so that a NaN objective retires too
        keep = values[n] - values[0] >= SEESAW_IMPROVEMENT_TOL
        if not keep.all() or sweep == SEESAW_MAX_SWEEPS - 1:
            for loc, c in zip(locs, cur):
                loc[active] = c
            objective[active] = values[n]
            active, values, cur = active[keep], values[:, keep], [c[keep] for c in cur]
            if not active.size:
                break
    if bloch:
        locs = list(_bloch_to_ket(bloch_rows.reshape(-1, 4)).reshape(n, restarts, 2))
    return objective, locs


def _checked_projector(projector: np.ndarray, local_dims: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The symmetrized ``projector`` (``linalg.as_hermitian``), checked idempotent and of shape ``(D, D)``, and its dims.

    The dims are checked by ``linalg.party_dims``, and D is their product.
    """
    p = linalg.as_hermitian(projector)
    if float(np.max(np.abs(p @ p - p))) > PROJECTOR_TOL:
        raise ValueError("input is not an orthogonal projector within tolerance")
    dims = linalg.party_dims(local_dims)
    if p.shape != (math.prod(dims),) * 2:
        raise ValueError(f"projector of shape {p.shape} does not match the party structure {dims}")
    return p, dims


def seesaw_max_product_overlap(
    projector: np.ndarray,
    local_dims: Sequence[int],
    restarts: int = DEFAULT_RESTARTS,
    seed: int | Sequence[int] = 0,
) -> UnextendibilityCertificate:
    """Maximize <phi|P|phi> over product vectors by multi-start seesaw.

    Restart r draws its start from ``default_rng([*seed, r])``, so runs are
    reproducible and restarts are independent.  The best overlap wins, and
    among objectives that are bit-equal the lowest restart index.  Restarts
    that converge into one basin each stop within ``SEESAW_IMPROVEMENT_TOL``
    of its maximum, so their objectives are seldom bit-equal (they end up to
    3.2e-13 apart on the certify configs), and the strict argmax picks
    ``best_product_vector`` among them by rounding.  ROADMAP item 2's tie
    rule, a tolerance and a canonical choice among tied restarts, would fix
    that choice.
    """
    objective, locs = _seesaw(*_checked_projector(projector, local_dims), seed, restarts)
    r = int(np.argmax(objective))
    return UnextendibilityCertificate(
        max_overlap=float(min(max(objective[r], 0.0), 1.0)),
        best_product_vector=tuple(_read_only(v[r] / np.linalg.norm(v[r])) for v in locs),
    )


def certify_unextendible(
    u: UPB,
    restarts: int = DEFAULT_RESTARTS,
    seed: int | Sequence[int] = 0,
) -> UnextendibilityCertificate:
    """Run the seesaw on the complementary projector and return its certificate."""
    return seesaw_max_product_overlap(u.complement_projector, u.local_dims, restarts, seed)


@dataclass(frozen=True, eq=False)
class HuntResult:
    """Distinct product vectors found inside a subspace, one read-only ``(h, d_k)`` stack per party, with their overlaps."""

    local_stacks: tuple[np.ndarray, ...]
    overlaps: tuple[float, ...]
    rank: int

    @property
    def distinct_count(self) -> int:
        return len(self.overlaps)

    @property
    def vectors(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The hits one at a time, each a product vector: row r of every stack."""
        return tuple(zip(*self.local_stacks))


# The three-qubit solve of ``_qubit_triple_points``: the 7th roots of unity
# the degree-6 product condition is sampled at, the inverse DFT that turns the
# seven samples into its coefficients (lowest degree first), and in row m the
# columns of a 3 x 4 matrix that remain when column m is removed.
_UNIT_ROOTS_7 = np.cos(2 * np.pi * np.arange(7) / 7) + 1j * np.sin(2 * np.pi * np.arange(7) / 7)
# entry (n, j) is w_j^-n / 7 for the root w_j
_INVERSE_DFT_7 = _UNIT_ROOTS_7.conj()[np.outer(np.arange(7), np.arange(7)) % 7] / 7
_MINOR_COLUMNS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


@functools.cache
def _segre_mix(k: int) -> np.ndarray:
    """The orthonormal ``(8 - k, 3)`` columns spanning a fixed generic complex mix, cached per k (read-only).

    Column j of the mix holds the weights of constraint j on the ``8 - k``
    complement vectors: the first ``8 - k`` of seven drawn from a seed of its
    own, so that no config seed reaches them.
    """
    draws = np.random.default_rng(0x5E67E).standard_normal((2, 3, 7))
    mix = (draws[0] + 1j * draws[1])[:, :8 - k]
    return _read_only(np.linalg.svd(mix.T, full_matrices=False).U)


def _null_vectors(n: np.ndarray) -> np.ndarray:
    """The signed 3 x 3 minors of a stack of 3 x 4 matrices, a null vector of each.

    ``z_m = (-1)^m det(n without column m)``, so ``n @ z = 0`` by cofactor expansion.
    """
    # entry (m, j, i) is n[i, _MINOR_COLUMNS[m, j]]: minor m transposed, which has its det
    return np.linalg.det(n.swapaxes(-1, -2)[..., _MINOR_COLUMNS, :]) * np.array([1, -1, 1, -1])


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Indices of the unit rows kept in order: a row goes when its fidelity with a kept one exceeds 1 - tol."""
    fidelity = np.abs(rows.conj() @ rows.T) ** 2
    kept: list[int] = []
    for r in range(len(rows)):
        if not (fidelity[r, kept] > 1.0 - DISTINCT_FIDELITY_TOL).any():
            kept.append(r)
    return np.array(kept, dtype=int)


def _qubit_triple_points(proj: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray] | None:
    """Every product vector in the range of ``proj``, a three-qubit projector of rank ``k <= 5``.

    A product vector lies in the span iff it is orthogonal to the complement.
    Three constraint vectors ``u_j`` are kept, the same way for every k <= 5:
    the complement's orthonormal basis times the orthonormal columns of a
    fixed generic mix (``_segre_mix``), so the ``u_j`` are orthonormal too.
    They cut out a superspace of dimension 5, which for k = 5 is the span
    itself.  With ``a = (1, x)`` the constraints ``<u_j|a, b, c> = 0`` are
    ``N(x) z = 0`` for ``z = b (x) c`` and a 3 x 4 matrix ``N(x)`` linear in
    x.  Its null vector is its signed 3 x 3 minors, cubic in x, and the
    product condition ``z_0 z_3 - z_1 z_2 = 0`` is a degree-6 polynomial,
    whose six roots give the superspace's six product vectors (the degree of
    the Segre variety).  The points returned are those
    whose residual ``||(I - P) phi||`` against the whole complement is below
    ``HUNT_RESIDUAL_TOL``, as the seesaw returns its restarts: the per-party
    ``(R, 2)`` unit kets and the ``(R,)`` overlaps ``<phi|P|phi>``.

    Returns None, for the seesaw to settle, when the solve is degenerate:
    the leading coefficient vanishes (a root at infinity), ``N`` loses rank
    at a root, or fewer than six distinct points (``_distinct``) verify in
    the superspace (a multiple root, or a continuum of product vectors).
    """
    # proj's eigenvalues are 0 (8 - k times) and then 1
    complement = linalg.eigh_unchecked(proj).eigenvectors[:, :8 - k]
    constraints = complement @ _segre_mix(k)
    # N(x) = w[:, 0] + x w[:, 1], row j of w[:, i] pairing with a_i
    w = constraints.conj().T.reshape(3, 2, 4)
    z = _null_vectors(w[:, 0] + _UNIT_ROOTS_7[:, None, None] * w[:, 1])
    coeffs = _INVERSE_DFT_7 @ (z[:, 0] * z[:, 3] - z[:, 1] * z[:, 2])
    if abs(coeffs[6]) <= SEGRE_DEGENERACY_TOL * np.abs(coeffs).max():
        return None
    x = np.roots(coeffs[::-1])
    a = np.column_stack([np.ones_like(x), x]) / np.sqrt(1 + np.abs(x) ** 2)[:, None]
    n = a[:, 0, None, None] * w[:, 0] + a[:, 1, None, None] * w[:, 1]
    # |z| is the product of N's three singular values, |N|^3 bounds it
    z = _null_vectors(n).reshape(-1, 2, 2)
    if (np.linalg.norm(z, axis=(1, 2)) <= SEGRE_DEGENERACY_TOL * np.linalg.norm(n, axis=(1, 2)) ** 3).any():
        return None
    # z = b c^T: b is the top eigenvector of z z^dag, c the normalized b^dag z
    b = linalg.eigh_unchecked(z @ z.conj().transpose(0, 2, 1)).eigenvectors[:, :, 1]
    c = np.einsum("rp,rpq->rq", b.conj(), z)
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    phi = expand_locals((a, b, c))
    in_superspace = np.linalg.norm(phi @ constraints.conj(), axis=1) < HUNT_RESIDUAL_TOL
    if not in_superspace.all() or len(_distinct(phi)) < len(phi):
        return None
    found = np.linalg.norm(phi @ complement.conj(), axis=1) < HUNT_RESIDUAL_TOL
    overlaps = np.einsum("ri,ij,rj->r", phi.conj(), proj, phi).real
    return [a[found], b[found], c[found]], overlaps[found]


def subspace_product_hunt(
    projector: np.ndarray,
    local_dims: Sequence[int],
    restarts: int = DEFAULT_RESTARTS,
    seed: int | Sequence[int] = 0,
) -> HuntResult:
    """Hunt product vectors in the range of an orthogonal projector.

    The input contract is ``seesaw_max_product_overlap``'s: a Hermitian,
    idempotent ``projector`` of dimension ``prod(local_dims)``; its rank k, read
    from the trace, must be at least 1.  Two paths find the candidate points:

    - three qubits and k <= 5: one degree-6 polynomial solve
      (``_qubit_triple_points``), which finds every product vector in the span
      whose residual ``||(I - P) phi||`` is below ``HUNT_RESIDUAL_TOL``.  The
      count is exact and ``restarts`` and ``seed`` are checked but play no
      part.  Where the solve is degenerate (a root at infinity, a
      rank-deficient constraint matrix, a multiple root or a continuum of
      product vectors) the seesaw below runs, with the same seed and restarts;
    - otherwise a multi-start seesaw, where every restart landing at overlap
      >= 1 - gap is a candidate.

    The candidates are expanded once and kept in order unless their fidelity
    with a kept one exceeds ``1 - DISTINCT_FIDELITY_TOL`` (``_distinct``).
    Overlaps are clamped into [0, 1], as the certificate's maximum is.  The
    reported rank is the linear-independence rank of the kept hits, computed
    from their Gram spectrum at the default tolerance.
    """
    p, dims = _checked_projector(projector, local_dims)
    _seed_words(seed, restarts)  # the exact path reads neither, and rejects what the seesaw rejects
    k = round(float(np.trace(p).real))
    if k == 0:
        raise ValueError("the projector's range is empty")
    found = _qubit_triple_points(p, k) if dims == (2, 2, 2) and k <= 5 else None
    if found is None:
        objective, locs = _seesaw(p, dims, seed, restarts)
        hit = objective >= 1.0 - UNEXTENDIBILITY_GAP
        found = [v[hit] for v in locs], objective[hit]
    locs, overlaps = found
    full = expand_locals(locs)
    kept = _distinct(full)
    hits = full[kept]
    return HuntResult(
        local_stacks=tuple(_read_only(v[kept]) for v in locs),
        overlaps=tuple(float(x) for x in np.clip(overlaps[kept], 0.0, 1.0)),
        rank=linalg.numerical_rank(hits.conj() @ hits.T),
    )

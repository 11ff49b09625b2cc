"""Unextendible product bases: construction, certification, and product hunting.

The three-qubit family ``shifts_family((a, b, c))`` takes one angle per party:

    |psi_1> = |0>|0>|0>          |psi_3> = |A>|1>|C~>
    |psi_2> = |1>|B>|C>          |psi_4> = |A~>|B~>|1>

with |A> = cos(a)|0> + sin(a)|1> and |A~> = sin(a)|0> - cos(a)|1> (the phase
convention for the orthogonal partner is fixed for determinism), similarly
for B and C.  For angles strictly inside (0, pi/2), the range ``shifts_angles``
checks, the four vectors are pairwise orthogonal and their complement contains
no product vector; at the boundary the complement acquires one and the family
degenerates.

Product vectors take the format of ``states``: a ``UPB`` holds its m
members, and a hunt result its hits, as one ``(m, d_k)`` stack of local
vectors per party, and the certificate's best product vector is one local
vector per party.  A party structure is the tuple of local dims: a ``UPB``
reads its own from the widths of its stacks, and the seesaw and the hunt
take theirs next to the projector, checked by ``linalg.party_dims``.

Unextendibility is decided by the partition criterion (Bennett et al.,
quant-ph/9808030; DiVincenzo et al., quant-ph/9908070): an orthogonal
product set is a UPB iff its margin sigma is positive, and it counts as one
where ``partition_margin``, closed form for qubit sets of m = n + 1 members,
exceeds ``linalg.DEFAULT_TOL``.  The seesaw is a measurement, not a verdict:
a multi-start alternating maximization of <phi|Q|phi> over product vectors,
Q the complementary projector.  Each local update maximizes exactly over one
party, and the jumps a qubit call takes are kept only where they raise the
objective, so the objective never decreases; the best value over all
restarts is the certificate's overlap, a lower bound on the true maximum,
from which the witness takes its floor.  Qubit updates are closed form: with
Bloch vectors, |<a|m>|^2 = (1 + r_a . r_m)/2 makes the objective
multilinear, g_0 + g . r_k in party k, maximal at r_k = g/|g|, and the
restarts start from Bloch vectors drawn directly.  After every
``JUMP_SWEEP``-th sweep a qubit call still running moves each restart along
its last move where that is higher: by Aitken's step where its gain at least
halved, and by ``JUMP_FACTOR`` where it drifts along a slow ridge.  Other
local dims take the top eigenvector of the party's local operator.

Product hunting takes a projector, as the certificate does, and searches its
range, whose complement it computes once.  Each path returns candidate kets,
expanded once, and ``subspace_product_hunt`` alone accepts them, by one rule:
the residual ||(I - P) phi|| is below HUNT_RESIDUAL_TOL.  For three qubits and
rank k <= 5 the product vectors form a finite set (the Segre variety has
degree 6), found by one degree-6 polynomial solve: six points in a
five-dimensional (super)space, of which those in the range count.  For rank 6
to 8 they form a continuum, and each restart gives one point of it: the start
kets fix k - 5 parties, and the rest solve in closed form.  Every other input,
and a finite solve that is degenerate, goes to the seesaw, whose stopped
restarts are the candidates; its objective decides nothing.  A candidate of
the continuum or of the seesaw that fails the rule is polished by Gauss-Newton
and checked again, so three qubits of rank k >= 6 never reach the seesaw.  The
seesaw's count is a lower bound.  One fidelity rule keeps the distinct hits.

A UPB's complement is first hunted by proof (``upb_complement_hunt``): where
the margin counts as positive the set is a UPB, so its complement holds no
product vector and the hunt solves nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .states import TRACE_TOL, DensityMatrix, _read_only, expand_locals

SEESAW_IMPROVEMENT_TOL = 1e-12   # a call stops after a sweep where no restart gains this; a larger drop is a guard trip
SEESAW_MAX_SWEEPS = 500          # a call stops after this many sweeps
JUMP_SWEEP = 10                  # a qubit call still running after every JUMP_SWEEP-th sweep jumps each restart
JUMP_RATIO = 0.5                 # a restart whose gain ratio over the last two sweeps is below this takes Aitken's step
JUMP_FACTOR = 16                 # every other restart's step, in multiples of that sweep's move
DEFAULT_RESTARTS = 64            # seesaw restarts when the caller names none
DISTINCT_FIDELITY_TOL = 1e-6     # hits with fidelity > 1 - tol are the same solution
# max |PP - P| of a projector, and max |<i|j>| of distinct members: they are orthonormal iff V V^H is idempotent
PROJECTOR_TOL = 1e-10
HUNT_RESIDUAL_TOL = 1e-8         # a hunt's point lies in the subspace when ||(I - P) phi|| < tol
POLISH_STEPS = 20                # Gauss-Newton steps of the hunt's polish: a double root converges only linearly


@dataclass(frozen=True, eq=False)
class UnextendibilityCertificate:
    """Best product overlap with the complementary projector found by the seesaw: a lower bound on the maximum.

    A measurement, not a verdict: ``partition_margin`` decides unextendibility,
    and the overlap sets the witness's floor (``witness.build_upb_witness``).
    ``best_product_vector`` attains it: one read-only ``(d_k,)`` local vector per party.
    The seesaw stops once a sweep gains less than ``SEESAW_IMPROVEMENT_TOL``, and
    near a maximum the objective is flat to second order, so ``max_overlap`` is
    fixed to about 1e-12 but the vector only to about its square root, 1e-6.
    """

    max_overlap: float
    best_product_vector: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class UPB:
    """Ordered orthogonal product vectors with 1 <= m < D, one ``(m, d_k)`` stack per party.

    Row i of ``local_stacks[k]`` is member i's local vector for party k; any
    sequence of stacks is taken, an ``(n, m, d)`` array included.
    Construction keeps read-only copies of the stacks and reads ``local_dims``
    from their widths.  After the shapes and the member count it checks
    every row for unit norm within ``states.TRACE_TOL``, all parties at once,
    and names the lowest party's lowest failing member.  It then expands the
    members once into the columns of the read-only ``(D, m)`` matrix
    ``vectors`` and checks orthogonality with one Gram product ``V^H V``
    within ``PROJECTOR_TOL``, naming the first failing pair (i, j), i < j, in
    row order.  A NaN fails either check.  It then builds the read-only
    projectors ``member_sum_projector`` (``V V^H``, onto the members' span)
    and ``complement_projector`` (``I - V V^H``, onto the complement).
    """

    local_stacks: tuple[np.ndarray, ...]
    local_dims: tuple[int, ...] = field(init=False)
    vectors: np.ndarray = field(init=False, repr=False)
    member_sum_projector: np.ndarray = field(init=False, repr=False)
    complement_projector: np.ndarray = field(init=False, repr=False)

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
        # every party's row norms at once, the sums np.linalg.norm forms, over the stacks side by side
        # (party k's columns start at the sum of the earlier widths): column k of norms is party k's
        flat = np.concatenate(stacks, axis=1)
        starts = list(itertools.accumulate(dims[:-1], initial=0))
        norms = np.sqrt(np.add.reduceat((flat.conj() * flat).real, starts, axis=1))
        # written so that a NaN norm fails too; the first failure is the lowest party's lowest member
        ok = np.abs(norms - 1.0) <= TRACE_TOL
        if not ok.all():
            k, i = np.argwhere(~ok.T)[0]
            raise ValueError(f"member {i}: local vector {k} is not normalized")
        vecs = _read_only(np.ascontiguousarray(expand_locals(stacks).T))
        object.__setattr__(self, "vectors", vecs)
        gram = vecs.conj().T @ vecs
        # written so that a NaN overlap fails too; the first pair found has i < j
        ok = np.abs(gram) <= PROJECTOR_TOL
        ok.flat[::len(ok) + 1] = True
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(f"members {i} and {j} are not orthogonal: |<i|j>| = {abs(gram[i, j]):.3e}")
        member_sum = _read_only(vecs @ vecs.conj().T)
        object.__setattr__(self, "member_sum_projector", member_sum)
        object.__setattr__(self, "complement_projector", _read_only(np.eye(len(vecs)) - member_sum))

    @property
    def size(self) -> int:
        return self.vectors.shape[1]


def shifts_angles(angles: Sequence[float]) -> tuple[float, ...]:
    """``tuple(angles)``; ValueError unless there are three, each strictly inside (0, pi/2), and TypeError for a bool."""
    angles = tuple(angles)
    if len(angles) != 3:
        raise ValueError(f"the family takes three angles, one per party, got {len(angles)}")
    for name, val in zip("abc", angles):
        if isinstance(val, (bool, np.bool_)):
            raise TypeError(f"angle {name} must be a number, got the bool {val}")
        if not 0.0 < val < np.pi / 2:  # written so that a NaN angle fails too
            raise ValueError(f"angle {name}={val} is at or outside (0, pi/2); "
                             "the family degenerates there and the complement acquires product vectors")
    return angles


def shifts_family(angles: Sequence[float]) -> UPB:
    """The one-angle-per-party three-qubit family of angles ``(a, b, c)``; orthogonal by construction."""
    t = np.array(shifts_angles(angles), dtype=float)
    cos, sin = np.cos(t), np.sin(t)
    zero, one = (1.0, 0.0), (0.0, 1.0)
    (a, b, c), (a_, b_, c_) = zip(cos, sin), zip(sin, -cos)  # |A>, |B>, |C> and |A~>, |B~>, |C~>
    # the members |psi_1> .. |psi_4> of the module docstring, one local vector per party; UPB takes the party axis first
    members = [(zero, zero, zero), (one, b, c), (a, one, c_), (a_, b_, one)]
    return UPB(np.array(members, dtype=complex).transpose(1, 0, 2))


def upb_state(u: UPB) -> DensityMatrix:
    """Maximally mixed state on the orthogonal complement of the UPB."""
    # spectrum is exactly {0 x m, 1/(D-m) x (D-m)}, so no PSD re-check needed
    return DensityMatrix(u.complement_projector / (len(u.vectors) - u.size), u.local_dims, validate=False)


def partition_margin(u: UPB) -> float:
    """The partition criterion's margin sigma of a qubit UPB of m = n + 1 members; ValueError for any other set.

    sigma is the minimum over partitions of the members (one group per party)
    of the largest ``d_j``-th singular value of a group's local vectors, and
    the set is a UPB iff sigma > 0.  With n + 1 qubit members some party
    takes a pair in every partition, and a larger group only raises ``s_2``,
    so sigma is the least ``s_2`` of a pair ``[u v]`` of one party's vectors:
    ``s_2^2 = |det[u v]|^2 / (1 + |<u|v>|)``, ``1 - |<u|v>|`` without its cancellation.
    """
    if u.local_dims != (2,) * (u.size - 1):
        raise ValueError(f"the pair formula needs qubits and m = n + 1, got local dims {u.local_dims} and m = {u.size}")
    # every ordered pair (i, j) of one party's vectors, off the diagonal: swapping a pair negates det and
    # conjugates the overlap, both exactly, so each pair's s_2^2 appears twice with the same bits
    stacks = np.array(u.local_stacks)
    a, b = stacks[:, :, None], stacks[:, None, :]
    det = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    s2 = np.abs(det) ** 2 / (1 + np.abs(np.sum(a.conj() * b, axis=-1)))
    return float(np.sqrt(np.min(s2[:, ~np.eye(u.size, dtype=bool)])))


# sigma_0 = I, sigma_x, sigma_y, sigma_z halved; entry (2 * column + row, i) is sigma_i[row, column] / 2,
# the (i, row, column) stack as tensordot lays out its axes (2, 1)
_HALF_PAULI = _read_only((np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]) / 2)
                         .transpose(2, 1, 0).reshape(4, 4))


def _pauli_slices(p_tensor: np.ndarray) -> list[np.ndarray]:
    """Party k's slice of the real ``T[i_1..i_n] = tr(P sigma_i_1 x ... x sigma_i_n) / 2^n`` of a Hermitian n-qubit ``P``.

    ``p_tensor`` is ``P`` as a ``(2,) * 2n`` tensor (ket axes, then bra axes).  For
    Bloch vectors ``r_k`` and ``s_k = (1, r_k)``, ``<phi|P|phi>`` is ``T`` contracted
    with every ``s_k``; slice k is ``T`` with party k's axis last, ``(4^(n-1), 4)``,
    copied C-contiguous so that no update's ``np.dot`` copies it again.  Each
    contraction is ``np.tensordot``'s own transpose, reshape and ``np.dot`` by ``_HALF_PAULI``.
    """
    n = p_tensor.ndim // 2
    t = p_tensor
    for k in range(n):
        # party k's ket axis is first and its bra axis at n - k, paired with _HALF_PAULI's row; T's axes collect at the end
        rest = [j for j in range(1, t.ndim) if j != n - k]
        t = np.dot(t.transpose(rest + [0, n - k]).reshape(-1, 4), _HALF_PAULI).reshape([t.shape[j] for j in rest] + [4])
    slices = (t.real.transpose([j for j in range(n) if j != k] + [k]).reshape(-1, 4) for k in range(n))
    return [np.ascontiguousarray(s) for s in slices]


def _bloch_to_ket(s: np.ndarray) -> np.ndarray:
    """Unit kets of the ``(..., 4)`` rows ``s = (1, r)``, on the branch that stays away from ``1 + r_z = 0``."""
    x, y, z = s[..., 1], s[..., 2], s[..., 3]
    north = z >= 0
    kets = np.stack([np.where(north, 1 + z, x - 1j * y), np.where(north, x + 1j * y, 1 - z)], axis=-1)
    return kets / np.linalg.norm(kets, axis=-1, keepdims=True)


def _bloch_update(
    op: np.ndarray, w: np.ndarray, r: np.ndarray, out: np.ndarray,
    g: np.ndarray, norm: np.ndarray, g_0: np.ndarray, g_r: np.ndarray, col: np.ndarray,
) -> None:
    """Qubit party: the objective is ``g_0 + g . r`` with ``g = w op``, maximal at ``r = g / |g|``.

    ``g_0 + |g|`` and ``(1, g / |g|)`` are the top eigenpair of the 2x2 local
    operator ``sum_j g_j sigma_j`` in Bloch form, written in place into ``out``
    and ``r``, the Bloch part of the party's rows.  ``|g|^2`` is one
    ``np.vecdot`` of ``g``'s Bloch part with itself.  ``g`` and ``|g|`` go
    into the caller's buffers ``g`` and ``norm``, read through its views
    ``g_0 = g[:, 0]``, ``g_r = g[:, 1:]`` and ``col = norm[:, None]``.
    Where ``|g| = 0`` every ``r`` is a maximizer and the row is kept, as it is
    where ``|g|`` is NaN: the divide is masked on the rare update where some
    ``|g|`` is 0 or NaN, and plain otherwise.
    """
    np.dot(w, op, out=g)
    np.sqrt(np.vecdot(g_r, g_r, out=norm), out=norm)
    if norm[norm.argmin()] > 0.0:  # argmin stops at the first NaN
        np.divide(g_r, col, out=r)
    else:
        np.divide(g_r, col, out=r, where=col > 0.0)
    np.add(g_0, norm, out=out)


def _bloch_jump(
    op: np.ndarray, s: np.ndarray, s_prev: np.ndarray, objective: np.ndarray, gain: np.ndarray, prev_gain: np.ndarray,
) -> None:
    """Move each restart's ``(n, R, 4)`` Bloch rows ``s`` once along their last move, where that raises its objective.

    A restart whose last two gains give ``q = gain / prev_gain < JUMP_RATIO``
    converges linearly, its moves shrinking by ``lam = sqrt(q)`` a sweep, and
    steps by Aitken's ``lam / (1 - lam)``, the rest of that geometric series;
    any other, a NaN or infinite ``q`` included, by ``JUMP_FACTOR``.  The
    candidate ``s + step * (s - s_prev)``, built in ``s_prev``, has its Bloch
    parts renormalized (column 0 is 1 in both rows).  Its objective is the
    last party's slice ``op`` contracted with every party's candidate row,
    and a restart takes its candidate's rows and objective, in place, only
    where that objective is strictly higher than its own in ``objective``.
    A zero Bloch part or a negative ``q`` gives a NaN candidate, and a NaN
    objective, the candidate's or the restart's own, is never higher.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = gain / prev_gain
        lam = np.sqrt(q)
        step = np.where(q < JUMP_RATIO, lam / (1 - lam), JUMP_FACTOR)
        cand = np.subtract(s, s_prev, out=s_prev)
        cand *= step[:, None]
        cand += s
        r = cand[..., 1:]
        r /= np.sqrt(np.vecdot(r, r))[..., None]
    value = np.vecdot(np.dot(expand_locals(cand[:-1]), op), cand[-1])
    take = value > objective
    np.copyto(s, cand, where=take[:, None])
    np.copyto(objective, value, where=take)


def _eigh_update(op: np.ndarray, w: np.ndarray, state: np.ndarray, out: np.ndarray) -> None:
    """Any party: the restarts' top eigenpairs of ``<w| P |w>``, one LAPACK call, written in place into ``out`` and ``state``."""
    d = state.shape[1]
    x = np.dot(w, op).reshape(len(w), d * d, -1)
    vals, vecs = linalg.eigh_unchecked((x @ w.conj()[:, :, None]).reshape(-1, d, d))
    out[...] = vals[:, -1]
    state[...] = vecs[:, :, -1]


def _seed_list(seed: int | Sequence[int], restarts: int) -> list[int]:
    """The seed as a list of ints; TypeError or ValueError unless restarts is an int >= 1 and the seed ints >= 0, none a bool."""
    if linalg.as_index(restarts, "restarts") < 1:
        raise ValueError("need at least one restart")
    seeds = seed if isinstance(seed, (list, tuple)) else [seed]
    base = [linalg.as_index(s, "seed") for s in seeds]
    if any(s < 0 for s in base):
        raise ValueError(f"a seed must be nonnegative, got {min(base)}")
    return base


def _start_draws(seed: int | Sequence[int], restarts: int, width: int) -> np.ndarray:
    """Every restart's start draws, ``(restarts, width)`` normals: row r is restart r's.

    One generator per call draws them all, from the seed's first spawned
    child (``SeedSequence(seed).spawn(1)[0]``, built directly from its spawn
    key).  Row r is the r-th block of ``width`` normals of its stream, a
    function of ``(seed, r, width)`` alone, so fewer restarts draw the first
    rows of more.  It is the child and not the seed's own stream because a
    drawn hunt's sample s draws its subspace from ``default_rng([seed, s])``
    and hunts with seed ``[seed, s]``.  The errors are those of ``_seed_list``.
    """
    base = _seed_list(seed, restarts)
    return np.random.default_rng(np.random.SeedSequence(base, spawn_key=(0,))).standard_normal((restarts, width))


def _start_kets(seed: int | Sequence[int], restarts: int, dims: Sequence[int]) -> Sequence[np.ndarray]:
    """Every restart's unit start ket per party: party k's ``(restarts, d_k)`` kets are entry k.

    Row r of ``_start_draws(seed, restarts, 2 * sum(dims))`` holds restart
    r's: party j's ``d_j`` real parts, then its ``d_j`` imaginary parts, in
    party order.  When every local dim is equal the kets are one reshape of
    the draws, an ``(n, restarts, d)`` array; otherwise one slice per party.
    The errors are those of ``_seed_list``.
    """
    draws = _start_draws(seed, restarts, 2 * sum(dims))
    if len(set(dims)) == 1:
        # entry (k, r, 0, i) is the real part of party k's start ket in restart r, (k, r, 1, i) the imaginary
        parts = draws.reshape(restarts, len(dims), 2, dims[0]).transpose(1, 0, 2, 3)
        kets = parts[:, :, 0] + 1j * parts[:, :, 1]
        return kets / np.linalg.norm(kets, axis=2, keepdims=True)
    offsets = np.cumsum([0] + [2 * d for d in dims])
    kets = [draws[:, o:o + d] + 1j * draws[:, o + d:o + 2 * d] for o, d in zip(offsets, dims)]
    return [v / np.linalg.norm(v, axis=1, keepdims=True) for v in kets]


def _start_bloch(seed: int | Sequence[int], restarts: int, n: int) -> np.ndarray:
    """Every restart's start rows ``s = (1, r)`` for n qubits, an ``(n, restarts, 4)`` array: those of ``_start_kets``.

    Party k's draws in row r of ``_start_draws`` are ``_start_kets``' ket
    ``a`` before its normalization, and ``<a|sigma_i|a> / 2`` is ``a``'s outer
    product times ``_HALF_PAULI``: ``|a|^2 / 2`` for i = 0, so dividing by it
    gives ``s`` with column 0 exactly 1, and no ket is normalized.  The errors
    are those of ``_seed_list``.
    """
    # entry (k, r, 0, i) is the real part of party k's start ket in restart r, (k, r, 1, i) the imaginary
    parts = _start_draws(seed, restarts, 4 * n).reshape(restarts, n, 2, 2).transpose(1, 0, 2, 3)
    a = parts[:, :, 0] + 1j * parts[:, :, 1]
    # entry 2 * column + row of the flattened outer product is a_column conj(a_row), as _HALF_PAULI's rows pair
    q = np.dot((a[..., :, None] * a.conj()[..., None, :]).reshape(n, restarts, 4), _HALF_PAULI).real
    return q / q[..., :1]


def _seesaw(
    projector: np.ndarray,
    dims: Sequence[int],
    seed: int | Sequence[int],
    restarts: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run every restart in one block until a sweep in which none gains ``SEESAW_IMPROVEMENT_TOL``.

    ``projector`` is the D x D matrix, ``D = prod(dims)``, and must already be
    Hermitian: nothing here checks it again.  It is reshaped once into a
    ``dims + dims`` tensor (ket axes, then bra axes).  Party k's states form
    one array over the restarts, and a local update maximizes over party k
    with the product ``w`` of the other parties' states held fixed, writing
    party k's new states and maxima in place, into its state array and its
    row of the sweep's values:

    - every local dim 2: states are Bloch rows ``s_k = (1, r_k)``, and
      restart r starts from the Bloch vectors of its kets of ``_start_kets``,
      computed from the same draws (``_start_bloch``); an update is one real
      ``np.dot`` by party k's Pauli slice (``_pauli_slices``) and the closed
      form of ``_bloch_update``, and the rows become kets once, at the end;
    - otherwise: restart r starts from its kets of ``_start_kets``, party k's
      operator is reshaped once into an ``(A_k, d_k * d_k * A_k)`` matrix,
      ``A_k = D / d_k``, and an update is two matmuls and one stacked
      ``linalg.eigh_unchecked`` (``_eigh_update``).

    One loop serves both, and every sweep updates every restart.  Each
    party's ``w`` is the product of the other parties' states in order,
    multiplied into a buffer of its own through views of the states; those
    buffers, the Bloch update's, the values and the drops and gains are
    allocated once per call, so a sweep allocates and copies no state.  The
    objective's monotonicity is checked once per sweep, over every party's
    update; a drop raises ConvergenceError naming the first party with one
    and its restart.  The call stops after the first sweep whose largest gain
    is below ``SEESAW_IMPROVEMENT_TOL`` (``np.fmax``, so a NaN restart neither
    stops the call nor prolongs it; every restart NaN stops it), or after
    ``SEESAW_MAX_SWEEPS``.

    A qubit call still running after every ``JUMP_SWEEP``-th sweep jumps
    from the rows the restarts had at the start of that sweep, each restart
    by a step read from its last two gains (``_bloch_jump``): Aitken's where
    it converges linearly, ``JUMP_FACTOR`` where it drifts along a slow
    ridge.  A restart takes its jump only where the objective is strictly
    higher there, and the next sweep starts from that objective, so every
    restart stays monotone and the drop guard, the stop rule and the tie
    rule of ``seesaw_max_product_overlap`` read it as they read a sweep.

    Restart r's start is a function of ``(seed, r)`` alone.  Its jumps are a
    function of its own rows and last two gains, and of whether its call
    still runs at each multiple of ``JUMP_SWEEP``, and its end depends on
    how many sweeps the call runs: with more restarts beside it, it runs at
    least as many monotone sweeps, so its objective can only rise, up to the
    last-digit rounding of a converged restart.

    Returns the final objective of every restart and the per-party local
    kets.  Raises ValueError for fewer than two parties, where there is
    nothing to alternate over, and the errors of ``_seed_list``.
    """
    n = len(dims)
    if n < 2:
        raise ValueError(f"the seesaw needs at least two parties, got local dims {tuple(dims)}")
    p_tensor = projector.reshape(tuple(dims) * 2)
    others = [[j for j in range(n) if j != k] for k in range(n)]  # w's parties, in order
    bloch = all(d == 2 for d in dims)
    if bloch:
        states = _start_bloch(seed, restarts, n)
        ops = _pauli_slices(p_tensor)
        g, norm = np.empty((restarts, 4)), np.empty(restarts)
        # the Bloch update writes party k's Bloch part, and the parties share its buffers and their views
        update, targets = _bloch_update, [s[:, 1:] for s in states]
        scratch = (g, norm, g[:, 0], g[:, 1:], norm[:, None])
    else:
        states = _start_kets(seed, restarts, dims)
        # ops[k][y, a, b, x] = <x, a| P |y, b>, with x, y the other parties' indices
        # (party k's ket and bra axes in the middle), so that for their product
        # vector w, ((w @ ops[k]) @ conj(w))[a, b] = <w, a| P |w, b>
        ops = [p_tensor.transpose([n + j for j in o] + [k, n + k] + o).reshape(math.prod(dims) // dims[k], -1)
               for k, o in enumerate(others)]
        update, targets, scratch = _eigh_update, states, ()
    # row 0 of values is the objective at the start of a sweep, row k + 1 the maximum of party k's update in it
    values = np.full((n + 1, restarts), -np.inf)
    start, objective, head, tail = values[0], values[n], values[:-1], values[1:]
    # the gain before the first sweep is infinite, as the first sweep's is
    drop, gain = np.empty((n, restarts)), np.full(restarts, np.inf)
    # party k's products (a, b, into), each np.multiply(a, b, out=into), then its update's arguments
    parties = []
    for k, (first, *rest) in enumerate(others):
        w, products = states[first], []
        for j in rest:
            into = np.empty((restarts, w.shape[1], states[j].shape[1]), w.dtype)
            products.append((w[:, :, None], states[j][:, None, :], into))
            w = into.reshape(restarts, -1)
        parties.append((products, (ops[k], w, targets[k], values[k + 1], *scratch)))
    for sweep in range(SEESAW_MAX_SWEEPS):
        start[...] = objective
        jump = bloch and (sweep + 1) % JUMP_SWEEP == 0
        if jump:
            before, prev_gain = states.copy(), gain.copy()
        for products, args in parties:
            for a, b, into in products:
                np.multiply(a, b, out=into)
            update(*args)
        # each local update is an exact maximization, so the objective is monotone (fmax and nanargmax skip a NaN drop)
        np.subtract(head, tail, out=drop)
        if np.fmax.reduce(drop, axis=None) > SEESAW_IMPROVEMENT_TOL:
            k = int(np.argmax((drop > SEESAW_IMPROVEMENT_TOL).any(axis=1)))
            i = int(np.nanargmax(drop[k]))
            raise linalg.ConvergenceError(
                f"seesaw objective decreased at restart {i}, sweep {sweep}, "
                f"party {k}: drop {drop[k, i]:.3e} exceeds {SEESAW_IMPROVEMENT_TOL:.3e}"
            )
        # written so that an all-NaN gain stops the call too: fmax skips a NaN unless every gain is one
        if not np.fmax.reduce(np.subtract(objective, start, out=gain)) >= SEESAW_IMPROVEMENT_TOL:
            break
        if jump:
            _bloch_jump(ops[-1], states, before, objective, gain, prev_gain)
    return objective, list(_bloch_to_ket(states) if bloch else states)


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

    Restart r starts from row r of ``_start_draws``, so runs are reproducible
    and the starts of fewer restarts are the first of more.  The restarts of
    one call sweep together until a sweep in which none gains
    ``SEESAW_IMPROVEMENT_TOL`` (``_seesaw``), so restarts that converge into
    one basin end in its last digits (up to 4.9e-13 apart on the certify
    configs) and a strict argmax would pick among them by rounding.  So the
    lowest restart whose objective is within ``linalg.DEFAULT_TOL`` of the
    best wins (no restart of the benchmark's certify lists ends between
    1e-12 and 1e-9 below it), and ``max_overlap`` is that restart's own
    objective, which ``best_product_vector`` attains: read-only copies of
    its unit kets, as the seesaw returns them.  A restart that ended at NaN
    wins over every other, so a call with one reports a NaN overlap, on
    which no witness is built.
    """
    objective, locs = _seesaw(*_checked_projector(projector, local_dims), seed, restarts)
    r = int(np.argmax((objective >= np.max(objective) - linalg.DEFAULT_TOL) | np.isnan(objective)))
    return UnextendibilityCertificate(
        max_overlap=float(min(max(objective[r], 0.0), 1.0)),
        best_product_vector=tuple(_read_only(v[r].copy()) for v in locs),
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
        """The hits one at a time, each a product vector: row r of every stack.

        Kept for the benchmark tracer's ``upb.hunt.hits`` counter; it goes when that counter reads ``distinct_count``.
        """
        return tuple(zip(*self.local_stacks))


# The three-qubit solve of ``_qubit_triple_points``: the 7th roots of unity
# the degree-6 product condition is sampled at, the inverse DFT that turns the
# seven samples into its coefficients (lowest degree first), and in row m the
# columns of a 3 x 4 matrix that remain when column m is removed.
_UNIT_ROOTS_7 = _read_only(np.cos(2 * np.pi * np.arange(7) / 7) + 1j * np.sin(2 * np.pi * np.arange(7) / 7))
# entry (n, j) is w_j^-n / 7 for the root w_j
_INVERSE_DFT_7 = _read_only(_UNIT_ROOTS_7.conj()[np.outer(np.arange(7), np.arange(7)) % 7] / 7)
_MINOR_COLUMNS = _read_only(np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]))


def _segre_mix(k: int) -> np.ndarray:
    """The orthonormal ``(8 - k, 3)`` columns spanning a fixed generic complex mix.

    Column j of the mix holds the weights of constraint j on the ``8 - k``
    complement vectors: the first ``8 - k`` of seven drawn from a seed of its
    own, so that no config seed reaches them.
    """
    draws = np.random.default_rng(0x5E67E).standard_normal((2, 3, 7))
    mix = (draws[0] + 1j * draws[1])[:, :8 - k]
    return np.linalg.svd(mix.T, full_matrices=False).U


def _null_vectors(n: np.ndarray) -> np.ndarray:
    """The signed 3 x 3 minors of a stack of 3 x 4 matrices, a null vector of each.

    ``z_m = (-1)^m det(n without column m)``, so ``n @ z = 0`` by cofactor expansion.
    """
    # entry (m, j, i) is n[i, _MINOR_COLUMNS[m, j]]: minor m transposed, which has its det
    return np.linalg.det(n.swapaxes(-1, -2)[..., _MINOR_COLUMNS, :]) * np.array([1, -1, 1, -1])


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Indices of the unit rows kept in order: a row goes when its fidelity with a kept one exceeds 1 - tol."""
    # one comparison over the whole matrix, as Python bools (a NaN fidelity is never close)
    close = (np.abs(rows.conj() @ rows.T) ** 2 > 1.0 - DISTINCT_FIDELITY_TOL).tolist()
    kept: list[int] = []
    for r, row in enumerate(close):
        if not any(row[j] for j in kept):
            kept.append(r)
    return np.array(kept, dtype=int)


def _factor(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``z = b c^T`` for a stack of rank-one 2 x 2 ``z``: b the top eigenvector of ``z z^dag``, c the unit ``b^dag z``."""
    b = linalg.eigh_unchecked(z @ z.conj().transpose(0, 2, 1)).eigenvectors[:, :, 1]
    c = np.einsum("rp,rpq->rq", b.conj(), z)
    return b, c / np.linalg.norm(c, axis=1, keepdims=True)


def _in_span(phi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Which unit rows ``phi`` pass the hunt's one rule: ``||U^dag phi|| < HUNT_RESIDUAL_TOL`` for U = ``basis``.

    For the orthonormal columns U of the range's complement, ``||U^dag phi||`` is the residual ``||(I - P) phi||``.
    """
    return np.linalg.norm(phi @ basis.conj(), axis=1) < HUNT_RESIDUAL_TOL


def _polish(complement: np.ndarray, locs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``POLISH_STEPS`` Gauss-Newton steps on ``f = U^dag (x_1 (x) ... (x) x_n)``, every row of the kets at once.

    ``complement`` is U, the orthonormal ``(D, c)`` basis of the complement, so
    ``||f||`` is a unit product vector's residual ``||(I - P) phi||``, and
    ``locs`` holds the per-party ``(R, d_k)`` unit kets.  f is linear in each
    ket: its Jacobian block ``J_k`` contracts U^dag with every other party's
    ket, and ``J_k x_k = f``.  So a step along ``x_k`` only rescales phi, and a
    minimum-norm step that may take it shrinks every ket instead of moving it.
    Party k's step is kept in ``x_k^perp`` by its block ``J_k (I - x_k x_k^dag)
    = J_k - f x_k^dag``, whose minimum-norm solutions lie there; one stacked
    ``np.linalg.pinv`` of the ``(R, c, sum d_k)`` blocks solves every row's
    step, and each moved ket, at least unit length as its step is orthogonal to it, is normalized again.
    Returns the new kets; ``subspace_product_hunt`` decides which are hits.
    """
    dims = [v.shape[1] for v in locs]
    u = complement.conj().T.reshape(-1, *dims)
    # party k's <u_j| with its own axis last: entry (j, o, i), o the index of the other parties' product
    blocks = [np.moveaxis(u, k + 1, -1).reshape(len(u), -1, d) for k, d in enumerate(dims)]
    splits, locs = list(itertools.accumulate(dims[:-1])), list(locs)
    for _ in range(POLISH_STEPS):
        jac = [np.einsum("joi,ro->rji", block, expand_locals(locs[:k] + locs[k + 1:]))
               for k, block in enumerate(blocks)]
        f = np.einsum("rji,ri->rj", jac[0], locs[0])
        restricted = np.concatenate([j - f[:, :, None] * x.conj()[:, None, :] for j, x in zip(jac, locs)], axis=2)
        steps = np.split((np.linalg.pinv(restricted) @ f[:, :, None])[:, :, 0], splits, axis=1)
        locs = [x - s for x, s in zip(locs, steps)]
        locs = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in locs]
    return locs


def _qubit_triple_points(complement: np.ndarray, k: int) -> list[np.ndarray] | None:
    """The six candidate product vectors of a three-qubit subspace of rank ``k <= 5``, as per-party ``(6, 2)`` kets.

    A product vector lies in the span iff it is orthogonal to the ``8 - k``
    orthonormal columns of ``complement``.  Three constraint vectors ``u_j``
    are kept, the same way for every k <= 5: the complement times the
    orthonormal columns of a fixed generic mix (``_segre_mix``), so the
    ``u_j`` are orthonormal too.  They cut out a superspace of dimension 5,
    which for k = 5 is the span itself.  With ``a = (1, x)`` the constraints
    ``<u_j|a, b, c> = 0`` are ``N(x) z = 0`` for ``z = b (x) c`` and a 3 x 4
    matrix ``N(x)`` linear in x.  Its null vector is its signed 3 x 3 minors,
    cubic in x, and the product condition ``z_0 z_3 - z_1 z_2 = 0`` is a
    degree-6 polynomial, whose six roots give the superspace's six product
    vectors (the degree of the Segre variety), the span's among them.

    Returns None, for the seesaw to settle, unless six distinct points
    (``_distinct``) lie in the superspace by the hunt's rule (``_in_span``): a
    leading coefficient that is exactly zero loses its root at infinity, a
    root where ``N`` loses rank exactly factors to NaN, and a multiple root
    or a continuum of product vectors gives fewer distinct points.  No other
    size is tested against a tolerance, so a polynomial that vanishes only to
    rounding (a span holding a product vector at every ``a``) gives six of a
    continuum's points, each in the span.
    """
    constraints = complement @ _segre_mix(k)
    # N(x) = w[:, 0] + x w[:, 1], row j of w[:, i] pairing with a_i
    w = constraints.conj().T.reshape(3, 2, 4)
    z = _null_vectors(w[:, 0] + _UNIT_ROOTS_7[:, None, None] * w[:, 1])
    coeffs = _INVERSE_DFT_7 @ (z[:, 0] * z[:, 3] - z[:, 1] * z[:, 2])
    # np.roots drops a leading coefficient that is exactly zero, and with it the root at infinity
    x = np.roots(coeffs[::-1])
    a = np.column_stack([np.ones_like(x), x]) / np.sqrt(1 + np.abs(x) ** 2)[:, None]
    n = a[:, 0, None, None] * w[:, 0] + a[:, 1, None, None] * w[:, 1]
    # a zero z, where N loses rank at a root, factors to NaN, which lies outside the superspace
    b, c = _factor(_null_vectors(n).reshape(-1, 2, 2))
    phi = expand_locals((a, b, c))
    if not _in_span(phi, constraints).all() or len(_distinct(phi)) < 6:
        return None
    return [a, b, c]


def _qubit_triple_restarts(
    complement: np.ndarray, k: int, seed: int | Sequence[int], restarts: int,
) -> list[np.ndarray]:
    """One candidate product vector in a three-qubit subspace of rank ``6 <= k <= 8`` per restart.

    ``complement`` holds the ``8 - k`` orthonormal complement vectors ``u_j``,
    as ``_qubit_triple_points`` takes them.  Restart r draws the seesaw's
    start kets ``(a, b, c)``, row r of ``_start_kets(seed, restarts, (2, 2,
    2))``'s three parties, keeps the first ``k - 5`` of them and solves for
    the rest in closed form:

    - k = 8: the start is the candidate;
    - k = 7: ``<u|a, b, c> = n . c`` for ``n = <u|a, b, .>``, zero at ``c ~ (n_1, -n_0)``;
    - k = 6: the constraints are ``N z = 0`` for ``z = b (x) c`` and a 2 x 4
      ``N``, whose null space has an orthonormal basis ``z1, z2``.  The product
      condition ``det(s z1 + t z2) = 0`` is a quadratic in ``(s, t)``; of its
      two roots the unit z with the larger ``|<z|b (x) c>|`` is kept (the
      first on a tie) and factored as ``b c^T`` (``_factor``).

    Every restart is solved at once, and the per-party ``(R, 2)`` kets are
    returned for ``subspace_product_hunt``'s residual rule and polish.  Only
    what would divide by zero is tested, exactly: a restart whose ``n``
    vanishes, or one of whose roots is zero (a double root, or a vanishing
    quadratic), keeps its start kets.
    """
    a, b, c = _start_kets(seed, restarts, (2, 2, 2))
    # entry (j, i, p, q) is <u_j|i, p, q>
    u = complement.conj().T.reshape(8 - k, 2, 2, 2)
    if k == 7:
        n = np.einsum("ipq,ri,rp->rq", u[0], a, b)
        solved, size = n[:, ::-1] * np.array([1, -1]), np.linalg.norm(n, axis=1, keepdims=True)
        if (size == 0).any():  # a vanishing n: every c solves, and the start's is kept
            solved, size = np.where(size == 0, c, solved), np.where(size == 0, 1.0, size)
        c = solved / size
    elif k == 6:
        vh = np.linalg.svd(np.einsum("jipq,ri->rjpq", u, a).reshape(restarts, 2, 4)).Vh
        # the conjugated rows of vh past the second are orthonormal null vectors z1, z2 of N, its null space at rank 2
        zs = vh[:, 2:].conj().reshape(restarts, 2, 2, 2)
        # det(s z1 + t z2) = qa s^2 + qb s t + qc t^2, from the mixed determinants d[m, n] = zm_00 zn_11 - zm_01 zn_10
        d = zs[:, :, None, 0, 0] * zs[:, None, :, 1, 1] - zs[:, :, None, 0, 1] * zs[:, None, :, 1, 0]
        qa, qb, qc = d[:, 0, 0], d[:, 0, 1] + d[:, 1, 0], d[:, 1, 1]
        # q = -(qb + sqrt(disc)) / 2 on the branch that avoids cancellation; the roots (s : t) are (q : qa) and (qc : q)
        root = np.sqrt(qb * qb - 4 * qa * qc)
        q = -(qb + np.where((qb.conj() * root).real < 0, -root, root)) / 2
        z = np.einsum("nmr,rmpq->nrpq", np.array([[q, qa], [qc, q]]), zs)
        size = np.linalg.norm(z, axis=(2, 3), keepdims=True)
        if (size == 0).any():  # the start's unit b (x) c stands in for a zero root, and is kept: |<z|b (x) c>| = 1
            z, size = np.where(size == 0, b[:, :, None] * c[:, None, :], z), np.where(size == 0, 1.0, size)
        z = z / size
        near = np.abs(np.einsum("nrpq,rp,rq->nr", z.conj(), b, c))
        b, c = _factor(np.where((near[0] >= near[1])[:, None, None], z[0], z[1]))
    return [a, b, c]


def subspace_product_hunt(
    projector: np.ndarray,
    local_dims: Sequence[int],
    restarts: int = DEFAULT_RESTARTS,
    seed: int | Sequence[int] = 0,
) -> HuntResult:
    """Hunt product vectors in the range of an orthogonal projector.

    The input contract is ``seesaw_max_product_overlap``'s: a Hermitian,
    idempotent ``projector`` of dimension ``prod(local_dims)``; its rank k, read
    from the trace, must be at least 1.  One eigensolve of the projector
    gives the complement's orthonormal basis, which every path reads.  Three
    paths return candidates as per-party kets, and only this function
    decides which are hits, by one rule: the residual ``||(I - P) phi||`` is
    below ``HUNT_RESIDUAL_TOL`` (``_in_span``).  The paths:

    - three qubits and k <= 5: one degree-6 polynomial solve
      (``_qubit_triple_points``), whose six points hold every product vector
      in the span; those outside it are dropped and never polished.  The
      count is exact, unless the span holds a continuum that the solve sees
      only to rounding, and ``restarts`` and ``seed`` are checked but play no
      part.  Where the solve is degenerate (a root at infinity, a
      rank-deficient constraint matrix, a multiple root or a continuum of
      product vectors) the seesaw below runs, with the same seed and restarts;
    - three qubits and k >= 6: one candidate per restart
      (``_qubit_triple_restarts``), through restart r's seesaw start kets
      (``_start_kets``), so ``restarts`` bounds how many points of the
      continuum are drawn.  This path never reaches the seesaw;
    - otherwise a multi-start seesaw, each restart's stopped kets a
      candidate; its objective decides nothing.

    On the last two paths the candidates that fail the rule are polished
    (``_polish``) and checked again, and those that still fail are dropped,
    so the count is at most ``restarts``.  The seesaw's count is a lower
    bound: it misses product vectors in basins no restart enters.

    A UPB's complement goes to ``upb_complement_hunt`` first, which proves it
    empty where the partition margin allows and runs these paths elsewhere.

    The kets are expanded once (the polished rows again, in place).  The hits
    are kept in order unless their fidelity with a kept one exceeds
    ``1 - DISTINCT_FIDELITY_TOL`` (``_distinct``); the kept hits' overlaps
    are clamped into [0, 1], as the certificate's maximum is, and their rank
    is the linear-independence rank of their Gram spectrum at the default
    tolerance.
    """
    p, dims = _checked_projector(projector, local_dims)
    _seed_list(seed, restarts)  # every path rejects what the seesaw rejects, the k <= 5 solve too, which reads neither
    k = round(float(np.trace(p).real))
    if k == 0:
        raise ValueError("the projector's range is empty")
    # p's eigenvalues are 0 (D - k times) and then 1
    complement = linalg.eigh_unchecked(p).eigenvectors[:, :len(p) - k]
    locs = _qubit_triple_points(complement, k) if dims == (2, 2, 2) and k <= 5 else None
    exact = locs is not None
    if dims == (2, 2, 2) and k >= 6:
        locs = _qubit_triple_restarts(complement, k, seed, restarts)
    elif not exact:
        locs = _seesaw(p, dims, seed, restarts)[1]
    full = expand_locals(locs)
    hit = _in_span(full, complement)
    if not hit.all():
        if not exact:
            miss = ~hit
            polished = _polish(complement, [v[miss] for v in locs])
            full[miss] = expand_locals(polished)
            hit[miss] = _in_span(full[miss], complement)
            for v, w in zip(locs, polished):
                v[miss] = w
        locs, full = [v[hit] for v in locs], full[hit]
    kept = _distinct(full)
    hits = full[kept]
    overlaps = np.einsum("ri,ij,rj->r", hits.conj(), p, hits).real
    return HuntResult(
        local_stacks=tuple(_read_only(v[kept]) for v in locs),
        overlaps=tuple(float(x) for x in np.clip(overlaps, 0.0, 1.0)),
        rank=linalg.numerical_rank(hits.conj() @ hits.T),
    )


def upb_complement_hunt(u: UPB, restarts: int = DEFAULT_RESTARTS, seed: int | Sequence[int] = 0) -> HuntResult:
    """``subspace_product_hunt`` on ``u.complement_projector``, answered by proof where the partition margin allows.

    A product vector in the complement is orthogonal to every member, so the
    set would extend and its margin would be 0.  So a qubit set of n + 1
    members whose ``partition_margin`` exceeds ``linalg.DEFAULT_TOL`` has no
    hit, and the empty result returns as the exact solve returns it; any
    other set is hunted.  Seed and restarts are checked first, as every hunt
    path checks them.
    """
    _seed_list(seed, restarts)
    if u.local_dims == (2,) * (u.size - 1) and partition_margin(u) > linalg.DEFAULT_TOL:
        return HuntResult(tuple(_read_only(np.zeros((0, d), complex)) for d in u.local_dims), (), 0)
    return subspace_product_hunt(u.complement_projector, u.local_dims, restarts, seed)

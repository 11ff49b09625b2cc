import dataclasses
import importlib
import itertools
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import upbkit
from upbkit import linalg as la
from upbkit import upb
from upbkit import (
    UPB,
    CertificationError,
    build_upb_witness,
    certify_unextendible,
    is_ppt_all_cuts,
    mixing_scan,
    partition_margin,
    seesaw_max_product_overlap,
    shifts_family,
    subspace_product_hunt,
    upb_complement_hunt,
    upb_state,
)
from upbkit.cli import parse_config, run_command
from upbkit.linalg import ConvergenceError
from upbkit.states import expand_locals, product_projector, random_product_vector
from upbkit.upb import _seesaw

from conftest import count_calls, kernel_vectors, lower_top_eigenvalue

# Regression constant: best product overlap with the complement of the
# pi/4 family, recorded from 256-restart runs (stable to ~1e-14 across seeds).
PI4_MAX_OVERLAP = 0.9185586535436877


def random_params(rng):
    lo, hi = 0.02, np.pi / 2 - 0.02
    return tuple(rng.uniform(lo, hi, size=3))


def degenerate_family_members():
    """The a -> 0 limit of the family, built by hand (the constructor rejects it), one stack per party.

    At a = 0 the first pair collapses to |0>, -|1> and the product vector
    |0>|0>|1> becomes orthogonal to all four members, so the set is extendible.
    """
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    b = np.array([np.cos(0.7), np.sin(0.7)], dtype=complex)
    bbar = np.array([np.sin(0.7), -np.cos(0.7)], dtype=complex)
    c = np.array([np.cos(1.1), np.sin(1.1)], dtype=complex)
    cbar = np.array([np.sin(1.1), -np.cos(1.1)], dtype=complex)
    members = [(e0, e0, e0), (e1, b, c), (e0, e1, cbar), (-e1, bbar, e1)]
    return tuple(np.array(stack) for stack in zip(*members))


def random_projector(dims, rank, seed):
    """Orthogonal projector onto a random rank-``rank`` subspace of the composite space."""
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def local_operator(proj, dims, vecs, k):
    """Party k's operator <w| P |w>, with w the product of the other parties' ``vecs``."""
    n = len(dims)
    kets, bras = "abcdefgh"[:n], "ABCDEFGH"[:n]
    specs, operands = [kets + bras], [proj.reshape(dims + dims)]
    for j in range(n):
        if j != k:
            specs += [kets[j], bras[j]]
            operands += [vecs[j].conj(), vecs[j]]
    return np.einsum(",".join(specs) + f"->{kets[k]}{bras[k]}", *operands)


def count_local_updates(monkeypatch) -> list:
    """Record every seesaw local update, Bloch or eigensolver, as one list entry."""
    calls = []
    for name in ("_bloch_update", "_eigh_update"):
        def counted(*args, real=getattr(upb, name)):
            calls.append(None)
            real(*args)
        monkeypatch.setattr(upb, name, counted)
    return calls


def tensordot_pauli_slices(p_tensor):
    """Party k's ``(4^(n-1), 4)`` slice of the real Pauli tensor, contracted by ``np.tensordot`` one party at a time."""
    # sigma_0 = I, sigma_x, sigma_y, sigma_z, stacked as pauli[i, row, column]
    pauli = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    n = p_tensor.ndim // 2
    t = p_tensor
    for k in range(n):
        t = np.tensordot(t, pauli / 2, axes=([0, n - k], [2, 1]))
    return [np.moveaxis(t.real, k, -1).reshape(-1, 4) for k in range(n)]


def start_draws(seed, restarts, width):
    """Every restart's start draws, row r restart r's: blocks of one stream, the seed's first spawned child."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    child = np.random.SeedSequence(base).spawn(1)[0]
    return np.random.default_rng(child).standard_normal((restarts, width))


def start_kets(seed, restarts, dims=(2, 2, 2)):
    """Entry k is party k's ``(restarts, d_k)`` unit start kets: its slice of ``start_draws``, real then imaginary."""
    draws = start_draws(seed, restarts, 2 * sum(dims))
    offsets = np.cumsum([0, *(2 * d for d in dims)])
    kets = [draws[:, o:o + d] + 1j * draws[:, o + d:o + 2 * d] for o, d in zip(offsets, dims)]
    return [v / np.linalg.norm(v, axis=1, keepdims=True) for v in kets]


def reference_bloch_update(op, w, prev):
    """The closed-form qubit update on fresh arrays: the maxima ``g_0 + |g|`` and the rows ``(1, g / |g|)``."""
    g = np.dot(w, op)
    norm = np.sqrt(np.dot(g * g, np.array([0.0, 1.0, 1.0, 1.0])))
    s = prev.copy()
    np.divide(g[:, 1:], norm[:, None], out=s[:, 1:], where=norm[:, None] > 0)
    return g[:, 0] + norm, s


def reference_eigh_update(op, w, prev):
    """Top eigenpair of each restart's local operator ``<w| P |w>``, the vectors copied C-contiguous."""
    d = prev.shape[1]
    x = np.dot(w, op).reshape(len(w), d * d, -1)
    vals, vecs = la.eigh_unchecked((x @ w.conj()[:, :, None]).reshape(-1, d, d))
    return vals[:, -1], np.ascontiguousarray(vecs[:, :, -1])


def reference_seesaw(proj, dims, seed, restarts):
    """The seesaw as one update at a time, the reference ``_seesaw`` must equal bit for bit.

    Restart r draws row r of ``start_draws``, each party converts to and
    from Bloch rows on its own, the objective is checked after every local
    update, and every restart sweeps until a sweep in which none gains the
    tolerance (a NaN gain counts for none).  The Pauli slices, the
    conversions and the updates are this module's own.
    """
    n = len(dims)
    p_tensor = proj.reshape(tuple(dims) * 2)
    draws = start_draws(seed, restarts, 2 * sum(dims))
    offsets = np.cumsum([0] + [2 * d for d in dims])
    locs = []
    for k, d in enumerate(dims):
        v = draws[:, offsets[k]:offsets[k] + d] + 1j * draws[:, offsets[k] + d:offsets[k + 1]]
        locs.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    bloch = all(d == 2 for d in dims)
    if bloch:
        ops = tensordot_pauli_slices(p_tensor)
        for k, v in enumerate(locs):
            c = 2 * v[:, 0].conj() * v[:, 1]
            z = np.abs(v[:, 0]) ** 2 - np.abs(v[:, 1]) ** 2
            locs[k] = np.column_stack([np.ones(len(v)), c.real, c.imag, z])
        update = reference_bloch_update
    else:
        ops = []
        for k in range(n):
            others = [j for j in range(n) if j != k]
            axes = [n + j for j in others] + [k, n + k] + others
            ops.append(p_tensor.transpose(axes).reshape(int(np.prod(dims)) // dims[k], -1))
        update = reference_eigh_update
    objective = np.full(restarts, -np.inf)
    for _ in range(upb.SEESAW_MAX_SWEEPS):
        value = objective
        for k in range(n):
            w, *rest = locs[:k] + locs[k + 1:]
            for v in rest:
                w = (w[:, :, None] * v[:, None, :]).reshape(restarts, -1)
            vals, locs[k] = update(ops[k], w, locs[k])
            assert not (value - vals > upb.SEESAW_IMPROVEMENT_TOL).any()
            value = vals
        gains = [g for g in value - objective if not np.isnan(g)]
        objective = value
        if not any(g >= upb.SEESAW_IMPROVEMENT_TOL for g in gains):
            break
    if bloch:
        for k, s in enumerate(locs):
            x, y, z = s[:, 1], s[:, 2], s[:, 3]
            north = z >= 0
            kets = np.column_stack([np.where(north, 1 + z, x - 1j * y), np.where(north, x + 1j * y, 1 - z)])
            locs[k] = kets / np.linalg.norm(kets, axis=1, keepdims=True)
    return objective, locs


def tiles_upb():
    """Two-qutrit five-member fixture (the classic tiling construction)."""
    def q(i):
        v = np.zeros(3, dtype=complex)
        v[i] = 1.0
        return v

    s2 = np.sqrt(2.0)
    s3 = np.sqrt(3.0)
    members = [
        (q(0), (q(0) - q(1)) / s2),
        (q(2), (q(1) - q(2)) / s2),
        ((q(0) - q(1)) / s2, q(2)),
        ((q(1) - q(2)) / s2, q(0)),
        ((q(0) + q(1) + q(2)) / s3, (q(0) + q(1) + q(2)) / s3),
    ]
    return UPB(tuple(np.array(stack) for stack in zip(*members)))


class TestShiftsFamily:
    def test_pairwise_orthogonality(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            u = shifts_family(random_params(rng))
            full = list(expand_locals(u.local_stacks))
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(np.vdot(full[i], full[j])) < 1e-12

    def test_pi4_members_include_one_plus_plus(self, pi4_upb):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        target = expand_locals((np.array([0.0, 1.0]), plus, plus))
        overlaps = [abs(np.vdot(v, target)) for v in pi4_upb.vectors.T]
        assert max(overlaps) > 1 - 1e-12

    def test_boundary_angles_rejected(self):
        for angles in ((0.0, 0.7, 1.1), (0.3, np.pi / 2, 1.1), (np.nan, 0.7, 1.1), (0.3, np.inf, 1.1),
                       (0.3, 0.7, -np.inf)):
            with pytest.raises(ValueError, match="degenerates"):
                shifts_family(angles)

    def test_angle_count_rejected(self):
        for angles in ((0.3, 0.7), (0.3, 0.7, 1.1, 0.5)):
            with pytest.raises(ValueError, match="three angles"):
                shifts_family(angles)

    def test_any_sequence_of_angles_builds_the_same_stacks(self):
        # the cli passes a list of floats, the tests tuples of numpy floats; the angles are not converted
        angles = [0.3, 0.7, 1.1]
        built = [shifts_family(a).local_stacks for a in (angles, np.array(angles), tuple(angles))]
        for stacks in built[1:]:
            for s, t in zip(stacks, built[0], strict=True):
                assert s.tobytes() == t.tobytes()

    def test_members_are_the_documented_formula(self):
        # party k's stack, row i = member i: |psi_1..4> = |0>|0>|0>, |1>|B>|C>, |A>|1>|C~>, |A~>|B~>|1>
        # with |T> = cos t|0> + sin t|1> and |T~> = sin t|0> - cos t|1>, exactly as the upb docstring writes them
        zero, one = [1.0, 0.0], [0.0, 1.0]
        for angles in ((0.3, 0.7, 1.1), (1.2, 0.1, 0.9)):
            cos, sin = np.cos(np.array(angles)), np.sin(np.array(angles))
            ket = [[cos[k], sin[k]] for k in range(3)]
            tilde = [[sin[k], -cos[k]] for k in range(3)]
            expected = [[zero, one, ket[0], tilde[0]], [zero, ket[1], one, tilde[1]], [zero, ket[2], tilde[2], one]]
            for stack, rows in zip(shifts_family(angles).local_stacks, expected, strict=True):
                np.testing.assert_array_equal(stack, np.array(rows, dtype=complex))

    def test_upb_type_rejects_nonorthogonal(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        with pytest.raises(ValueError, match="not orthogonal"):
            UPB((np.array([e0, plus]), np.array([e0, plus])))

    def test_upb_type_requires_incomplete_set(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="incomplete"):
            UPB((np.array([e0, e1]),))

    def test_upb_type_requires_a_member(self):
        # with no member the kernel compression is 0 x 0, so mixing_scan has no lam_min to read
        with pytest.raises(ValueError, match="at least one member"):
            UPB((np.zeros((0, 2)),) * 3)

    def test_upb_type_needs_one_2d_stack_per_party(self):
        # a stack of matrices in place of a stack of vectors is not 2-D (no stack at
        # all and a bare local vector are tests/test_states.py::TestProductVectors'
        # rejection tests); a stack of width 0 is a party of dim 0, so D = 0 <= m
        e0 = np.eye(2)[:1]
        with pytest.raises(ValueError, match=r"\(1, 2, 2\), \(1, 2\)\] are not one \(m, d_k\) stack per party"):
            UPB((e0, np.eye(2)[None], e0))
        with pytest.raises(ValueError, match="incomplete"):
            UPB((e0, np.zeros((1, 0))))

    def test_upb_reads_its_dims_from_its_stacks(self, pi4_upb):
        for u, dims in ((tiles_upb(), (3, 3)), (pi4_upb, (2, 2, 2))):
            assert u.local_dims == dims == tuple(s.shape[1] for s in u.local_stacks)
            assert all(type(d) is int for d in u.local_dims)
            assert u.vectors.shape == (np.prod(dims), u.size)

    def test_upb_type_rejects_unequal_member_counts(self):
        with pytest.raises(ValueError, match=r"different member counts \[1, 2\]"):
            UPB((np.eye(2)[:1], np.eye(2), np.eye(2)[:1]))

    def test_upb_type_rejects_unnormalized_rows(self):
        e0, e1 = np.eye(2)
        with pytest.raises(ValueError, match="member 1: local vector 2 is not normalized"):
            UPB((np.array([e0, e1]),) * 2 + (np.array([e0, e0 + e1]),))

    def test_upb_type_rejects_nan_overlap(self):
        # a NaN member never reaches the Gram product: its row fails the norm check, NaN-safe
        e0, e1 = np.eye(2)
        with pytest.raises(ValueError, match="member 1: local vector 0 is not normalized"):
            UPB((np.array([e0, [np.nan, 0.0]]), np.array([e0, e1])))

    def test_upb_type_names_the_first_failure(self):
        # every party's norms and every pair's overlap are checked at once, and the error still names the
        # lowest party, then its lowest member, and the first pair (i, j), i < j, in row order
        e0, e1 = np.eye(2)
        plus = (e0 + e1) / np.sqrt(2)
        nan = [np.nan, 0.0]
        cases = [
            # party 0 fails at member 2, party 1 at member 0, party 2 holds a NaN at member 1
            ((np.array([e0, e1, 2 * e0, e1]), np.array([2 * e0, e1, e0, e1]), np.array([e0, nan, e0, e1])),
             "member 2: local vector 0 is not normalized"),
            # party 0 passes; party 1 fails at member 3, and the NaN sits in the later party 2, at member 0
            ((np.array([e0, e1, e0, e1]), np.array([e0, e1, e0, 2 * e1]), np.array([nan, e1, e0, e1])),
             "member 3: local vector 1 is not normalized"),
            # unit rows; members 1 and 2 overlap, and so do members 0 and 3, the first pair in row order
            ((np.array([e0, e1, e1, e0]), np.array([e0, e0, plus, plus]), np.array([e0, e0, e0, e0])),
             r"members 0 and 3 are not orthogonal: \|<i\|j>\| = 7.071e-01"),
        ]
        for stacks, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                UPB(stacks)

    def test_upb_type_stacks_are_read_only_copies(self):
        stack = np.eye(2, dtype=complex)[:1]
        u = UPB((stack, stack))
        assert all(s is not stack for s in u.local_stacks)
        for a in (*u.local_stacks, u.vectors):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = np.nan
        # the caller's array stays writable and changing it leaves the UPB alone
        stack[:] = np.nan
        for s in u.local_stacks:
            assert np.array_equal(s, np.eye(2)[:1])
        assert np.array_equal(u.vectors, np.eye(4)[:, :1])

    def test_upb_type_is_frozen(self, pi4_upb):
        with pytest.raises(dataclasses.FrozenInstanceError):
            pi4_upb.local_stacks = ()

    def test_array_holding_types_compare_by_identity(self, pi4_params):
        # two instances with the same content: a field-wise == would have to compare arrays
        def build():
            u = shifts_family(pi4_params)
            rho = upb_state(u)
            cert = certify_unextendible(u, restarts=8, seed=0)
            hunt = subspace_product_hunt(product_projector(cert.best_product_vector), u.local_dims, 8, 0)
            scan = mixing_scan(u, [rho], (0,), [0.01])
            return u, rho, cert, hunt, scan, build_upb_witness(u, cert)

        for a, b in zip(build(), build()):
            assert a == a and not a != a
            assert a != b and not a == b
            assert len({a, b, a}) == 2, type(a).__name__

    def test_projectors_are_cached_and_read_only(self):
        u = shifts_family((0.3, 0.7, 1.1))
        member_sum = u.member_sum_projector
        complement = u.complement_projector
        assert u.member_sum_projector is member_sum
        assert u.complement_projector is complement
        for p in (member_sum, complement):
            assert not p.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.complement_projector = np.eye(8)
        expected = sum(product_projector(v) for v in zip(*u.local_stacks))
        assert np.max(np.abs(member_sum - expected)) < 1e-15
        assert np.max(np.abs(complement - (np.eye(8) - expected))) < 1e-15

    def test_projectors_are_fields_the_constructor_sets(self):
        fields = {f.name: f for f in dataclasses.fields(UPB)}
        for name in ("member_sum_projector", "complement_projector"):
            assert not fields[name].init and not fields[name].repr, name
        u = shifts_family((0.3, 0.7, 1.1))
        # set with the other fields, before any read, and the complement is I minus the member sum exactly
        assert {"member_sum_projector", "complement_projector"} <= set(vars(u))
        assert np.array_equal(u.complement_projector, np.eye(8) - u.member_sum_projector)


class TestUPBState:
    def test_spectrum_is_flat_on_complement(self):
        rng = np.random.default_rng(321)
        expected = np.array([0.0] * 4 + [0.25] * 4)
        for _ in range(50):
            rho = upb_state(shifts_family(random_params(rng)))
            vals = np.linalg.eigvalsh(rho.matrix)
            assert np.max(np.abs(vals - expected)) < 1e-10

    def test_orthogonal_to_members(self, pi4_upb, pi4_state):
        for member in zip(*pi4_upb.local_stacks):
            overlap = np.trace(pi4_state.matrix @ product_projector(member)).real
            assert abs(overlap) < 1e-14

    def test_ppt_on_all_cuts(self):
        rng = np.random.default_rng(555)
        for _ in range(10):
            rho = upb_state(shifts_family(random_params(rng)))
            for verdict in is_ppt_all_cuts(rho).values():
                assert verdict.ppt
                assert verdict.min_eigenvalue >= -1e-10

    def test_rank_four(self, pi4_state):
        assert la.numerical_rank(pi4_state.matrix) == 4

    def test_kernel_spans_the_members(self, pi4_upb, pi4_state):
        vecs = kernel_vectors(pi4_state.matrix)
        assert len(vecs) == 4
        assert la.subspace_distance(vecs, list(pi4_upb.vectors.T)) < 1e-9


class TestSeesaw:
    def test_full_identity_reaches_one(self):
        # every local operator is a multiple of the identity: each local update has no unique maximizer
        cert = seesaw_max_product_overlap(np.eye(8), (2, 2, 2), restarts=4, seed=1)
        assert abs(cert.max_overlap - 1.0) < 1e-12
        zero = seesaw_max_product_overlap(np.zeros((8, 8)), (2, 2, 2), restarts=4, seed=1)
        assert zero.max_overlap == 0
        dims = (2, 2, 2)
        for proj in (np.eye(8), np.zeros((8, 8))):
            _, locs = _seesaw(proj, dims, 1, 4)
            for v in locs:
                assert np.all(np.isfinite(v))
                assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12
            # no update moves a vector, so each restart returns its start draw up to a phase
            for r, draw in enumerate(start_draws(1, 4, 12)):
                for k, v in enumerate(locs):
                    start = draw[4 * k:4 * k + 2] + 1j * draw[4 * k + 2:4 * k + 4]
                    assert abs(np.vdot(start / np.linalg.norm(start), v[r])) > 1 - 1e-12

    def test_single_product_projector(self):
        # |000> and |111>: the Bloch vectors r_z = +1 and r_z = -1, where 1 + r_z vanishes
        for index in (0, 7):
            target = np.zeros((8, 8), dtype=complex)
            target[index, index] = 1.0
            cert = seesaw_max_product_overlap(target, (2, 2, 2), restarts=8, seed=2)
            assert abs(cert.max_overlap - 1.0) < 1e-12
            found = expand_locals(cert.best_product_vector)
            assert abs(np.vdot(found, np.eye(8)[index])) > 1 - 1e-10

    def test_rejects_non_projector(self):
        for entry in (seesaw_max_product_overlap, subspace_product_hunt):
            with pytest.raises(ValueError, match="not an orthogonal projector"):
                entry(np.eye(8) * 0.5, (2, 2, 2), restarts=1, seed=0)

    def test_rejects_one_party(self):
        with pytest.raises(ValueError, match="at least two parties"):
            seesaw_max_product_overlap(np.eye(4), (4,), restarts=1, seed=0)

    def test_rejects_a_nan_projector(self):
        with pytest.raises(ValueError, match="not finite"):
            seesaw_max_product_overlap(np.full((8, 8), np.nan), (2, 2, 2), restarts=1, seed=0)

    def test_rejects_no_restarts_and_a_wrong_size(self, pi4_upb):
        with pytest.raises(ValueError, match="need at least one restart"):
            seesaw_max_product_overlap(pi4_upb.complement_projector, pi4_upb.local_dims, restarts=0)
        # eye(4) is a projector, of dimension 4 against the parties' 8; a stack of
        # eight 8 x 8 projectors has the right leading size but is not one matrix
        for entry in (seesaw_max_product_overlap, subspace_product_hunt):
            with pytest.raises(ValueError, match="does not match the party structure"):
                entry(np.eye(4), pi4_upb.local_dims, restarts=1)
            with pytest.raises(ValueError, match="expected a square matrix"):
                entry(np.stack([np.eye(8)] * 8), pi4_upb.local_dims, restarts=1)

    def test_seed_must_be_an_integer(self, pi4_upb):
        # int() would run seed 1.5 as seed 1, and operator.index alone runs seed True as seed 1
        proj = pi4_upb.complement_projector
        with pytest.raises(TypeError):
            seesaw_max_product_overlap(proj, pi4_upb.local_dims, restarts=2, seed=1.5)
        for name, value in (("seed", True), ("seed", [2, False]), ("restarts", True)):
            kwargs = {"restarts": 2, "seed": 1, name: value}
            with pytest.raises(TypeError, match=f"{name} must be an integer, got the bool"):
                seesaw_max_product_overlap(proj, pi4_upb.local_dims, **kwargs)
        first = seesaw_max_product_overlap(proj, pi4_upb.local_dims, restarts=2, seed=1)
        second = seesaw_max_product_overlap(proj, pi4_upb.local_dims, restarts=2, seed=np.int64(1))
        assert first.max_overlap == second.max_overlap

    def test_restart_determinism(self, pi4_upb):
        proj = pi4_upb.complement_projector
        first = seesaw_max_product_overlap(proj, pi4_upb.local_dims, restarts=16, seed=11)
        second = seesaw_max_product_overlap(proj, pi4_upb.local_dims, restarts=16, seed=11)
        assert first.max_overlap == second.max_overlap
        for x, y in zip(first.best_product_vector, second.best_product_vector, strict=True):
            assert np.array_equal(x, y)

    def test_batched_and_serial_restarts_agree(self, pi4_upb):
        # restart r starts from the same draws whatever the batch around it
        dims = pi4_upb.local_dims
        proj = pi4_upb.complement_projector
        small, _ = _seesaw(proj, dims, [5, 1], 4)
        large, _ = _seesaw(proj, dims, [5, 1], 16)
        assert np.max(np.abs(small - large[:4])) <= 1e-12

    def test_objectives_match_returned_vectors_unequal_dims(self):
        # parties of dims 2, 3, 2: a swapped party order or contraction axis shows here;
        # all-qubit inputs take the Bloch update and its conversion back to kets
        inputs = ((2, 3, 2), 3, 8), ((2, 2), 2, 1), ((2, 2, 2), 3, 2), ((2, 2, 2, 2), 5, 3)
        for dims, rank, seed in inputs:
            proj = random_projector(dims, rank, seed)
            objective, locs = _seesaw(proj, dims, 3, 6)
            for r in range(6):
                phi = expand_locals([v[r] for v in locs])
                assert abs(objective[r] - np.vdot(phi, proj @ phi).real) < 1e-12

    def test_converged_restarts_are_stationary(self, pi4_upb, monkeypatch):
        # every party's vector is a top eigenvector of its local operator, by numpy's own eigh
        inputs = [
            (pi4_upb.local_dims, pi4_upb.complement_projector),
            ((2, 2, 2, 2), random_projector((2, 2, 2, 2), 5, 4)),
            ((2, 3, 2), random_projector((2, 3, 2), 4, 5)),
        ]
        calls = count_local_updates(monkeypatch)
        for dims, proj in inputs:
            calls.clear()
            objective, locs = _seesaw(proj, dims, 7, 8)
            # the loop stopped before the sweep cap, so every restart converged; every party's
            # update, Bloch or eigensolver, was counted once per sweep
            assert 0 < len(calls) < len(dims) * upb.SEESAW_MAX_SWEEPS
            assert len(calls) % len(dims) == 0
            for r in range(8):
                vecs = [v[r] for v in locs]
                for k in range(len(dims)):
                    vals, eigvecs = np.linalg.eigh(local_operator(proj, dims, vecs, k))
                    assert abs(np.vdot(eigvecs[:, -1], vecs[k])) ** 2 > 1 - 1e-9
                    assert abs(objective[r] - vals[-1]) < 1e-9

    def test_equals_the_one_update_at_a_time_reference(self, monkeypatch):
        # two, three and four parties on the Bloch path, and qudits, where with two
        # parties the other party's state is the matmul operand itself; a cap of two
        # sweeps stops restarts that are still improving
        inputs = [(2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (3, 2), (2, 3, 2)]
        for sweeps in (upb.SEESAW_MAX_SWEEPS, 2):
            monkeypatch.setattr(upb, "SEESAW_MAX_SWEEPS", sweeps)
            for case, dims in enumerate(inputs):
                proj = random_projector(dims, int(np.prod(dims)) // 2, case)
                for seed, restarts in ((case, 1), ([2**40 + case, 7], 12)):
                    objective, locs = _seesaw(proj, dims, seed, restarts)
                    ref_objective, ref_locs = reference_seesaw(proj, dims, seed, restarts)
                    assert np.array_equal(objective, ref_objective)
                    for v, ref in zip(locs, ref_locs, strict=True):
                        assert np.array_equal(v, ref)

    def test_bloch_update_keeps_the_rows_where_g_vanishes(self):
        # with op the identity g is w itself: restart 1's g has no Bloch part and restart 2's is NaN, so the
        # divide is masked and keeps both rows, while restart 0's row is rewritten, bit for bit as the reference
        w = np.array([[0.5, 0.3, -0.4, 1.2], [0.7, 0.0, 0.0, 0.0], [0.1, np.nan, 0.5, 0.25]])
        state = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.6, 0.0, 0.8], [1.0, 1.0, 0.0, 0.0]])
        ref_values, ref_state = reference_bloch_update(np.eye(4), w, state)
        kept = state[1:].copy()
        out, g, norm = np.empty(3), np.empty((3, 4)), np.empty(3)
        upb._bloch_update(np.eye(4), w, state[:, 1:], out, g, np.empty((3, 4)), norm, g[:, 0], g[:, 1:], norm[:, None])
        assert np.array_equal(state, ref_state) and np.array_equal(out, ref_values, equal_nan=True)
        assert np.array_equal(state[1:], kept) and out[1] == 0.7 and np.isnan(out[2])
        assert np.allclose(state[0, 1:], w[0, 1:] / np.linalg.norm(w[0, 1:]), rtol=0, atol=1e-15)

    def test_pauli_slices_are_tensordots(self):
        # the slices the seesaw multiplies by are np.tensordot's, bit for bit, copied C-contiguous
        # once so that np.dot copies no strided operand (a view of T.real) on every update
        for n in (2, 3, 4):
            dims = (2,) * n
            for rank in (1, 2 ** (n - 1), 2 ** n - 1):
                p_tensor = la.as_hermitian(random_projector(dims, rank, 10 * n + rank)).reshape(dims * 2)
                for got, ref in zip(upb._pauli_slices(p_tensor), tensordot_pauli_slices(p_tensor), strict=True):
                    assert got.shape == ref.shape and got.flags.c_contiguous
                    assert got.tobytes() == ref.tobytes()

    def test_start_vectors_are_per_party_counter_draws(self, monkeypatch):
        # restart r starts from row r of start_draws, with seeds across 32-bit word boundaries; equal dims
        # take _start_kets' reshape, (2, 3, 2) its per-party slices, and both give start_kets' bits
        monkeypatch.setattr(upb, "SEESAW_MAX_SWEEPS", 0)
        for seed in (0, 2**32 - 1, 2**32, 2**64 - 1, [2**64 - 1, 3], [5, 2**32], [4, 2]):
            for dims in ((2, 3, 2), (2, 2, 2), (3, 3)):
                expected = start_kets(seed, 5, dims)
                kets, fewer = upb._start_kets(seed, 5, dims), upb._start_kets(seed, 3, dims)
                assert len(kets) == len(fewer) == len(dims)
                for k, want in enumerate(expected):
                    assert kets[k].shape == want.shape and kets[k].tobytes() == want.tobytes()
                    assert fewer[k].tobytes() == want[:3].tobytes()
                _, locs = _seesaw(np.eye(int(np.prod(dims))), dims, seed, 5)
                for got, want in zip(locs, expected, strict=True):
                    if dims == (2, 2, 2):
                        # the Bloch path returns the start ket up to a phase
                        assert (np.abs(np.sum(want.conj() * got, axis=1)) > 1 - 1e-12).all()
                    else:
                        assert got.tobytes() == want.tobytes()

    def test_start_draws_are_one_child_stream_and_prefix_stable(self):
        # one generator per call, the seed's first spawned child; fewer restarts draw the first rows of more
        # numpy splits the seed into 32-bit words, past 64 bits too; an empty list is a seed of its own
        for seed in (0, 2**32 + 3, 2**64 - 1, 2**64 + 5, [5, 2**32], [4, 2], []):
            for width in (12, 14):
                long = upb._start_draws(seed, 12, width)
                assert long.tobytes() == start_draws(seed, 12, width).tobytes()
                assert upb._start_draws(seed, 4, width).tobytes() == long[:4].tobytes()

    def test_start_draws_share_no_value_with_the_sample_stream(self):
        # a drawn hunt's sample s draws its subspace from default_rng([seed, s]) and hunts with seed [seed, s];
        # SeedSequence pads short entropy with zero words, so default_rng([seed, s, 0]) would be that very stream
        for seed, s in ((0, 0), (1, 3), (2**63, 5)):
            sample = np.random.default_rng([seed, s]).standard_normal(4096)
            assert not np.isin(upb._start_draws([seed, s], 12, 12), sample).any()

    def test_negative_seed_rejected(self, pi4_upb):
        # the certificate and every hunt path: the rank-4 exact solve, which draws nothing, the rank-6 exact
        # restarts, the seesaw hunt of dims (2, 3, 2) and the UPB complement's proof, which solves nothing
        entries = {
            "certify": lambda seed: seesaw_max_product_overlap(pi4_upb.complement_projector, (2, 2, 2), 2, seed),
            "hunt rank 4": lambda seed: subspace_product_hunt(pi4_upb.complement_projector, (2, 2, 2), 2, seed),
            "hunt rank 6": lambda seed: subspace_product_hunt(
                random_subspace(np.random.default_rng(6), 6), (2, 2, 2), 2, seed),
            "hunt (2, 3, 2)": lambda seed: subspace_product_hunt(random_projector((2, 3, 2), 3, 8), (2, 3, 2), 2, seed),
            "upb complement": lambda seed: upb_complement_hunt(pi4_upb, 2, seed),
        }
        for name, entry in entries.items():
            for seed in (-1, [3, -1], -(2**64)):
                with pytest.raises(ValueError, match="negative"):
                    entry(seed)
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                entry([3, 1.5])
            assert entry([]) is not None, name

    def test_objective_drop_raises(self, pi4_upb, monkeypatch):
        # three parties: calls 4 and 6 are the first and last local updates of sweep 1,
        # on the Bloch update for qubits and on the stacked eigensolve for dims 2, 3, 2
        inputs = [
            (pi4_upb.complement_projector, pi4_upb.local_dims),
            (random_projector((2, 3, 2), 3, 6), (2, 3, 2)),
        ]
        for at_call, party in ((4, 0), (6, 2)):
            for proj, dims in inputs:
                with monkeypatch.context() as patch:
                    lower_top_eigenvalue(patch, at_call=at_call, restart=2)
                    with pytest.raises(ConvergenceError, match=f"restart 2, sweep 1, party {party}: drop "):
                        seesaw_max_product_overlap(proj, dims, restarts=4, seed=0)

    def test_nan_objective_retires_without_a_guard_trip(self, monkeypatch):
        # a NaN maximum neither trips the monotonicity guard nor stops or prolongs the call, it hides
        # no drop beside it, and the restart keeps its NaN objective
        calls = count_local_updates(monkeypatch)
        objective, _ = _seesaw(np.full((8, 8), np.nan), (2, 2, 2), 0, 3)
        assert np.isnan(objective).all() and len(calls) == 3
        real, proj, ends = upb._bloch_update, random_projector((2, 2, 2), 4, 1), []

        def recorded(*args):
            real(*args)
            if len(calls) % 3 == 0:
                ends.append(args[3].copy())

        # the clean call's objectives after every sweep; restarts 1 and 2 alone would stop after `sweeps`,
        # before restart 0 does
        monkeypatch.setattr(upb, "_bloch_update", recorded)
        calls.clear()
        _seesaw(proj, (2, 2, 2), 0, 3)
        gains = np.diff(np.array(ends)[:, 1:], axis=0)
        sweeps = 2 + int(np.argmax(gains.max(axis=1) < upb.SEESAW_IMPROVEMENT_TOL))
        assert 2 < sweeps < len(ends)

        def with_nans(nan_from, drop_at):
            # restart 0's maximum is NaN from update nan_from on, as it stays once a restart's data is NaN
            def update(*args):
                real(*args)
                out = args[3]
                if len(calls) >= nan_from:
                    out[0] = np.nan
                if len(calls) == drop_at:
                    out[1] -= 10.0
            return update

        # restart 0 ends sweep 0 at NaN, and the call stops where restarts 1 and 2 stop
        monkeypatch.setattr(upb, "_bloch_update", with_nans(3, 0))
        calls.clear()
        objective, _ = _seesaw(proj, (2, 2, 2), 0, 3)
        assert np.isnan(objective[0]) and np.array_equal(objective[1:], ends[sweeps - 1][1:])
        assert len(calls) == 3 * sweeps
        # in sweep 1 restart 1 drops at party 0, and restart 0 turns NaN at party 1
        monkeypatch.setattr(upb, "_bloch_update", with_nans(5, 4))
        calls.clear()
        with pytest.raises(ConvergenceError, match="restart 1, sweep 1, party 0: drop "):
            _seesaw(proj, (2, 2, 2), 0, 3)
        # in sweep 1, at party 0, restart 0 turns NaN as restart 1 drops: the guard names restart 1
        monkeypatch.setattr(upb, "_bloch_update", with_nans(4, 4))
        calls.clear()
        with pytest.raises(ConvergenceError, match=r"restart 1, sweep 1, party 0: drop 9\.\d+e\+00 "):
            _seesaw(proj, (2, 2, 2), 0, 3)

    def test_every_update_sees_every_restart(self, pi4_upb, monkeypatch):
        # no restart retires before the call stops: every local update, Bloch or eigensolver, is handed all R
        # rows, so restarts 0-3 of a 16-restart call run at least the sweeps of a 4-restart call and end at or
        # above their objectives there (within 1e-15: a converged restart's last digit moves with rounding)
        rows = []
        for name in ("_bloch_update", "_eigh_update"):
            def recorded(op, w, state, out, *buffers, real=getattr(upb, name)):
                rows.append({len(w), len(state), len(out)})
                real(op, w, state, out, *buffers)
            monkeypatch.setattr(upb, name, recorded)
        inputs = [(pi4_upb.complement_projector, pi4_upb.local_dims), (random_projector((2, 3, 2), 3, 6), (2, 3, 2))]
        for proj, dims in inputs:
            objectives = {}
            for restarts in (4, 16):
                rows.clear()
                objectives[restarts], _ = _seesaw(proj, dims, [5, 1], restarts)
                assert len(rows) > len(dims) and all(r == {restarts} for r in rows)
            assert (objectives[16][:4] >= objectives[4] - 1e-15).all()

    def test_qubit_seesaw_calls_no_eigensolver(self, pi4_upb, monkeypatch):
        def refuse(matrix):
            raise AssertionError("the qubit seesaw called LAPACK")

        monkeypatch.setattr(la, "eigh_unchecked", refuse)
        cert = certify_unextendible(pi4_upb, restarts=16, seed=3)
        assert abs(cert.max_overlap - PI4_MAX_OVERLAP) < 1e-6


class TestCertification:
    def test_ties_go_to_the_lowest_restart_within_the_tolerance(self, pi4_upb, monkeypatch):
        # restart r's local vectors are (cos t_r, sin t_r) with t_r = 0.1 (r + 1), so the vector names the restart;
        # a restart 1e-13 below the best ties with it (linalg.DEFAULT_TOL is 1e-9), one 1e-6 below never does
        t = 0.1 * np.arange(1, 4)
        locs = [np.column_stack([np.cos(t), np.sin(t)]).astype(complex)] * 3
        best = 0.75
        cases = [
            ([best - 1e-6, best - 1e-13, best], 1),
            ([best - 1e-6, best, best - 1e-13], 1),
            ([best, best - 1e-13, best - 1e-6], 0),
        ]
        for objective, r in cases:
            monkeypatch.setattr(upb, "_seesaw", lambda *args, o=objective: (np.array(o), locs))
            cert = seesaw_max_product_overlap(np.eye(8), (2, 2, 2), restarts=3, seed=0)
            assert cert.max_overlap == objective[r]
            for v in cert.best_product_vector:
                assert np.allclose(v, locs[0][r], rtol=0, atol=1e-15)
        # a restart that ended at NaN wins, so no witness rests on the others
        monkeypatch.setattr(upb, "_seesaw", lambda *args: (np.array([best, np.nan, best - 1e-6]), locs))
        cert = seesaw_max_product_overlap(np.eye(8), (2, 2, 2), restarts=3, seed=0)
        assert np.isnan(cert.max_overlap)
        with pytest.raises(CertificationError, match="floor vanished after the safety margin"):
            build_upb_witness(pi4_upb, cert)
        assert np.allclose(cert.best_product_vector[0], locs[0][1], rtol=0, atol=1e-15)

    def test_pi4_certificate(self, pi4_upb, pi4_cert):
        assert partition_margin(pi4_upb) > la.DEFAULT_TOL
        assert pi4_cert.max_overlap < 1 - 1e-3
        assert abs(pi4_cert.max_overlap - PI4_MAX_OVERLAP) < 1e-6

    def test_certificate_attained_value(self, pi4_upb, pi4_cert):
        q = pi4_upb.complement_projector
        best = expand_locals(pi4_cert.best_product_vector)
        direct = np.vdot(best, q @ best).real
        assert abs(direct - pi4_cert.max_overlap) < 1e-10

    def test_stability_across_seeds(self, ten_seed_certs):
        values = [cert.max_overlap for cert in ten_seed_certs]
        assert max(values) - min(values) < 1e-6

    def test_degenerate_family_not_certified(self):
        u = UPB(degenerate_family_members())
        cert = certify_unextendible(u, restarts=64, seed=5)
        assert partition_margin(u) == 0.0
        assert cert.max_overlap > 1 - 1e-9
        # the located product vector genuinely extends the set
        found = expand_locals(cert.best_product_vector)
        for member in u.vectors.T:
            assert abs(np.vdot(member, found)) < 1e-5

    @pytest.mark.parametrize("angles", [(0.05, 0.05, 0.05), (0.1, np.pi / 2 - 0.1, 0.1)])
    def test_near_face_upb_is_certified(self, angles):
        # the seesaw's overlap is 0.99999688 and 0.99999901 here, within 1e-3 of 1; the margin is 3.5e-2 and 7.1e-2
        assert partition_margin(shifts_family(angles)) > la.DEFAULT_TOL

    def test_tiles_fixture_certified(self):
        # the pair formula does not cover two qutrits, so the seesaw's floor is the evidence: far above 0, and a witness
        u = tiles_upb()
        cert = certify_unextendible(u, restarts=64, seed=6)
        assert cert.max_overlap < 1 - 1e-3
        build_upb_witness(u, cert)


class TestSubspaceHunt:
    def test_planted_product_vectors_found(self):
        rng = np.random.default_rng(777)
        dims = (2, 2, 2)
        planted = [random_product_vector(dims, rng) for _ in range(5)]
        projector = la.span_projector([expand_locals(v) for v in planted])
        result = subspace_product_hunt(projector, dims, restarts=192, seed=42)
        assert result.distinct_count == 6
        assert result.rank == 5
        for v in planted:
            fidelities = [
                abs(np.vdot(expand_locals(hit), expand_locals(v))) ** 2 for hit in result.vectors
            ]
            assert max(fidelities) > 1 - 1e-6

    def test_upb_complement_has_no_hits(self, pi4_upb):
        result = subspace_product_hunt(pi4_upb.complement_projector, pi4_upb.local_dims, restarts=128, seed=9)
        assert result.distinct_count == 0
        assert result.rank == 0

    def test_random_dim5_counts_are_seed_stable(self):
        rng = np.random.default_rng(2023)
        projector = random_subspace(rng, 5)
        counts = set()
        for seed in (100, 200, 300):
            result = subspace_product_hunt(projector, (2, 2, 2), restarts=128, seed=seed)
            counts.add(result.distinct_count)
        assert len(counts) == 1

    def test_rejects_one_party(self):
        with pytest.raises(ValueError, match="at least two parties"):
            subspace_product_hunt(np.diag([1.0, 0.0, 0.0, 0.0]), (4,), restarts=1, seed=0)

    def test_rejects_a_nan_projector(self):
        with pytest.raises(ValueError, match="not finite"):
            subspace_product_hunt(np.full((8, 8), np.nan), (2, 2, 2), restarts=1, seed=0)

    def test_rejects_an_empty_basis(self):
        # the zero projector is a projector, onto the empty span
        with pytest.raises(ValueError, match="range is empty"):
            subspace_product_hunt(np.zeros((8, 8)), (2, 2, 2), restarts=1, seed=0)

    def test_seesaw_path_needs_a_restart(self):
        # every path checks restarts as certification does (_seed_list), before any solve
        projector = random_subspace(np.random.default_rng(5), 6)
        with pytest.raises(ValueError, match="need at least one restart"):
            subspace_product_hunt(projector, (2, 2, 2), restarts=0, seed=0)


def reference_distinct(rows):
    """The fidelity rule one numpy row at a time, the reference ``upb._distinct`` must equal."""
    fidelity = np.abs(rows.conj() @ rows.T) ** 2
    kept = []
    for r in range(len(rows)):
        if not (fidelity[r, kept] > 1.0 - upb.DISTINCT_FIDELITY_TOL).any():
            kept.append(r)
    return np.array(kept, dtype=int)


def test_distinct_keeps_the_reference_indices():
    rng = np.random.default_rng(12)
    e0, e1 = np.eye(8, dtype=complex)[:2]
    unit = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    # fidelities with e0 just above, at and just below the rule's edge 1 - tol
    angles = np.arcsin(np.sqrt(upb.DISTINCT_FIDELITY_TOL * (1 + np.array([-1e-9, 0, 1e-9]))))
    edge = [np.cos(t) * e0 + np.sin(t) * e1 for t in angles]
    nan = np.full(8, np.nan + 0j)
    inputs = [
        np.zeros((0, 8), dtype=complex),
        unit,
        np.array([unit[0], unit[1], 1j * unit[0], unit[1], unit[2], np.exp(0.3j) * unit[2]]),
        np.array([e0, *edge, e1, *edge]),
        np.array([nan, unit[0], nan, unit[0], unit[1]]),
        np.array([unit[0], nan, unit[0] + np.nan * e0, unit[0]]),
    ]
    for _ in range(20):
        rows = unit[rng.integers(0, 6, size=10)] * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(10, 1)))
        inputs.append(rows + rng.normal(scale=rng.choice([0.0, 1e-4, 1e-3]), size=rows.shape))
    for rows in inputs:
        got, ref = upb._distinct(rows), reference_distinct(rows)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def random_subspace(rng, dim, space=8):
    """Projector onto the span of ``dim`` complex Gaussian vectors of a ``space``-dimensional space, three qubits by default."""
    raw = rng.standard_normal((space, dim)) + 1j * rng.standard_normal((space, dim))
    return la.span_projector(list(raw.T))


def assert_hits_in_span(result, projector):
    """Every hit passes the hunt's one rule, ``||(I - P) phi|| < HUNT_RESIDUAL_TOL``, and their rank is at most P's."""
    for hit, overlap in zip(result.vectors, result.overlaps, strict=True):
        phi = expand_locals(hit)
        assert np.linalg.norm(phi - projector @ phi) < upb.HUNT_RESIDUAL_TOL
        assert abs(overlap - 1.0) < 1e-12
    assert result.rank <= round(np.trace(projector).real)


def assert_no_objective_hit_lost(result, seesaw_calls):
    """Each distinct restart that the seesaw's objective rule, ``objective >= 1 - DEFAULT_TOL``, keeps from the hunt's
    seesaw run, run again with the same arguments, has fidelity above ``1 - DISTINCT_FIDELITY_TOL`` with a hit."""
    (args,) = seesaw_calls
    objective, locs = _seesaw(*args)
    kept = objective >= 1.0 - la.DEFAULT_TOL
    reference = expand_locals([v[kept] for v in locs])
    hits = expand_locals(result.local_stacks)
    for phi in reference[upb._distinct(reference)]:
        assert np.max(np.abs(hits.conj() @ phi) ** 2, initial=0.0) > 1.0 - upb.DISTINCT_FIDELITY_TOL


@pytest.fixture
def no_seesaw(monkeypatch):
    """Fail any hunt that leaves the three-qubit exact solves for the seesaw."""

    def seesaw(*args, **kwargs):
        raise AssertionError("the hunt fell back to the seesaw")

    monkeypatch.setattr(upb, "_seesaw", seesaw)


@pytest.mark.usefixtures("no_seesaw")
class TestExactQubitHunt:
    """Three-qubit subspaces of dimension <= 5 meet the degree-6 Segre variety in a finite set."""

    def test_random_dim5_has_exactly_six(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            projector = random_subspace(rng, 5)
            result = subspace_product_hunt(projector, (2, 2, 2), restarts=12, seed=0)
            assert (result.distinct_count, result.rank) == (6, 5)
            assert_hits_in_span(result, projector)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_planted_counts(self, polish_calls, dim):
        # below dimension 5 the superspace's other points miss the span: they are dropped, never polished
        rng = np.random.default_rng(100 + dim)
        dims = (2, 2, 2)
        planted = [random_product_vector(dims, rng) for _ in range(dim)]
        projector = la.span_projector([expand_locals(v) for v in planted])
        result = subspace_product_hunt(projector, dims, restarts=12, seed=0)
        assert polish_calls == []
        assert (result.distinct_count, result.rank) == ((6, 5) if dim == 5 else (dim, dim))
        assert_hits_in_span(result, projector)
        for v in planted:
            assert max(abs(np.vdot(expand_locals(hit), expand_locals(v))) ** 2 for hit in result.vectors) > 1 - 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_random_low_dim_has_none(self, polish_calls, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(10):
            result = subspace_product_hunt(random_subspace(rng, dim), (2, 2, 2), restarts=12, seed=0)
            assert (result.distinct_count, result.rank) == (0, 0)
        assert polish_calls == []

    def test_upb_complements_have_none(self):
        near_faces = [(0.05, 0.05, 0.05), (0.05, np.pi / 4, np.pi / 4), (0.1, np.pi / 2 - 0.1, 0.1),
                      (0.01, 0.01, 0.01), (np.pi / 2 - 0.02,) * 3]
        drawn = np.random.default_rng(7).uniform(0.01, np.pi / 2 - 0.01, size=(40, 3))
        for angles in near_faces + [tuple(a) for a in drawn]:
            u = shifts_family(angles)
            result = subspace_product_hunt(u.complement_projector, u.local_dims, restarts=12, seed=0)
            assert (result.distinct_count, result.rank) == (0, 0), angles

    def test_count_ignores_seed_and_restarts(self):
        projector = random_subspace(np.random.default_rng(2023), 5)
        results = [subspace_product_hunt(projector, (2, 2, 2), restarts=r, seed=s)
                   for r, s in ((1, 0), (12, 5), (128, [3, 4]))]
        for other in results[1:]:
            assert other.overlaps == results[0].overlaps
            for a, b in zip(other.local_stacks, results[0].local_stacks, strict=True):
                assert np.array_equal(a, b)

    def test_exact_path_checks_restarts_and_seed(self):
        # the seesaw rejects these before it runs; the exact path reads neither, and rejects them too
        projector = random_subspace(np.random.default_rng(11), 5)
        bad = [({"restarts": 0}, ValueError), ({"restarts": -3}, ValueError), ({"restarts": 2.5}, TypeError),
               ({"seed": -1}, ValueError), ({"seed": 1.5}, TypeError), ({"seed": "x"}, TypeError)]
        for kwargs, error in bad:
            with pytest.raises(error):
                subspace_product_hunt(projector, (2, 2, 2), **{"restarts": 1, "seed": 0, **kwargs})
        assert subspace_product_hunt(projector, (2, 2, 2), restarts=1, seed=0).distinct_count == 6


class TestHuntFallback:
    """A degenerate polynomial solve, and every party structure but three qubits, hands the hunt to the seesaw.

    The seesaw's objective decides nothing: its stopped restarts are candidates, each kept by the hunt's one rule,
    residual ``||(I - P) phi|| < HUNT_RESIDUAL_TOL``, as it stands or after the polish.  No hit that the old rule,
    ``objective >= 1 - DEFAULT_TOL``, keeps from the same seesaw run is lost.
    """

    @pytest.mark.parametrize("member", [0, 1, 2, 3])
    def test_upb_complement_plus_member(self, seesaw_calls, member):
        # a = |0> or |1> puts two points on one root x = 0, or one at x = infinity
        u = shifts_family((0.5, 0.8, 1.0))
        projector = u.complement_projector + product_projector([s[member] for s in u.local_stacks])
        result = subspace_product_hunt(projector, u.local_dims, restarts=64, seed=member)
        assert len(seesaw_calls) == 1
        assert (result.distinct_count, result.rank) == (6, 5)
        assert_hits_in_span(result, projector)
        assert_no_objective_hit_lost(result, seesaw_calls)

    def test_continuum(self, seesaw_calls):
        # span{|000>, |001>} holds |00>|c> for every c: a triple root that verifies only to ~1e-5
        e = np.eye(8)
        projector = la.span_projector([e[0], e[1]])
        result = subspace_product_hunt(projector, (2, 2, 2), restarts=16, seed=0)
        assert len(seesaw_calls) == 1
        assert (result.distinct_count, result.rank) == (16, 2)
        assert_hits_in_span(result, projector)
        assert_no_objective_hit_lost(result, seesaw_calls)

    def test_vanishing_polynomial(self, seesaw_calls, monkeypatch):
        # span{|011>, |100>, ..., |111>}: the constraints pair with a = |0> only, so N(x) is constant, its null vector
        # |11> makes the degree-6 polynomial exactly zero, and np.roots returns no root, not six; the span holds the
        # continuum |1>|b>|c>.  The solve and the seesaw after it read one complement, one eigensolve of the projector
        solves, real = [], la.eigh_unchecked
        monkeypatch.setattr(la, "eigh_unchecked", lambda m: solves.append(m.shape) or real(m))
        e = np.eye(8)
        projector = la.span_projector([e[3], *e[4:]])
        result = subspace_product_hunt(projector, (2, 2, 2), restarts=16, seed=0)
        assert len(seesaw_calls) == 1
        assert solves.count((8, 8)) == 1
        assert (result.distinct_count, result.rank) == (16, 4)
        assert_hits_in_span(result, projector)
        assert_no_objective_hit_lost(result, seesaw_calls)

    def test_rank_deficient_constraint_matrix(self, seesaw_calls):
        # span{|000>, |00+>, |0++>, |+00>}: N(x) loses rank at a root of the solve
        e0, plus = np.eye(2)[0], np.ones(2) / np.sqrt(2)
        planted = [(e0, e0, e0), (e0, e0, plus), (e0, plus, plus), (plus, e0, e0)]
        projector = la.span_projector([expand_locals(v) for v in planted])
        result = subspace_product_hunt(projector, (2, 2, 2), restarts=32, seed=0)
        assert len(seesaw_calls) == 1
        # the count is not pinned: the seesaw finds some of the span's product vectors, not all
        assert result.distinct_count >= 1
        assert_hits_in_span(result, projector)
        assert_no_objective_hit_lost(result, seesaw_calls)

    def test_qutrits_keep_the_seesaw(self, seesaw_calls):
        projector = la.span_projector([np.eye(9)[0]])
        result = subspace_product_hunt(projector, (3, 3), restarts=4, seed=0)
        assert len(seesaw_calls) == 1
        assert_hits_in_span(result, projector)
        assert_no_objective_hit_lost(result, seesaw_calls)

    def test_no_hit_in_a_span_without_product_vectors(self, seesaw_calls):
        # a generic 4-dimensional subspace of C^3 (x) C^3 misses the 4-dimensional Segre variety of its
        # 8-dimensional projective space; one restart stops at overlap 0.99978, a local maximum and no hit
        projector = random_subspace(np.random.default_rng([1, 4, 9]), 4, 9)
        result = subspace_product_hunt(projector, (3, 3), restarts=12, seed=0)
        assert len(seesaw_calls) == 1
        assert (result.distinct_count, result.rank) == (0, 0)
        assert_no_objective_hit_lost(result, seesaw_calls)

    @pytest.mark.parametrize("dims, dim, planted, draw", [
        ((2, 3, 2), 7, False, 0), ((2, 3, 2), 8, True, 0), ((3, 3), 4, False, 3), ((3, 3), 5, True, 7),
    ], ids=["2x3x2-random", "2x3x2-planted", "3x3-random", "3x3-planted"])
    def test_hits_lie_in_the_subspace(self, seesaw_calls, dims, dim, planted, draw):
        # random subspaces one dimension short of meeting the Segre variety hold no product vector, and planted
        # spans of that dimension plus one hold finitely many; restarts that no polish brings inside are no hits
        rng = np.random.default_rng([*dims, dim, draw])
        if planted:
            projector = la.span_projector([expand_locals(random_product_vector(dims, rng)) for _ in range(dim)])
        else:
            projector = random_subspace(rng, dim, np.prod(dims))
        result = subspace_product_hunt(projector, dims, restarts=16, seed=draw)
        assert len(seesaw_calls) == 1
        assert_hits_in_span(result, projector)
        assert_no_objective_hit_lost(result, seesaw_calls)


@pytest.mark.usefixtures("no_seesaw")
class TestExactRestartHunt:
    """Three-qubit subspaces of dimension 6 to 8: each restart's start kets fix one exact product vector.

    This path never reaches the seesaw.  In the ``*_falls_back`` tests a degenerate restart falls back to its start
    kets, and each point outside the residual rule to the polish: the hits, at least as many and of at least the rank
    the seesaw found on these inputs, all lie in the span, and where they reach the rank of every product vector
    there that rank is pinned.  The suite turns a warning into an error, so they also show that no degenerate solve
    divides by zero.
    """

    @pytest.mark.parametrize("dim", [6, 7, 8])
    @pytest.mark.parametrize("kind", ["random", "planted"])
    def test_one_hit_per_restart_inside_the_span(self, kind, dim):
        rng = np.random.default_rng(300 + dim)
        for draw in range(5):
            if kind == "random":
                projector = random_subspace(rng, dim)
            else:
                planted = [random_product_vector((2, 2, 2), rng) for _ in range(dim)]
                projector = la.span_projector([expand_locals(v) for v in planted])
            for restarts in (4, 12):
                result = subspace_product_hunt(projector, (2, 2, 2), restarts=restarts, seed=[draw, dim])
                assert (result.distinct_count, result.rank) == (restarts, min(restarts, dim))
                assert_hits_in_span(result, projector)

    @pytest.mark.parametrize("dim", [6, 7, 8])
    def test_hits_keep_the_start_kets_and_a_prefix(self, dim):
        projector = random_subspace(np.random.default_rng(400 + dim), dim)
        short, long = (subspace_product_hunt(projector, (2, 2, 2), restarts=r, seed=[7, 8]) for r in (4, 12))
        for party, kets in enumerate(start_kets([7, 8], 12)[:dim - 5]):
            assert np.array_equal(long.local_stacks[party], kets)
        assert short.overlaps == long.overlaps[:4]
        for a, b in zip(short.local_stacks, long.local_stacks, strict=True):
            assert np.array_equal(a, b[:4])

    def test_vanishing_quadratic_falls_back(self):
        # span{|000>, ..., |101>}: every z in N's null space span{|00>, |01>} is a product, so det(s z1 + t z2) = 0
        # and both roots are zero; its product vectors |0>|b>|c> and |a>|0>|c> span all 6 dimensions
        projector = la.span_projector(list(np.eye(8)[:6]))
        result = subspace_product_hunt(projector, (2, 2, 2), restarts=12, seed=0)
        assert (result.distinct_count, result.rank) == (12, 6)  # the seesaw found (12, 4)
        assert_hits_in_span(result, projector)

    @pytest.mark.parametrize("v", [(0, 1, -1, 0), (0, 0, 0, 1)], ids=["psi_minus", "11"])
    def test_rank_deficient_constraint_matrix_falls_back(self, v):
        # the complement C^2 (x) |v> gives N(a) the rows a_0 <v| and a_1 <v|: rank 1 for every a, and the two
        # null vectors the SVD returns give some restart's quadratic a zero root; the product vectors a (x) b (x) c
        # with b (x) c orthogonal to v span all 6 dimensions
        projector = np.eye(8) - la.span_projector([np.kron(e, v) for e in np.eye(2)])
        result = subspace_product_hunt(projector, (2, 2, 2), restarts=12, seed=0)
        assert (result.distinct_count, result.rank) == (12, 6)  # the seesaw found (12, 6) and (12, 4)
        assert_hits_in_span(result, projector)

    def test_double_root_falls_back(self):
        # complement {|000>, |0>(|01> + |10>)}: N's null space is span{|11>, |01> - |10>}, where det = t^2 / 2
        # has the double root |11>, and one of the two root vectors is exactly zero; the product vectors |1>|b>|c>
        # and |a>|11> span 5 dimensions, and a point accepted near the double root but off them would raise the rank
        e = np.eye(8)
        projector = np.eye(8) - la.span_projector([e[0], e[1] + e[2]])
        result = subspace_product_hunt(projector, (2, 2, 2), restarts=12, seed=0)
        assert (result.distinct_count, result.rank) == (12, 5)  # the seesaw found (12, 4)
        assert_hits_in_span(result, projector)

    def test_vanishing_contraction_falls_back(self):
        # rank 7 with complement |a'>|00>, a' orthogonal to restart 0's start ket a: n = <a'|a> <0|b> <0| = 0
        a = start_kets([0], 1)[0][0]
        a_perp = np.array([-a[1].conj(), a[0].conj()])
        projector = np.eye(8) - product_projector([a_perp, np.eye(2)[0], np.eye(2)[0]])
        result = subspace_product_hunt(projector, (2, 2, 2), restarts=12, seed=0)
        assert result.distinct_count == 12 and result.rank >= 3  # the seesaw found (3, 3)
        assert_hits_in_span(result, projector)

    def test_an_exactly_vanishing_contraction_keeps_the_start_kets(self):
        # the same complement given exactly, not by an eigensolver: restart 0's n is exactly 0, so it keeps its start
        # kets, which lie in the span as a is orthogonal to a'; every other restart's c solves n . c = 0
        starts = start_kets([0], 12)
        a = starts[0][0]
        complement = expand_locals([np.array([-a[1].conj(), a[0].conj()]), np.eye(2)[0], np.eye(2)[0]])[:, None]
        kets = upb._qubit_triple_restarts(complement, 7, [0], 12)
        for got, start in zip(kets, starts, strict=True):
            assert np.array_equal(got[0], start[0])
        assert np.abs(expand_locals(kets) @ complement.conj()).max() < 1e-15


@pytest.mark.parametrize("dims, dim, seesaws", [((2, 2, 2), 5, 1), ((2, 2, 2), 6, 0), ((2, 3, 2), 7, 1)],
                         ids=["exact-degenerate", "restarts", "seesaw"])
def test_a_hit_outside_the_tolerance_falls_back(seesaw_calls, polish_calls, monkeypatch, dims, dim, seesaws):
    # every candidate ends within rounding of the span, or outside it; a zero tolerance rejects them all, polished or
    # not, on every path: the dimension-5 solve finds no point in its superspace and hands the span to the seesaw
    monkeypatch.setattr(upb, "HUNT_RESIDUAL_TOL", 0.0)
    projector = random_subspace(np.random.default_rng(9), dim, np.prod(dims))
    result = subspace_product_hunt(projector, dims, restarts=4, seed=0)
    assert (len(seesaw_calls), len(polish_calls)) == (seesaws, 1)
    assert (result.distinct_count, result.rank) == (0, 0)


class TestPolish:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3), (2, 2, 2, 2)])
    def test_points_near_a_planted_vector_converge_onto_it(self, dims):
        # unit kets 1e-3 off planted product vectors reach them; a step that may rescale the kets stalls instead
        rng = np.random.default_rng([len(dims), *dims])
        planted = [random_product_vector(dims, rng) for _ in range(3)]
        complement = np.array(kernel_vectors(la.span_projector([expand_locals(v) for v in planted]))).T
        off = [np.array([x + 1e-3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d)) for x in party])
               for party, d in zip(zip(*planted), dims)]
        start = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in off]
        polished = upb._polish(complement, start)
        for x in polished:
            assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-15)
        phi, target = expand_locals(polished), expand_locals([np.array(p) for p in zip(*planted)])
        assert np.abs(phi @ complement.conj()).max() < 1e-14
        assert np.all(np.abs(np.sum(phi.conj() * target, axis=1)) ** 2 > 1 - 1e-12)

    def test_rows_are_polished_independently(self):
        # the stacked steps equal those of one row at a time
        rng = np.random.default_rng(3)
        complement = np.array(kernel_vectors(random_subspace(rng, 5, 12))).T
        kets = [rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d)) for d in (2, 3, 2)]
        kets = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in kets]
        stacked = upb._polish(complement, kets)
        for r in range(6):
            single = upb._polish(complement, [x[r:r + 1] for x in kets])
            for a, b in zip(stacked, single, strict=True):
                assert np.allclose(a[r:r + 1], b, rtol=0, atol=1e-12)


def enumerated_margin(stacks) -> float:
    """The partition criterion's margin by enumeration: over all n^m assignments of members to parties, the
    minimum of the largest d_j-th singular value of a party's group (0 for a group of fewer than d_j)."""
    n, m = len(stacks), len(stacks[0])
    best = np.inf
    for parties in itertools.product(range(n), repeat=m):
        score = 0.0
        for j, stack in enumerate(stacks):
            group = [i for i in range(m) if parties[i] == j]
            d = stack.shape[1]
            if len(group) >= d:
                score = max(score, np.linalg.svd(stack[group].T, compute_uv=False)[d - 1])
        best = min(best, score)
    return best


# the certify workload's five near-face angle sets
NEAR_FACES = [(0.05, 0.05, 0.05), (0.05, np.pi / 4, np.pi / 4), (np.pi / 4, np.pi / 2 - 0.05, np.pi / 4),
              (np.pi / 4, np.pi / 4, 0.05), (0.1, np.pi / 2 - 0.1, 0.1)]


def margin_sets():
    """50 random interior angle sets, the near-face sets and the degenerate family limit, as UPBs."""
    rng = np.random.default_rng(42)
    return ([shifts_family(random_params(rng)) for _ in range(50)] + [shifts_family(a) for a in NEAR_FACES]
            + [UPB(degenerate_family_members())])


def product_floor(u) -> float:
    return (partition_margin(u) ** 2 / u.size) ** len(u.local_dims)


class TestPartitionMargin:
    def test_pair_formula_equals_the_enumeration(self):
        for u in margin_sets():
            assert abs(partition_margin(u) - enumerated_margin(u.local_stacks)) < 1e-12
        assert partition_margin(UPB(degenerate_family_members())) == 0.0

    def test_family_margin_is_the_nearest_face_distance(self):
        for angles in [(0.3, 0.7, 1.1), (1e-3, np.pi / 2 - 1e-3, 1e-3), *NEAR_FACES]:
            d = min(min(a, np.pi / 2 - a) for a in angles)
            assert partition_margin(shifts_family(angles)) == pytest.approx(np.sqrt(2) * np.sin(d / 2), rel=1e-9)

    def test_seesaw_minimum_is_above_the_floor(self):
        # 1 - max_overlap is the least <phi|S|phi> the seesaw finds, so no smaller than the proven floor
        for u in margin_sets():
            assert 1.0 - certify_unextendible(u, restarts=64).max_overlap >= product_floor(u)

    def test_other_sets_raise(self):
        e = np.eye(2, dtype=complex)
        for u in (tiles_upb(), UPB(np.array([e, e]))):  # two qutrits; two qubits with members |00>, |11>
            with pytest.raises(ValueError, match="m = n \\+ 1"):
                partition_margin(u)


def core_centres():
    """The hunt workload's 64 UPB complements: the centres of a 4 x 4 x 4 grid of cells over [0.4, pi/2 - 0.4]^3."""
    cells = np.array(list(itertools.product(range(4), repeat=3)))
    return [tuple(a) for a in 0.4 + (np.pi / 2 - 0.8) * (cells + 0.5) / 4]


@pytest.fixture
def hunt_calls(monkeypatch):
    """The calls of ``upb.subspace_product_hunt``."""
    return count_calls(monkeypatch, "subspace_product_hunt")


class TestUPBComplementHunt:
    def test_proof_gives_the_search_answer_on_the_core(self, hunt_calls):
        for k, angles in enumerate(core_centres()):
            u = shifts_family(angles)
            assert partition_margin(u) > 1e6 * la.DEFAULT_TOL
            proven = upb_complement_hunt(u, 12, [k, 0])
            searched = upb.subspace_product_hunt(u.complement_projector, u.local_dims, 12, [k, 0])
            assert (proven.distinct_count, proven.rank, proven.overlaps) == (0, 0, ())
            assert (searched.distinct_count, searched.rank, searched.overlaps) == (0, 0, ())
            assert [s.shape for s in proven.local_stacks] == [s.shape for s in searched.local_stacks]
        assert len(hunt_calls) == 64  # the test's own searches only

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_proof_holds_near_a_face(self, hunt_calls, eps):
        # margins 7.1e-4 and 7.1e-5, far above linalg.DEFAULT_TOL; the search reports false hits here (item 5(c))
        u = shifts_family((eps, np.pi / 2 - eps, eps))
        assert partition_margin(u) > 1e3 * la.DEFAULT_TOL
        proven = upb_complement_hunt(u, 12, 3)
        assert (proven.distinct_count, proven.rank, proven.overlaps) == (0, 0, ())
        assert [s.shape for s in proven.local_stacks] == [(0, 2)] * 3
        assert not hunt_calls

    @pytest.mark.parametrize("u", [UPB(degenerate_family_members()), tiles_upb()], ids=["degenerate", "tiles"])
    def test_search_runs_where_no_proof_applies(self, hunt_calls, u):
        # the degenerate family is a qubit set of n + 1 members with margin 0.0; the pair formula does not cover Tiles
        hunted = upb_complement_hunt(u, 12, 3)
        assert len(hunt_calls) == 1
        today = upb.subspace_product_hunt(u.complement_projector, u.local_dims, 12, 3)
        assert (hunted.distinct_count, hunted.rank, hunted.overlaps) == (today.distinct_count, today.rank, today.overlaps)

    def test_search_finds_the_degenerate_family_product_vector(self):
        # |0>|0>|1> is orthogonal to all four members of the a -> 0 limit
        hunted = upb_complement_hunt(UPB(degenerate_family_members()), 12, 3)
        e = np.eye(8)[1]
        assert hunted.distinct_count >= 1
        assert max(abs(np.vdot(expand_locals(v), e)) ** 2 for v in hunted.vectors) > 1 - 1e-12

    def test_proof_path_checks_restarts_and_seed(self, pi4_upb, hunt_calls):
        for kwargs, error in [({"restarts": 0}, ValueError), ({"restarts": 2.5}, TypeError), ({"seed": 1.5}, TypeError)]:
            with pytest.raises(error):
                upb_complement_hunt(pi4_upb, **{"restarts": 1, "seed": 0, **kwargs})
        assert upb_complement_hunt(pi4_upb, 1, 0).distinct_count == 0
        assert not hunt_calls


def test_hunt_leaves_numpy_fft_unloaded():
    # the coefficients come from a fixed inverse-DFT matrix, not from numpy.fft, which numpy loads lazily
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from upbkit import span_projector, subspace_product_hunt\n"
        "raw = np.random.default_rng(0).standard_normal((6, 8))\n"
        "assert subspace_product_hunt(span_projector(list(raw[:5] + 0j)), (2, 2, 2), restarts=1).distinct_count == 6\n"
        "assert subspace_product_hunt(span_projector(list(raw + 0j)), (2, 2, 2), restarts=1).distinct_count == 1\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_module_array_is_read_only():
    # a write into a shared constant would move every later result that reads it, so each array among the
    # globals of upbkit and its modules, or among the values of a global dict, is read-only (importing
    # __main__ would run the CLI, so it is skipped)
    modules = [upbkit] + [importlib.import_module(f"upbkit.{m.name}")
                          for m in pkgutil.iter_modules(upbkit.__path__) if m.name != "__main__"]
    writeable, arrays = [], 0
    for module in modules:
        for name, value in vars(module).items():
            entries = [(name, value)]
            if isinstance(value, dict):
                entries += [(f"{name}[{key!r}]", v) for key, v in value.items()]
            for label, entry in entries:
                if isinstance(entry, np.ndarray):
                    arrays += 1
                    if entry.flags.writeable:
                        writeable.append(f"{module.__name__}.{label}")
    assert arrays > 0 and writeable == []
    with pytest.raises(ValueError):
        upb._HALF_PAULI[3, 1] = 0.5


class TestMixtureRanks:
    def test_two_state_mixture_rank_at_least_six(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho1 = upb_state(shifts_family(random_params(rng)))
            rho2 = upb_state(shifts_family(random_params(rng)))
            mix = (rho1.matrix + rho2.matrix) / 2
            assert la.numerical_rank(mix) >= 6

    def test_state_plus_member_rank_five(self, pi4_upb, pi4_state):
        mix = (pi4_state.matrix + product_projector([s[0] for s in pi4_upb.local_stacks])) / 2
        assert la.numerical_rank(mix) == 5


class TestKnownWrongAnswers:
    """Answers the toolkit gets wrong today, each pinned by a strict xfail that the named ROADMAP item must flip."""

    @pytest.mark.xfail(
        strict=True, raises=CertificationError,
        reason="ROADMAP item 2: the seesaw floor of a proven UPB this near a face does not survive SAFETY_MARGIN",
    )
    def test_proven_upb_near_a_face_gets_a_witness(self):
        # the margin is 7.1e-2, but 1 - max_overlap is 9.9e-7 at every seed, below the witness's 1e-6 safety margin
        u = shifts_family((0.1, np.pi / 2 - 0.1, 0.1))
        assert partition_margin(u) > la.DEFAULT_TOL
        for seed in range(3):
            build_upb_witness(u, certify_unextendible(u, restarts=64, seed=seed))

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 5(c): near-face false hits in the UPB complement"
    )
    @pytest.mark.parametrize(("eps", "restarts"), [(1e-3, 64), (1e-4, 12)])
    def test_upb_complement_holds_no_product_vector(self, eps, restarts):
        # today 4 hits of rank 4 from the exact solve at 1e-3; at 1e-4 the solve degenerates and the
        # seesaw fallback reports 4 hits of rank 4 (upb_complement_hunt answers both by the margin instead)
        u = shifts_family((eps, np.pi / 2 - eps, eps))
        result = subspace_product_hunt(u.complement_projector, u.local_dims, restarts=restarts, seed=0)
        assert (result.distinct_count, result.rank) == (0, 0)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 5(b): the seesaw fallback misses product vectors"
    )
    @pytest.mark.parametrize(("restarts", "seed"), [(12, 5), (32, 0), (64, 1), (256, 2)])
    def test_fallback_finds_the_span_of_product_vectors(self, restarts, seed):
        # span{|000>, |00+>, |0++>, |+00>} holds the continuum |00c> and |0++>, |+00>,
        # whose product vectors span all four dimensions; today 2 hits of rank 2
        e0, plus = np.eye(2)[0], np.ones(2) / np.sqrt(2)
        planted = [(e0, e0, e0), (e0, e0, plus), (e0, plus, plus), (plus, e0, e0)]
        projector = la.span_projector([expand_locals(v) for v in planted])
        assert subspace_product_hunt(projector, (2, 2, 2), restarts=restarts, seed=seed).rank == 4

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5(c)")
    def test_a_continuum_is_hunted_to_its_span(self):
        # span{|100>, |101>, |110>, |111>, |000> + 0.3|001>} holds a product vector at every a, and they span all 5
        # dimensions; its degree-6 polynomial vanishes only to rounding, and today the exact solve reports 6 hits of
        # rank 2 at every seed (with that solve forced to degenerate, the seesaw reads rank 4 at 12, 32 and 64 restarts)
        e = np.eye(8)
        projector = la.span_projector([e[4], e[5], e[6], e[7], e[0] + 0.3 * e[1]])
        for seed in range(3):
            assert subspace_product_hunt(projector, (2, 2, 2), restarts=12, seed=seed).rank == 5

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="CHANGES.md, PR 41 FOUND: the counter-seed rule default_rng([seed, s]) is not one-to-one",
    )
    def test_counter_seeds_draw_distinct_streams(self):
        # SeedSequence pads short entropy with zero words, so seed 2**32 + 5 sample 0 (words [5, 1, 0]) draws
        # the stream of seed 5 sample 1 (words [5, 1]); today both pairs below are equal
        raw = {"command": "perturb-scan", "angles": [np.pi / 4] * 3, "noise": {"kind": "random", "count": 2},
               "epsilon_grid": [1e-3]}
        high, low = (run_command(parse_config({**raw, "seed": seed})).payload["samples"] for seed in (2**32 + 5, 5))
        assert high[0]["compression_eigenvalues"] != low[1]["compression_eigenvalues"]
        assert not np.array_equal(upb._start_draws([2**32 + 5, 0], 12, 12), upb._start_draws([5, 1], 12, 12))

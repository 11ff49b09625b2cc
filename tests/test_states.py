"""Unit tests of ``states``: labels, party structures, density matrices, the projector basis and PPT verdicts.

Every input ``states`` and the ``UPB`` type reject is a row of ``tests/test_rejections.py`` but the cuts
``min_pt_eigenvalue`` refuses, tested here; the other tests run the inputs they accept.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upbkit import linalg, states


def permutation_determinant(m: np.ndarray) -> float:
    """Brute-force determinant by signed permutation expansion (oracle only)."""
    n = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


class TestLocalVectors:
    def test_values(self):
        assert np.array_equal(states.local_vector("0"), [1, 0])
        assert np.array_equal(states.local_vector("1"), [0, 1])
        assert np.allclose(states.local_vector("phi1"), np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(states.local_vector("phi2"), np.array([1, 1j]) / np.sqrt(2))


class TestPartyStructure:
    # a party structure is the tuple of local dims, and linalg.party_dims its one check
    def test_dims(self):
        assert linalg.party_dims([2, 3, 2]) == (2, 3, 2)
        assert linalg.party_dims((1, 2)) == (1, 2)

    def test_density_matrix_checks_its_dims(self):
        # numpy integers are integers, and are stored as Python ints
        rho = states.DensityMatrix(np.eye(8) / 8, np.array([2, 4]))
        assert rho.local_dims == (2, 4) and all(type(d) is int for d in rho.local_dims)

    def test_bipartitions_three_parties(self):
        cuts = states.bipartitions(3)
        assert cuts == [(0,), (0, 1), (0, 2)]

    def test_bipartitions_four_parties(self):
        cuts = states.bipartitions(4)
        assert len(cuts) == 2 ** 3 - 1
        assert all(0 in c for c in cuts)


class TestProjectorBasis:
    def test_e000_is_corner_projector(self):
        e = states.projector_combination({("0", "0", "0"): 1.0})
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.array_equal(e, expected)

    def test_single_phi1_is_plus_projector(self):
        e = states.projector_combination({("phi1",): 1.0})
        assert np.allclose(e, np.full((2, 2), 0.5))

    def test_all_are_rank_one_projectors(self):
        for m in states.projector_basis(3):
            assert np.max(np.abs(m @ m - m)) < 1e-14
            assert abs(np.trace(m).real - 1.0) < 1e-14
            assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_count_and_order(self):
        basis = states.projector_basis(2)
        assert basis.shape == (16, 4, 4)
        labels = states.basis_labels(2)
        assert labels[0] == ("0", "0") and labels[-1] == ("phi2", "phi2")
        assert labels == sorted(labels, key=lambda mu: tuple(states.LABELS.index(l) for l in mu))

    def test_stack_is_cached_and_read_only(self):
        basis = states.projector_basis(3)
        assert states.projector_basis(3) is basis
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0

    def test_combination_follows_label_order(self):
        # oracle: each labelled projector from its expanded product vector
        for mu in states.basis_labels(2):
            v = states.expand_locals([states.local_vector(l) for l in mu])
            e = states.projector_combination({mu: 1.0})
            assert np.max(np.abs(e - np.outer(v, v.conj()))) < 1e-15

    def test_gram_determinant_single_qubit(self):
        # oracle: explicit signed-permutation expansion of the 4x4 Gram
        gram = states.projector_basis_gram(1)
        det = permutation_determinant(gram)
        assert abs(det - 0.25) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gram_nonsingular(self, n):
        gram = states.projector_basis_gram(n)
        vals = np.linalg.eigvalsh(gram)
        assert vals[0] > 1e-6
        # Gram matches the direct double loop over basis projectors
        basis = states.projector_basis(n)
        direct = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
        assert np.max(np.abs(gram - direct)) < 1e-12

    def test_gram_factors_over_qubits(self):
        gram = states.projector_basis_gram(3)
        g1 = states.projector_basis_gram(1)
        assert np.max(np.abs(gram - np.kron(np.kron(g1, g1), g1))) < 1e-15

    def test_decomposition_round_trip(self):
        rng = np.random.default_rng(5)
        rho = states.random_density_matrix((2, 2), rng)
        coeffs = states.decompose_in_projector_basis(rho)
        recon = np.zeros((4, 4), dtype=complex)
        for c, e in zip(coeffs, states.projector_basis(2)):
            recon += c * e
        assert np.max(np.abs(recon - rho.matrix)) < 1e-10


class TestProductVectors:
    def test_expand_corners(self):
        e0 = states.local_vector("0")
        e1 = states.local_vector("1")
        assert np.array_equal(states.expand_locals((e0, e0, e0)), np.eye(8)[0])
        assert np.array_equal(states.expand_locals((e1, e1, e1)), np.eye(8)[7])
        # stacks of one vector per row expand row by row
        stacks = (np.array([e0, e1]),) * 3
        assert np.array_equal(states.expand_locals(stacks), np.eye(8)[[0, 7]])

    def test_expand_plus_zero(self):
        v = (states.local_vector("phi1"), states.local_vector("0"))
        assert np.allclose(states.expand_locals(v), np.array([1, 0, 1, 0]) / np.sqrt(2))
        assert np.allclose(states.product_projector(v), np.outer([1, 0, 1, 0], [1, 0, 1, 0]) / 2)

    def test_expand_locals_of_empty_stacks(self):
        stacks = (np.zeros((0, 2), complex), np.zeros((0, 3), complex), np.zeros((0, 2), complex))
        assert states.expand_locals(stacks).shape == (0, 12)


class TestDensityMatrix:
    def test_matrix_is_a_read_only_copy(self):
        m = np.eye(2) / 2
        rho = states.DensityMatrix(m, (2,))
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = -5.0
        # the caller's array stays writable and changing it leaves the state alone
        m[0, 0] = -5.0
        assert np.array_equal(rho.matrix, np.eye(2) / 2)


def ghz_state():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    return states.DensityMatrix(np.outer(v, v.conj()), (2, 2, 2), validate=False)


class TestPPT:
    def test_maximally_mixed(self):
        rho = states.DensityMatrix(np.eye(8) / 8, (2, 2, 2), validate=False)
        for cut in states.bipartitions(len(rho.local_dims)):
            assert abs(states.min_pt_eigenvalue(rho, cut) - 1 / 8) < 1e-12

    def test_bell_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = states.DensityMatrix(np.outer(v, v.conj()), (2, 2), validate=False)
        assert abs(states.min_pt_eigenvalue(rho, (1,)) - (-0.5)) < 1e-12

    @pytest.mark.parametrize("side_a", [(0, 1, 2), (3,), (0, 5)])
    def test_rejects_a_cut_that_is_not_proper(self, side_a):
        # the partial transpose checks the cut against the parties with linalg.cut_parties
        shown = re.escape(str(list(side_a)))
        with pytest.raises(ValueError, match=rf"^cut parties {shown} must be a nonempty proper subset of 0\.\.2$"):
            states.min_pt_eigenvalue(ghz_state(), side_a)

    @pytest.mark.parametrize("scale, ppt", [(0.5, True), (2.0, False)])
    def test_ppt_threshold_is_the_zero_eigenvalue_threshold(self, scale, ppt):
        # a diagonal matrix is its own partial transpose, so every cut's min PT eigenvalue is m
        m = -scale * linalg.DEFAULT_TOL
        rho = states.DensityMatrix(np.diag([m] + [(1 - m) / 7] * 7), (2, 2, 2), validate=False)
        for verdict in states.is_ppt_all_cuts(rho).values():
            assert verdict.min_eigenvalue == pytest.approx(m, rel=1e-6)
            assert verdict.ppt is ppt

    def test_ghz_npt_on_all_cuts(self):
        report = states.is_ppt_all_cuts(ghz_state())
        assert len(report) == 3
        for verdict in report.values():
            assert not verdict.ppt
            assert verdict.min_eigenvalue < -0.49

    def test_complement_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = states.random_density_matrix((2, 2, 2), rng)
            first = states.min_pt_eigenvalue(rho, (0,))
            second = states.min_pt_eigenvalue(rho, (1, 2))
            assert abs(first - second) < 1e-11

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_separable_mixtures_stay_ppt(self, seed):
        rng = np.random.default_rng(seed)
        basis = states.projector_basis(3)
        weights = rng.random(10)
        weights /= weights.sum()
        picks = rng.integers(0, len(basis), size=10)
        mix = sum(w * basis[i] for w, i in zip(weights, picks))
        rho = states.DensityMatrix(mix, (2, 2, 2), validate=False)
        for verdict in states.is_ppt_all_cuts(rho).values():
            assert verdict.ppt

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upbkit import linalg, states
from upbkit.upb import UPB


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

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown label"):
            states.local_vector("phi3")


class TestPartyStructure:
    # a party structure is the tuple of local dims, and linalg.party_dims its one check
    def test_dims(self):
        assert linalg.party_dims([2, 3, 2]) == (2, 3, 2)
        assert linalg.party_dims((1, 2)) == (1, 2)

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            linalg.party_dims((1,))
        with pytest.raises(ValueError):
            linalg.party_dims((0, 2))
        with pytest.raises(ValueError):
            linalg.party_dims(())

    def test_density_matrix_checks_its_dims(self):
        # the product is 8, so only the rule that every dim is positive can reject them
        with pytest.raises(ValueError, match="at least 1"):
            states.DensityMatrix(np.eye(8) / 8, (-2, -4))
        rho = states.DensityMatrix(np.eye(8) / 8, np.array([2, 4]))
        assert rho.local_dims == (2, 4) and all(type(d) is int for d in rho.local_dims)

    def test_random_draws_check_their_dims(self):
        # the draws take no dims that linalg.party_dims rejects, before numpy sees them
        rng = np.random.default_rng(0)
        for draw, dims in ((states.random_product_vector, (2, 0)), (states.random_product_vector, ()),
                           (states.random_density_matrix, (2, -1))):
            with pytest.raises(ValueError, match="must each be at least 1, with product at least 2"):
                draw(dims, rng)

    def test_bipartitions_three_parties(self):
        cuts = states.bipartitions(3)
        assert cuts == [(0,), (0, 1), (0, 2)]

    def test_bipartitions_four_parties(self):
        cuts = states.bipartitions(4)
        assert len(cuts) == 2 ** 3 - 1
        assert all(0 in c for c in cuts)

    def test_bipartition_validation(self):
        # linalg.cut_parties is the one check of a cut; bipartitions lists cuts it accepts
        with pytest.raises(ValueError):
            linalg.cut_parties((), 3)
        with pytest.raises(ValueError, match="proper subset"):
            linalg.cut_parties((0, 1, 2), 3)
        with pytest.raises(ValueError, match=r"proper subset of 0\.\.2"):
            linalg.cut_parties((1, 3), 3)
        with pytest.raises(ValueError, match=r"proper subset of 0\.\.2"):
            linalg.cut_parties((-1, 0), 3)
        for n in (3, 4):
            for cut in states.bipartitions(n):
                assert linalg.cut_parties(cut, n) == cut
        with pytest.raises(ValueError, match="at least two parties"):
            states.bipartitions(1)

    def test_indices_and_dims_must_be_integers(self):
        # int() would make the cut (0.7,) the cut (0,) and the dims (2.9, 2) a pair of qubits
        with pytest.raises(TypeError):
            linalg.cut_parties((0.7,), 3)
        with pytest.raises(TypeError):
            linalg.party_dims((2.9, 2))
        # operator.index alone would make [True] the cut (1,) and (2, True, 2) the dims (2, 1, 2)
        with pytest.raises(TypeError, match="cut party"):
            linalg.cut_parties([True], 3)
        with pytest.raises(TypeError, match="local dim"):
            linalg.party_dims([2, True, 2])
        # numpy integers are integers, and are stored as Python ints
        cut = linalg.cut_parties(tuple(np.array([2, 0])), 3)
        assert cut == (0, 2) and all(type(k) is int for k in cut)
        dims = linalg.party_dims(tuple(np.array([2, 3])))
        assert dims == (2, 3) and all(type(d) is int for d in dims)


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

    def test_combination_rejects_mixed_widths(self):
        with pytest.raises(ValueError, match="widths"):
            states.projector_combination({("0", "1", "0"): 1.0, ("phi1", "phi2"): 0.0})
        with pytest.raises(ValueError, match="unknown label '2'; expected one of"):
            states.projector_combination({("0", "2"): 1.0})

    def test_size_guard(self):
        with pytest.raises(ValueError):
            states.projector_basis(7)
        with pytest.raises(ValueError):
            states.projector_basis(0)
        with pytest.raises(ValueError, match="at least one qubit"):
            states.basis_labels(0)

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

    def test_decomposition_needs_qubits(self):
        rho = states.DensityMatrix(np.eye(9) / 9, (3, 3), validate=False)
        with pytest.raises(ValueError, match="requires qubit parties"):
            states.decompose_in_projector_basis(rho)


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

    def test_rejects_a_local_that_is_not_a_vector(self):
        # a set of product vectors holds one (m, d_k) stack per party: a bare local
        # vector in a party's place is 1-D, not a stack of them
        e0 = np.eye(2)[:1]
        with pytest.raises(ValueError, match=r"stacks of shapes \[\(1, 2\), \(2,\), \(1, 2\)\] are not one \(m, d_k\) stack per party"):
            UPB((e0, np.array([1.0, 0.0]), e0))

    def test_rejects_no_locals(self):
        # with no party there is nothing to expand: expand_locals would index an empty tuple
        with pytest.raises(ValueError, match=r"stacks of shapes \[\] are not one \(m, d_k\) stack per party"):
            UPB(())


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match=r"^trace is 2.0, expected 1$"):
            states.DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="positive semidefinite"):
            states.DensityMatrix(m, (2,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            states.DensityMatrix(np.eye(4) / 4, (2, 2, 2))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not finite"):
            states.DensityMatrix(np.full((8, 8), np.nan), (2, 2, 2))

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
        with pytest.raises(ValueError, match="proper subset"):
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

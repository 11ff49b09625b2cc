import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from upbkit import linalg as la

from conftest import random_hermitian


def bell_projector():
    # |phi+> = (|00> + |11>)/sqrt(2)
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


# Hand-diagonalized oracle: the partial transpose of |phi+><phi+| is
#   1/2 * [[1,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,1]]
# whose middle swap block contributes +-1/2 and the corners +1/2 each.
BELL_PT_SPECTRUM = np.array([-0.5, 0.5, 0.5, 0.5])


class TestHermitianEig:
    """``eigh_unchecked``; the rejection goes through ``as_hermitian``, the check in front of it."""

    def test_identity(self):
        vals, vecs = la.eigh_unchecked(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4))

    def test_diagonal_sorted_ascending(self):
        vals, vecs = la.eigh_unchecked(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])
        # permuted standard basis
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    def test_bell_partial_transpose_spectrum(self):
        pt = la.partial_transpose(bell_projector(), (2, 2), (1,))
        vals, _ = la.eigh_unchecked(pt)
        assert np.max(np.abs(vals - BELL_PT_SPECTRUM)) < 1e-12

    def test_reconstruction_on_random_matrices(self):
        # module invariant: 1000 random Hermitian 8x8, max-entry error <= 1e-9 * (1 + maxabs)
        rng = np.random.default_rng(314159)
        worst = 0.0
        for _ in range(1000):
            h = random_hermitian(rng, 8)
            vals, vecs = la.eigh_unchecked(h)
            err = np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h))
            worst = max(worst, err / (1.0 + np.max(np.abs(h))))
        assert worst <= 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_eigenpair_residuals_and_orthonormality(self, seed, n):
        h = random_hermitian(np.random.default_rng(seed), n)
        vals, vecs = la.eigh_unchecked(h)
        scale = 1.0 + np.max(np.abs(h))
        for k in range(n):
            res = np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k])
            assert res <= 1e-10 * scale
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) <= 1e-10
        assert np.all(np.diff(vals) >= 0)

    def test_agrees_with_numpy(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            h = random_hermitian(rng, 8)
            vals, _ = la.eigh_unchecked(h)
            assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-11

    def test_deterministic(self):
        h = random_hermitian(np.random.default_rng(99), 8)
        first = la.eigh_unchecked(h.copy())
        second = la.eigh_unchecked(h.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            la.as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_matches_single_solves(self):
        rng = np.random.default_rng(4)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(5)])
        vals, vecs = la.eigh_unchecked(stack)
        assert vals.shape == (5, 3) and vecs.shape == (5, 3, 3)
        for h, v in zip(stack, vals):
            assert np.max(np.abs(v - la.eigh_unchecked(h).eigenvalues)) < 1e-13

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def fail(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(la.ConvergenceError, match="did not converge"):
            la.eigh_unchecked(np.eye(2))


class TestAsHermitian:
    def test_rejects_a_stack_with_one_bad_matrix(self):
        # one matrix only: a stack is a shape error, whether or not one of its matrices is bad
        stack = np.stack([np.eye(4)] * 3).astype(complex)
        for bad in (0.0, 1e-6):
            stack[1, 2, 0] = bad
            with pytest.raises(ValueError, match="expected a square matrix, got shape \\(3, 4, 4\\)"):
                la.as_hermitian(stack)
        with pytest.raises(ValueError, match="not Hermitian: max \\|H - H\\^dag\\| = 1.000e-06"):
            la.as_hermitian(stack[1])

    def test_rejects_non_square(self):
        for shape in ((3,), (2, 3), (4, 2, 3)):
            with pytest.raises(ValueError, match="expected a square matrix"):
                la.as_hermitian(np.zeros(shape))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, complex(0.0, np.inf)):
            for index in ((0, 0), (0, 1)):
                m = np.eye(3, dtype=complex)
                m[index] = bad
                with pytest.raises(ValueError, match="not finite"):
                    la.as_hermitian(m)

    def test_output_is_hermitian_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            near = random_hermitian(rng, 8)
            near += 1e-14 * (rng.standard_normal(near.shape) + 1j * rng.standard_normal(near.shape))
            out = la.as_hermitian(near)
            assert np.array_equal(out, out.conj().T)
            assert np.max(np.abs(out - near)) < 1e-13


class TestEigvalshUnchecked:
    def test_matches_eigh_single_and_stacked(self):
        rng = np.random.default_rng(41)
        stack = np.stack([random_hermitian(rng, 8) for _ in range(6)]).reshape(2, 3, 8, 8)
        vals = la.eigvalsh_unchecked(stack)
        assert vals.shape == (2, 3, 8)
        for h, v in zip(stack.reshape(-1, 8, 8), vals.reshape(-1, 8)):
            expected = la.eigh_unchecked(h).eigenvalues
            assert np.max(np.abs(la.eigvalsh_unchecked(h) - expected)) < 1e-13
            assert np.max(np.abs(v - expected)) < 1e-13

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def fail(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(la.ConvergenceError, match="did not converge"):
            la.eigvalsh_unchecked(np.eye(2))


class TestPartialTranspose:
    def test_diagonal_fixed_point(self):
        d = np.diag(np.arange(8.0))
        assert np.array_equal(la.partial_transpose(d, (2, 2, 2), (1,)), d)

    def test_bell_min_eigenvalue(self):
        pt = la.partial_transpose(bell_projector(), (2, 2), (1,))
        vals, _ = la.eigh_unchecked(pt)
        assert abs(vals[0] - (-0.5)) < 1e-12

    def test_involution_exact(self):
        rng = np.random.default_rng(7)
        for shape in [(8, 8)] * 100 + [(5, 8, 8), (2, 3, 8, 8)]:
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            cut = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)][rng.integers(6)]
            twice = la.partial_transpose(la.partial_transpose(m, (2, 2, 2), cut), (2, 2, 2), cut)
            assert np.array_equal(twice, m)

    def test_stack_matches_per_matrix_loop(self):
        rng = np.random.default_rng(10)
        for dims, shape in (((2, 2, 2), (4, 8, 8)), ((2, 3), (2, 3, 6, 6))):
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for cut in ((0,), (1,), (0, 2))[: len(dims)]:
                out = la.partial_transpose(stack, dims, cut)
                flat = stack.reshape(-1, *shape[-2:])
                loop = np.array([la.partial_transpose(m, dims, cut) for m in flat])
                assert out.shape == shape
                assert np.array_equal(out.reshape(flat.shape), loop)

    def test_trace_preserved_exactly(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.trace(la.partial_transpose(m, (2, 2, 2), (0, 2))) == np.trace(m)

    def test_qubit_qutrit_dims(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        pt = la.partial_transpose(m, (2, 3), (0,))
        # block structure: transposing party 0 swaps the two 3x3 off-diagonal blocks
        assert np.array_equal(pt[:3, 3:], m[3:, :3])
        assert np.array_equal(pt[3:, :3], m[:3, 3:])

    def test_rejects_bad_cut(self):
        m = np.eye(8)
        with pytest.raises(ValueError):
            la.partial_transpose(m, (2, 2, 2), ())
        with pytest.raises(ValueError):
            la.partial_transpose(m, (2, 2, 2), (0, 1, 2))
        with pytest.raises(ValueError):
            la.partial_transpose(m, (2, 2), (0,))
        for shape in ((3, 8, 4), (3, 4, 4), (8,)):
            with pytest.raises(ValueError, match="does not match local dims"):
                la.partial_transpose(np.zeros(shape), (2, 2, 2), (0,))

    def test_parties_and_dims_must_be_integers(self):
        # int() would truncate party 0.5 to party 0 and dimension 2.9 to 2
        m = np.arange(64.0).reshape(8, 8)
        with pytest.raises(TypeError):
            la.partial_transpose(m, (2, 2, 2), [0.5])
        with pytest.raises(TypeError):
            la.partial_transpose(m, (2.9, 2, 2), [0])
        # numpy integers are integers
        expected = la.partial_transpose(m, (2, 2, 2), [1])
        assert np.array_equal(la.partial_transpose(m, np.array([2, 2, 2]), np.array([1])), expected)


class TestKernelAndRank:
    def test_diag_zero_kernel(self):
        # entries below DEFAULT_TOL in modulus count as kernel
        assert la.numerical_rank(np.diag([0.0, 0.0, 1.0])) == 1
        assert la.numerical_rank(np.diag([1e-10, -1e-10, 1.0])) == 1

    def test_identity_full_rank(self):
        assert la.numerical_rank(np.eye(8)) == 8

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_kernel_plus_rank_is_dim(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 6)
        # plant a kernel of known dimension by zeroing eigenvalues
        vals, vecs = np.linalg.eigh(h)
        planted = int(rng.integers(0, 4))
        vals[:planted] = 0.0
        h = vecs @ np.diag(vals) @ vecs.conj().T
        assert planted + la.numerical_rank(h) == 6

    def test_rank_rejects_nan(self):
        with pytest.raises(ValueError, match="not finite"):
            la.numerical_rank(np.full((8, 8), np.nan))


class TestSubspaceDistance:
    def test_identical_spans(self):
        vs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        assert la.subspace_distance(vs, vs) == 0.0

    def test_orthogonal_lines(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        assert abs(la.subspace_distance([e0], [e1]) - 1.0) < 1e-15

    def test_invariant_under_basis_change(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        mixed = [a[:, 0], a[:, 1]]
        rotated = [a[:, 0] + a[:, 1], 1j * a[:, 0] - a[:, 1]]
        assert la.subspace_distance(mixed, rotated) < 1e-12

    def test_span_projector(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        # the third vector depends on the first two
        vectors = [a[:, 0], a[:, 1], a[:, 0] - 2j * a[:, 1]]
        p = la.span_projector(vectors)
        assert np.abs(p - p.conj().T).max() < 1e-14
        assert np.abs(p @ p - p).max() < 1e-14
        assert abs(np.trace(p) - 2) < 1e-12
        with pytest.raises(ValueError, match="empty span"):
            la.span_projector([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_span_projector_rejects_an_entry_that_is_not_finite(self, bad):
        v = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, bad, 1.0])
        for spans in (la.span_projector, lambda vs: la.subspace_distance(vs, [v])):
            with pytest.raises(ValueError, match="not finite"):
                spans([v, w])

    def test_span_projector_drops_dependent(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        p = la.span_projector([v, 2 * v])
        assert abs(np.trace(p) - 1) < 1e-12
        assert np.max(np.abs(p - np.outer(v, v))) < 1e-15
        with pytest.raises(ValueError, match="empty span"):
            la.span_projector([np.zeros(2), 1e-10 * v])

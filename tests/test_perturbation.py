import numpy as np
import pytest

from upbkit import linalg as la
from upbkit import (
    DensityMatrix,
    NoiseEffect,
    PositivityError,
    UPB,
    basis_labels,
    is_ppt_all_cuts,
    kernel_product_basis,
    min_pt_eigenvalue,
    mixing_scan,
    perturb_local,
    perturb_mix,
    shifts_family,
    uniform_direction,
    upb_state,
)
from upbkit import cli
from upbkit.perturbation import entangled_pair_noise
from upbkit.states import expand_locals

from conftest import kernel_vectors

CUT0 = (0,)
ALL_CUTS = [(0,), (0, 1), (0, 2)]


def maximally_mixed():
    return DensityMatrix(np.eye(8) / 8, (2, 2, 2), validate=False)


def complexified_family(params=(0.4, 0.8, 1.2)):
    """Family members rotated by a complex local unitary on party 0.

    Local unitaries preserve orthogonality and unextendibility, but make the
    kernel product basis genuinely different from the members.
    """
    u = shifts_family(params)
    phi = 0.6
    rot = np.array(
        [[np.cos(phi), 1j * np.sin(phi)], [1j * np.sin(phi), np.cos(phi)]], dtype=complex
    )
    first, *rest = u.local_stacks
    return UPB((first @ rot.T, *rest))


class TestPerturbLocal:
    def test_zero_coefficients_leave_state_unchanged(self, pi4_state):
        coefficients = {mu: 0.0 for mu in basis_labels(3)}
        out = perturb_local(pi4_state, coefficients)
        assert np.max(np.abs(out.matrix - pi4_state.matrix)) < 1e-15

    def test_single_projector_grows_rank_by_one(self, pi4_state):
        coefficients = {("0", "0", "0"): 1e-3}
        out = perturb_local(pi4_state, coefficients)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
        vals = np.linalg.eigvalsh(out.matrix)
        assert vals[0] >= -1e-12
        # E(0,0,0) projects onto the first member, which lies in the kernel
        assert la.numerical_rank(out.matrix) == 5

    def test_negative_coefficient_can_violate_positivity(self, pi4_state):
        coefficients = {("phi1", "phi1", "phi1"): -1e-3}
        with pytest.raises(PositivityError):
            perturb_local(pi4_state, coefficients)

    def test_positivity_bound_is_the_state_bound(self):
        # an eigenvalue DensityMatrix would reject is rejected here too, and one it accepts passes
        rho = upb_state(shifts_family((0.3, 0.7, 1.1)))
        with pytest.raises(PositivityError, match="eigenvalue -5.0"):
            perturb_local(rho, {("0", "0", "0"): -5e-10})
        out = perturb_local(rho, {("0", "0", "0"): -5e-11})
        DensityMatrix(out.matrix, out.local_dims)

    def test_nonpositive_total_weight_rejected(self, pi4_state):
        with pytest.raises(PositivityError, match="trace nonpositive"):
            perturb_local(pi4_state, {("0", "0", "0"): 0.5, ("1", "1", "1"): -1.5})

    def test_weight_above_one_is_admissible(self, pi4_state):
        # renormalizing by 1 + total keeps any nonnegative map a state
        out = perturb_local(pi4_state, {("0", "1", "phi1"): 1.5})
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12

    def test_label_map_must_match_the_state(self, pi4_state):
        with pytest.raises(ValueError, match="party structure"):
            perturb_local(pi4_state, {("0", "1"): 1e-3})
        with pytest.raises(ValueError, match="one width"):
            perturb_local(pi4_state, {("0", "1"): 1e-3, ("0", "1", "0"): 1e-3})
        with pytest.raises(ValueError, match="unknown label"):
            perturb_local(pi4_state, {("0", "1", "2"): 1e-3})
        with pytest.raises(ValueError, match="one width"):
            perturb_local(pi4_state, {})
        qutrits = DensityMatrix(np.eye(9) / 9, (3, 3), validate=False)
        with pytest.raises(ValueError, match="qubit parties"):
            perturb_local(qutrits, {("0", "1"): 1e-3})


class TestPerturbMix:
    def test_small_epsilon_returns_close_to_state(self, pi4_state):
        rho1 = maximally_mixed()
        out = perturb_mix(pi4_state, rho1, 1e-9)
        assert np.max(np.abs(out.matrix - pi4_state.matrix)) < 1e-9

    def test_white_noise_stays_ppt(self, pi4_state):
        out = perturb_mix(pi4_state, maximally_mixed(), 0.01)
        for verdict in is_ppt_all_cuts(out).values():
            assert verdict.ppt

    def test_entangled_pair_noise_breaks_ppt_on_matching_cut(self, pi4_state):
        noise = entangled_pair_noise()
        out = perturb_mix(pi4_state, noise, 0.01)
        assert min_pt_eigenvalue(out, CUT0) < 0

    def test_epsilon_guard(self, pi4_state):
        # any finite eps > 0 is a point on the ray; only the first-order scan keeps (0, 0.1]
        for eps in (0.0, -0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="epsilon must be finite and positive"):
                perturb_mix(pi4_state, maximally_mixed(), eps)

    def test_rejects_noise_of_other_parties(self, pi4_state):
        two_qubit = DensityMatrix(np.eye(4) / 4, (2, 2), validate=False)
        with pytest.raises(ValueError, match="party structure"):
            perturb_mix(pi4_state, two_qubit, 0.01)

    def test_large_epsilon_is_the_convex_combination(self, pi4_state):
        out = perturb_mix(pi4_state, maximally_mixed(), 0.5)
        assert np.array_equal(out.matrix, (pi4_state.matrix + 0.5 * (np.eye(8) / 8)) / 1.5)


class TestKernelProductBasis:
    def test_real_family_reproduces_members(self, pi4_upb):
        for cut in ALL_CUTS:
            members = expand_locals(pi4_upb.local_stacks).T
            basis = kernel_product_basis(pi4_upb, cut)
            assert basis.shape == (8, 4)
            assert np.max(np.abs(basis - members)) < 1e-15

    def test_conjugation_flips_phases(self):
        phi2 = np.array([1.0, 1.0j]) / np.sqrt(2)
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        u = UPB((np.array([e0, e1]), np.array([phi2, phi2])))
        out = kernel_product_basis(u, (1,))
        flipped = np.array([1.0, -1.0j]) / np.sqrt(2)
        assert out.shape == (4, 2)
        assert np.max(np.abs(out[:, 0] - np.kron(e0, flipped))) < 1e-15
        assert np.max(np.abs(out[:, 1] - np.kron(e1, flipped))) < 1e-15

    def test_output_is_orthonormal(self):
        u = complexified_family()
        for cut in ALL_CUTS:
            basis = kernel_product_basis(u, cut)
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_spans_the_kernel_of_the_partial_transpose(self):
        # the span-equality statement, checked numerically against the eigensolver
        rng = np.random.default_rng(1618)
        for _ in range(15):
            params = tuple(rng.uniform(0.02, np.pi / 2 - 0.02, size=3))
            u = shifts_family(params)
            rho = upb_state(u)
            for cut in ALL_CUTS:
                pt = la.partial_transpose(rho.matrix, (2, 2, 2), cut)
                numerical = kernel_vectors(pt)
                conjugated = list(kernel_product_basis(u, cut).T)
                assert la.subspace_distance(numerical, conjugated) < 1e-9
                assert_pt_is_kernel_complement(pt, u, cut)

    def test_complex_family_kernel_differs_from_member_span(self):
        u = complexified_family()
        members = list(u.vectors.T)
        conjugated = list(kernel_product_basis(u, CUT0).T)
        assert la.subspace_distance(members, conjugated) > 1e-3
        # and the lemma still holds for the complex family
        rho = upb_state(u)
        pt = la.partial_transpose(rho.matrix, (2, 2, 2), CUT0)
        assert la.subspace_distance(kernel_vectors(pt), conjugated) < 1e-9
        assert_pt_is_kernel_complement(pt, u, CUT0)


def assert_pt_is_kernel_complement(pt, u, cut):
    """The partial transpose of a UPB state is ``(I - K K^dag) / (D - m)``, K the conjugated kernel basis."""
    k = kernel_product_basis(u, cut)
    d = len(u.vectors)
    assert np.max(np.abs(pt - (np.eye(d) - k @ k.conj().T) / (d - u.size))) < 1e-14


def scan_one(noise, u, cut=CUT0, epsilons=(0.01,)):
    """The mixing scan of a single noise state."""
    return mixing_scan(u, [noise], cut, epsilons)


class TestKernelCompression:
    def test_white_noise_gives_scaled_identity(self, pi4_upb):
        # a Hermitian compression equals I/8 iff all its eigenvalues are 1/8
        lam = scan_one(maximally_mixed(), pi4_upb).compression_eigenvalues[0]
        assert np.max(np.abs(lam - 0.125)) < 1e-12

    def test_member_projector_is_rank_one(self, pi4_upb):
        e000 = np.zeros((8, 8), dtype=complex)
        e000[0, 0] = 1.0
        noise = DensityMatrix(e000, (2, 2, 2), validate=False)
        lam = scan_one(noise, pi4_upb).compression_eigenvalues[0]
        # overlaps <psi_i|000> vanish except for the first member, so the
        # compression is a rank-1 projector with top eigenvalue 1
        assert np.max(np.abs(lam - np.array([0.0, 0.0, 0.0, 1.0]))) < 1e-12

    def test_orthogonal_support_gives_zero(self, pi4_upb, pi4_state):
        # a Hermitian compression vanishes iff all its eigenvalues do
        lam = scan_one(pi4_state, pi4_upb).compression_eigenvalues[0]
        assert np.max(np.abs(lam)) < 1e-14


class TestClassification:
    def test_white_noise_preserves_ppt(self, pi4_upb):
        scan = scan_one(maximally_mixed(), pi4_upb)
        assert scan.verdicts == (NoiseEffect.PPT_PRESERVING,)
        assert abs(scan.compression_eigenvalues[0, 0] - 0.125) < 1e-12

    def test_entangled_pair_noise_induces_npt(self, pi4_upb, pi4_state):
        noise = entangled_pair_noise()
        scan = scan_one(noise, pi4_upb)
        assert scan.verdicts == (NoiseEffect.NPT_INDUCING,)
        assert scan.compression_eigenvalues[0, 0] < -1e-3
        # exact spectrum confirms a negative eigenvalue at eps = 1e-3
        mixed = perturb_mix(pi4_state, noise, 1e-3)
        assert min_pt_eigenvalue(mixed, CUT0) < -1e-9

    def test_orthogonal_support_is_degenerate(self, pi4_upb, pi4_state):
        assert scan_one(pi4_state, pi4_upb).verdicts == (NoiseEffect.DEGENERATE,)

    @pytest.mark.parametrize("scale, verdict", [(0.5, NoiseEffect.DEGENERATE), (2.0, NoiseEffect.PPT_PRESERVING)])
    def test_degeneracy_threshold_is_the_zero_eigenvalue_threshold(self, pi4_upb, pi4_state, scale, verdict):
        # the compression of (1 - t) rho_UPB + t I/8 is t/8 I up to rounding: lam_min = scale * DEFAULT_TOL
        t = 8 * scale * la.DEFAULT_TOL
        noise = DensityMatrix((1 - t) * pi4_state.matrix + t * np.eye(8) / 8, (2, 2, 2), validate=False)
        for cut in ALL_CUTS:
            scan = scan_one(noise, pi4_upb, cut)
            assert scan.compression_eigenvalues[0, 0] == pytest.approx(scale * la.DEFAULT_TOL, rel=1e-6)
            assert scan.verdicts == (verdict,)


class TestUniformDirection:
    def test_sums_to_one(self):
        d = uniform_direction(3)
        assert abs(sum(d.values()) - 1.0) < 1e-12
        assert min(d.values()) >= 0
        assert len(d) == 64


SCAN_NOISES = [
    {"kind": "white"},
    {"kind": "npt_projector"},
    {"kind": "random", "count": 3},
    {"kind": "local", "coefficients": {"0,phi1,1": 0.4, "phi2,0,phi1": 0.3, "1,1,phi2": 0.2}},
]


class TestMixingScan:
    @pytest.mark.parametrize("cut", ALL_CUTS)
    @pytest.mark.parametrize("noise", SCAN_NOISES, ids=lambda n: n["kind"])
    def test_perturb_scan_equals_per_epsilon_referee(self, noise, cut):
        # the stacked scan against one scan of each sample alone and one
        # perturb_mix + min_pt_eigenvalue per sample and epsilon, float for float
        config = cli.parse_config({
            "command": "perturb-scan", "seed": 17, "angles": [0.3, 0.7, 1.1], "noise": noise,
            "epsilon_grid": [1e-4, 1e-3, 1e-2, 1e-1], "cut": list(cut),
        })
        payload = cli.run_command(config).payload
        u = shifts_family(config["angles"])
        rho = upb_state(u)
        _, noise_samples = cli._NOISE_KINDS[noise["kind"]]
        samples = noise_samples(config, u.local_dims)
        assert len(payload["samples"]) == len(samples)
        for (name, rho1), row in zip(samples, payload["samples"]):
            single = mixing_scan(u, [rho1], cut, config["epsilon_grid"])
            (verdict,) = single.verdicts
            lam = [float(x) for x in single.compression_eigenvalues[0]]
            assert row["noise"] == name
            assert row["verdict"] == verdict.value
            assert row["lambda_min"] == lam[0]
            assert row["compression_eigenvalues"] == lam
            decided_by = "exact" if verdict is NoiseEffect.DEGENERATE else "first_order"
            expected = []
            for eps in config["epsilon_grid"]:
                predicted = eps * lam[0]
                exact = min_pt_eigenvalue(perturb_mix(rho, rho1, eps), cut)
                expected.append({
                    "epsilon": eps, "predicted_min": predicted, "exact_min": exact,
                    "abs_error": abs(predicted - exact), "decided_by": decided_by,
                })
            assert row["per_epsilon"] == expected

    def test_epsilon_guard(self, pi4_upb):
        for grid in ([0.0], [0.01, 0.2], [-1e-3]):
            with pytest.raises(ValueError, match="epsilon"):
                mixing_scan(pi4_upb, [maximally_mixed()], CUT0, grid)

    def test_rejects_mismatched_noise(self, pi4_upb):
        two_qubit = DensityMatrix(np.eye(4) / 4, (2, 2), validate=False)
        with pytest.raises(ValueError, match="party structure"):
            mixing_scan(pi4_upb, [maximally_mixed(), two_qubit], CUT0, [0.01])

    def test_rejects_an_empty_noise_list(self, pi4_upb):
        with pytest.raises(ValueError, match="needs at least one noise state"):
            mixing_scan(pi4_upb, [], CUT0, [0.01])

    def test_rejects_bad_cut(self, pi4_upb):
        with pytest.raises(ValueError, match="proper subset"):
            mixing_scan(pi4_upb, [maximally_mixed()], (0, 1, 2), [0.01])

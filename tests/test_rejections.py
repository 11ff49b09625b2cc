"""The inputs the library refuses, one row each: the call, the error type and the whole message.

A row is ``pytest.param(call, error_type, "^whole message$", id="module.function-case")``,
grouped by module in stack order: linalg, states, upb, perturbation.
Each input rule is a row once per entry point that a test passes it through.
The unit modules keep what a row cannot hold: guards reached only by
patching a routine (LAPACK failures, the seesaw's drop guard, NaN objectives
and the tie rule), writes into read-only arrays and frozen instances, and
the inputs a rule accepts, and, whole messages matched, the guard tests not
yet folded: ``witness``'s, ``perturbation``'s older ones and two more.
"""

import numpy as np
import pytest

from upbkit import linalg, perturbation, states, upb

NAN = float("nan")
LABELS = r"\('0', '1', 'phi1', 'phi2'\)"
DIMS_RULE = "must each be at least 1, with product at least 2"
ANGLE_RULE = r"is at or outside \(0, pi/2\); the family degenerates there and the complement acquires product vectors"
E0, E1 = np.eye(2)
PLUS = (E0 + E1) / np.sqrt(2)
PI4 = upb.shifts_family((np.pi / 4,) * 3)
PI4_STATE = upb.upb_state(PI4)
WHITE = states.DensityMatrix(np.eye(8) / 8, (2, 2, 2))
QUTRITS = states.DensityMatrix(np.eye(9) / 9, (3, 3), validate=False)
NAN_PROJECTOR = np.full((8, 8), NAN)
STACK = np.stack([np.eye(8)] * 8)


def with_entry(n, index, value):
    """The n x n identity with one entry replaced."""
    m = np.eye(n, dtype=complex)
    m[index] = value
    return m


def rank5():
    """A generic rank-5 three-qubit projector: the hunt's exact solve, which draws nothing, is its path."""
    rng = np.random.default_rng(11)
    return linalg.span_projector(list((rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))).T))


REJECTED = [
    # linalg
    pytest.param(lambda: linalg.as_hermitian(STACK[:3, :4, :4]), ValueError,
                 r"^expected a square matrix, got shape \(3, 4, 4\)$", id="linalg.as_hermitian-stack"),
    pytest.param(lambda: linalg.as_hermitian(np.zeros((2, 3))), ValueError,
                 r"^expected a square matrix, got shape \(2, 3\)$", id="linalg.as_hermitian-not-square"),
    # off the diagonal a NaN passes the Hermiticity comparison, so only the finiteness check stops it
    pytest.param(lambda: linalg.as_hermitian(with_entry(3, (0, 1), NAN)), ValueError,
                 "^matrix has an entry that is not finite$", id="linalg.as_hermitian-nan"),
    pytest.param(lambda: linalg.as_hermitian(with_entry(4, (2, 0), 1e-6)), ValueError,
                 r"^matrix is not Hermitian: max \|H - H\^dag\| = 1\.000e-06$", id="linalg.as_hermitian-not-hermitian"),
    pytest.param(lambda: linalg.party_dims((1,)), ValueError,
                 rf"^local dims \(1,\) {DIMS_RULE}$", id="linalg.party_dims-one-party"),
    # the product rule answers before min() sees the empty tuple
    pytest.param(lambda: linalg.party_dims(()), ValueError, rf"^local dims \(\) {DIMS_RULE}$",
                 id="linalg.party_dims-no-party"),
    # the product is 8, so only the rule that every dim is positive can reject them
    pytest.param(lambda: linalg.party_dims((-2, -4)), ValueError,
                 rf"^local dims \(-2, -4\) {DIMS_RULE}$", id="linalg.party_dims-negative"),
    # int() would make the dims (2.9, 2) a pair of qubits, and operator.index alone (2, True, 2) the dims (2, 1, 2)
    pytest.param(lambda: linalg.party_dims((2.9, 2)), TypeError,
                 "^'float' object cannot be interpreted as an integer$", id="linalg.party_dims-float"),
    pytest.param(lambda: linalg.party_dims([2, True, 2]), TypeError,
                 "^a local dim must be an integer, got the bool True$", id="linalg.party_dims-bool"),
    pytest.param(lambda: linalg.cut_parties((), 3), ValueError,
                 r"^cut parties \[\] must be a nonempty proper subset of 0\.\.2$", id="linalg.cut_parties-empty"),
    pytest.param(lambda: linalg.cut_parties((0, 1, 2), 3), ValueError,
                 r"^cut parties \[0, 1, 2\] must be a nonempty proper subset of 0\.\.2$",
                 id="linalg.cut_parties-every-party"),
    pytest.param(lambda: linalg.cut_parties((1, 3), 3), ValueError,
                 r"^cut parties \[1, 3\] must be a nonempty proper subset of 0\.\.2$",
                 id="linalg.cut_parties-above-range"),
    pytest.param(lambda: linalg.cut_parties((-1, 0), 3), ValueError,
                 r"^cut parties \[-1, 0\] must be a nonempty proper subset of 0\.\.2$",
                 id="linalg.cut_parties-negative"),
    # int() would make the cut (0.7,) the cut (0,), and operator.index alone [True] the cut (1,)
    pytest.param(lambda: linalg.cut_parties((0.7,), 3), TypeError,
                 "^'float' object cannot be interpreted as an integer$", id="linalg.cut_parties-float"),
    pytest.param(lambda: linalg.cut_parties([True], 3), TypeError,
                 "^a cut party must be an integer, got the bool True$", id="linalg.cut_parties-bool"),
    pytest.param(lambda: linalg.partial_transpose(np.zeros(8), (2, 2, 2), (0,)), ValueError,
                 r"^matrix shape \(8,\) does not match local dims \(2, 2, 2\)$", id="linalg.partial_transpose-vector"),
    pytest.param(lambda: linalg.partial_transpose(np.zeros((3, 8, 4)), (2, 2, 2), (0,)), ValueError,
                 r"^matrix shape \(3, 8, 4\) does not match local dims \(2, 2, 2\)$",
                 id="linalg.partial_transpose-wrong-size"),
    pytest.param(lambda: linalg.partial_transpose(np.eye(8), (2, 2, 2), (0, 1, 2)), ValueError,
                 r"^cut parties \[0, 1, 2\] must be a nonempty proper subset of 0\.\.2$",
                 id="linalg.partial_transpose-every-party"),
    pytest.param(lambda: linalg.partial_transpose(np.eye(8), (2, 2, 2), [0.5]), TypeError,
                 "^'float' object cannot be interpreted as an integer$", id="linalg.partial_transpose-float-party"),
    pytest.param(lambda: linalg.partial_transpose(np.eye(8), (2, 2, 2), [True]), TypeError,
                 "^a cut party must be an integer, got the bool True$", id="linalg.partial_transpose-bool-party"),
    pytest.param(lambda: linalg.partial_transpose(np.eye(8), (2.9, 2, 2), [0]), TypeError,
                 "^'float' object cannot be interpreted as an integer$", id="linalg.partial_transpose-float-dim"),
    pytest.param(lambda: linalg.partial_transpose(np.eye(8), (2, 2, True, 2), [0]), TypeError,
                 "^a local dim must be an integer, got the bool True$", id="linalg.partial_transpose-bool-dim"),
    pytest.param(lambda: linalg.numerical_rank(NAN_PROJECTOR), ValueError,
                 "^matrix has an entry that is not finite$", id="linalg.numerical_rank-nan"),
    pytest.param(lambda: linalg.span_projector([]), ValueError, "^empty span$", id="linalg.span_projector-no-vectors"),
    pytest.param(lambda: linalg.span_projector([np.zeros(2), 1e-10 * PLUS]), ValueError,
                 "^empty span$", id="linalg.span_projector-below-tolerance"),
    # states
    pytest.param(lambda: states.local_vector("phi3"), ValueError,
                 rf"^unknown label 'phi3'; expected one of {LABELS}$", id="states.local_vector-unknown-label"),
    pytest.param(lambda: states.bipartitions(1), ValueError,
                 "^need at least two parties to bipartition$", id="states.bipartitions-one-party"),
    pytest.param(lambda: states.bipartitions(True), TypeError,
                 "^n_parties must be an integer, got the bool True$", id="states.bipartitions-bool"),
    pytest.param(lambda: states.DensityMatrix(np.eye(2), (2,)), ValueError,
                 r"^trace is 2\.0, expected 1$", id="states.DensityMatrix-trace"),
    pytest.param(lambda: states.DensityMatrix(np.diag([1.5, -0.5]), (2,)), ValueError,
                 r"^operator is not positive semidefinite: min eigenvalue -5\.000e-01$",
                 id="states.DensityMatrix-negative"),
    pytest.param(lambda: states.DensityMatrix(np.eye(4) / 4, (2, 2, 2)), ValueError,
                 r"^matrix dimension 4 does not match the party structure \(2, 2, 2\)$",
                 id="states.DensityMatrix-wrong-size"),
    pytest.param(lambda: states.DensityMatrix(NAN_PROJECTOR, (2, 2, 2)), ValueError,
                 "^matrix has an entry that is not finite$", id="states.DensityMatrix-nan"),
    pytest.param(lambda: states.DensityMatrix(np.eye(8) / 8, (-2, -4)), ValueError,
                 rf"^local dims \(-2, -4\) {DIMS_RULE}$", id="states.DensityMatrix-negative-dims"),
    # the draws take no dims that linalg.party_dims rejects, before numpy sees them
    pytest.param(lambda: states.random_product_vector((2, 0), np.random.default_rng(0)), ValueError,
                 rf"^local dims \(2, 0\) {DIMS_RULE}$", id="states.random_product_vector-zero-dim"),
    pytest.param(lambda: states.random_density_matrix((2, -1), np.random.default_rng(0)), ValueError,
                 rf"^local dims \(2, -1\) {DIMS_RULE}$", id="states.random_density_matrix-negative-dim"),
    pytest.param(lambda: states.projector_basis(7), ValueError, r"^n_qubits must be in 1\.\.6$",
                 id="states.projector_basis-seven"),
    pytest.param(lambda: states.projector_basis(0), ValueError, r"^n_qubits must be in 1\.\.6$",
                 id="states.projector_basis-zero"),
    pytest.param(lambda: states.basis_labels(0), ValueError, "^need at least one qubit$",
                 id="states.basis_labels-zero"),
    pytest.param(lambda: states.basis_labels(True), TypeError,
                 "^n_qubits must be an integer, got the bool True$", id="states.basis_labels-bool"),
    pytest.param(lambda: states.projector_combination({("0", "1", "0"): 1.0, ("phi1", "phi2"): 0.0}), ValueError,
                 r"^need labels of one width, got widths \[2, 3\]$", id="states.projector_combination-mixed-widths"),
    pytest.param(lambda: states.projector_combination({("0", "2"): 1.0}), ValueError,
                 rf"^unknown label '2'; expected one of {LABELS}$", id="states.projector_combination-unknown-label"),
    pytest.param(lambda: states.decompose_in_projector_basis(QUTRITS), ValueError,
                 "^projector basis decomposition requires qubit parties$",
                 id="states.decompose_in_projector_basis-qutrits"),
    # upb
    # with no party there is nothing to expand: expand_locals would index an empty tuple
    pytest.param(lambda: upb.UPB(()), ValueError,
                 r"^stacks of shapes \[\] are not one \(m, d_k\) stack per party$", id="upb.UPB-no-stacks"),
    # a bare local vector in a party's place is 1-D, not a stack of them
    pytest.param(lambda: upb.UPB((E0[None], E0, E0[None])), ValueError,
                 r"^stacks of shapes \[\(1, 2\), \(2,\), \(1, 2\)\] are not one \(m, d_k\) stack per party$",
                 id="upb.UPB-bare-vector"),
    pytest.param(lambda: upb.UPB((np.eye(2)[:1], np.eye(2), np.eye(2)[:1])), ValueError,
                 r"^the parties' stacks hold different member counts \[1, 2\]$", id="upb.UPB-unequal-member-counts"),
    # with no member the kernel compression is 0 x 0, so mixing_scan has no lam_min to read
    pytest.param(lambda: upb.UPB((np.zeros((0, 2)),) * 3), ValueError,
                 "^an unextendible product basis needs at least one member$", id="upb.UPB-no-member"),
    pytest.param(lambda: upb.UPB((np.eye(2),)), ValueError,
                 r"^an unextendible product basis must be incomplete \(m < D\)$", id="upb.UPB-complete"),
    # a NaN member never reaches the Gram product: its row fails the norm check, NaN-safe
    pytest.param(lambda: upb.UPB((np.array([E0, [NAN, 0.0]]), np.eye(2))), ValueError,
                 "^member 1: local vector 0 is not normalized$", id="upb.UPB-nan-norm"),
    # every party's norms are checked at once, and the error names the lowest party, then its lowest member:
    # party 0 fails at member 2, party 1 at member 0, and party 2 holds a NaN at member 1
    pytest.param(lambda: upb.UPB((np.array([E0, E1, 2 * E0, E1]), np.array([2 * E0, E1, E0, E1]),
                 np.array([E0, [NAN, 0.0], E0, E1]))), ValueError,
                 "^member 2: local vector 0 is not normalized$", id="upb.UPB-lowest-party-first"),
    # party 0 passes; party 1 fails at member 3, and the NaN sits in the later party 2, at member 0
    pytest.param(lambda: upb.UPB((np.array([E0, E1, E0, E1]), np.array([E0, E1, E0, 2 * E1]),
                 np.array([[NAN, 0.0], E1, E0, E1]))), ValueError,
                 "^member 3: local vector 1 is not normalized$", id="upb.UPB-nan-in-a-later-party"),
    # unit rows; members 1 and 2 overlap, and so do members 0 and 3, the first pair (i, j), i < j, in row order
    pytest.param(lambda: upb.UPB((np.array([E0, E1, E1, E0]), np.array([E0, E0, PLUS, PLUS]), np.array([E0] * 4))),
                 ValueError, r"^members 0 and 3 are not orthogonal: \|<i\|j>\| = 7\.071e-01$", id="upb.UPB-first-pair"),
    pytest.param(lambda: upb.shifts_angles((True, 0.7, 1.1)), TypeError,
                 "^angle a must be a number, got the bool True$", id="upb.shifts_angles-bool"),
    pytest.param(lambda: upb.shifts_angles((0.3, np.True_, 1.1)), TypeError,
                 "^angle b must be a number, got the bool True$", id="upb.shifts_angles-numpy-bool"),
    pytest.param(lambda: upb.shifts_family((True, 0.7, 1.1)), TypeError,
                 "^angle a must be a number, got the bool True$", id="upb.shifts_family-bool"),
    pytest.param(lambda: upb.shifts_family((0.3, 0.7)), ValueError,
                 "^the family takes three angles, one per party, got 2$", id="upb.shifts_family-two-angles"),
    pytest.param(lambda: upb.shifts_family(np.array([0.0, 0.5, 0.5])), ValueError,
                 rf"^angle a=0\.0 {ANGLE_RULE}$", id="upb.shifts_family-zero"),
    pytest.param(lambda: upb.shifts_family((0.3, np.pi / 2, 1.1)), ValueError,
                 rf"^angle b=1\.5707963267948966 {ANGLE_RULE}$", id="upb.shifts_family-right-angle"),
    pytest.param(lambda: upb.shifts_family((0.3, 0.7, NAN)), ValueError,
                 rf"^angle c=nan {ANGLE_RULE}$", id="upb.shifts_family-nan"),
    # two qubits with members |00>, |11>: m = 2, not n + 1
    pytest.param(lambda: upb.partition_margin(upb.UPB(np.array([np.eye(2), np.eye(2)]))), ValueError,
                 r"^the pair formula needs qubits and m = n \+ 1, got local dims \(2, 2\) and m = 2$",
                 id="upb.partition_margin-two-members"),
    pytest.param(lambda: upb.seesaw_max_product_overlap(np.eye(8) / 2, (2, 2, 2), 1), ValueError,
                 "^input is not an orthogonal projector within tolerance$",
                 id="upb.seesaw_max_product_overlap-not-projector"),
    # eye(4) is a projector, of dimension 4 against the parties' 8
    pytest.param(lambda: upb.seesaw_max_product_overlap(np.eye(4), (2, 2, 2), 1), ValueError,
                 r"^projector of shape \(4, 4\) does not match the party structure \(2, 2, 2\)$",
                 id="upb.seesaw_max_product_overlap-wrong-size"),
    # a stack of eight 8 x 8 projectors has the right leading size but is not one matrix
    pytest.param(lambda: upb.seesaw_max_product_overlap(STACK, (2, 2, 2), 1), ValueError,
                 r"^expected a square matrix, got shape \(8, 8, 8\)$", id="upb.seesaw_max_product_overlap-stack"),
    pytest.param(lambda: upb.seesaw_max_product_overlap(NAN_PROJECTOR, (2, 2, 2), 1), ValueError,
                 "^matrix has an entry that is not finite$", id="upb.seesaw_max_product_overlap-nan"),
    pytest.param(lambda: upb.seesaw_max_product_overlap(np.eye(4), (4,), 1), ValueError,
                 r"^the seesaw needs at least two parties, got local dims \(4,\)$",
                 id="upb.seesaw_max_product_overlap-one-party"),
    pytest.param(lambda: upb.seesaw_max_product_overlap(PI4.complement_projector, (2, 2, 2), 0), ValueError,
                 "^need at least one restart$", id="upb.seesaw_max_product_overlap-no-restart"),
    # int() would run seed 1.5 as seed 1, and operator.index alone runs seed True as seed 1
    pytest.param(lambda: upb.seesaw_max_product_overlap(PI4.complement_projector, (2, 2, 2), True), TypeError,
                 "^restarts must be an integer, got the bool True$", id="upb.seesaw_max_product_overlap-bool-restarts"),
    pytest.param(lambda: upb.seesaw_max_product_overlap(PI4.complement_projector, (2, 2, 2), 2, 1.5), TypeError,
                 "^'float' object cannot be interpreted as an integer$",
                 id="upb.seesaw_max_product_overlap-float-seed"),
    pytest.param(lambda: upb.seesaw_max_product_overlap(PI4.complement_projector, (2, 2, 2), 2, [2, False]), TypeError,
                 "^seed must be an integer, got the bool False$", id="upb.seesaw_max_product_overlap-bool-seed"),
    pytest.param(lambda: upb.seesaw_max_product_overlap(PI4.complement_projector, (2, 2, 2), 2, -1), ValueError,
                 "^a seed must be nonnegative, got -1$", id="upb.seesaw_max_product_overlap-negative-seed"),
    pytest.param(lambda: upb.subspace_product_hunt(np.eye(8) / 2, (2, 2, 2), 1), ValueError,
                 "^input is not an orthogonal projector within tolerance$",
                 id="upb.subspace_product_hunt-not-projector"),
    pytest.param(lambda: upb.subspace_product_hunt(np.eye(4), (2, 2, 2), 1), ValueError,
                 r"^projector of shape \(4, 4\) does not match the party structure \(2, 2, 2\)$",
                 id="upb.subspace_product_hunt-wrong-size"),
    pytest.param(lambda: upb.subspace_product_hunt(STACK, (2, 2, 2), 1), ValueError,
                 r"^expected a square matrix, got shape \(8, 8, 8\)$", id="upb.subspace_product_hunt-stack"),
    pytest.param(lambda: upb.subspace_product_hunt(NAN_PROJECTOR, (2, 2, 2), 1), ValueError,
                 "^matrix has an entry that is not finite$", id="upb.subspace_product_hunt-nan"),
    pytest.param(lambda: upb.subspace_product_hunt(np.diag([1.0, 0.0, 0.0, 0.0]), (4,), 1), ValueError,
                 r"^the seesaw needs at least two parties, got local dims \(4,\)$",
                 id="upb.subspace_product_hunt-one-party"),
    # the zero projector is a projector, onto the empty span
    pytest.param(lambda: upb.subspace_product_hunt(np.zeros((8, 8)), (2, 2, 2), 1), ValueError,
                 "^the projector's range is empty$", id="upb.subspace_product_hunt-empty-range"),
    # the seesaw rejects these before it runs; the rank-5 exact solve reads neither, and rejects them too
    pytest.param(lambda: upb.subspace_product_hunt(rank5(), (2, 2, 2), 0), ValueError,
                 "^need at least one restart$", id="upb.subspace_product_hunt-no-restart"),
    pytest.param(lambda: upb.subspace_product_hunt(rank5(), (2, 2, 2), 2.5), TypeError,
                 "^'float' object cannot be interpreted as an integer$", id="upb.subspace_product_hunt-float-restarts"),
    pytest.param(lambda: upb.subspace_product_hunt(rank5(), (2, 2, 2), 1, "x"), TypeError,
                 "^'str' object cannot be interpreted as an integer$", id="upb.subspace_product_hunt-string-seed"),
    pytest.param(lambda: upb.subspace_product_hunt(rank5(), (2, 2, 2), 1, [3, np.int64(-1)]), ValueError,
                 "^a seed must be nonnegative, got -1$", id="upb.subspace_product_hunt-negative-seed"),
    # the UPB complement's proof solves nothing, and checks seed and restarts as every hunt path does
    pytest.param(lambda: upb.upb_complement_hunt(PI4, 0), ValueError,
                 "^need at least one restart$", id="upb.upb_complement_hunt-no-restart"),
    pytest.param(lambda: upb.upb_complement_hunt(PI4, 2.5), TypeError,
                 "^'float' object cannot be interpreted as an integer$", id="upb.upb_complement_hunt-float-restarts"),
    pytest.param(lambda: upb.upb_complement_hunt(PI4, 1, 1.5), TypeError,
                 "^'float' object cannot be interpreted as an integer$", id="upb.upb_complement_hunt-float-seed"),
    pytest.param(lambda: upb.upb_complement_hunt(PI4, 1, -(2**64)), ValueError,
                 "^a seed must be nonnegative, got -18446744073709551616$", id="upb.upb_complement_hunt-negative-seed"),
    # perturbation
    pytest.param(lambda: perturbation.perturb_mix(PI4_STATE, WHITE, True), TypeError,
                 "^epsilon must be a number, got the bool True$", id="perturbation.perturb_mix-bool"),
    pytest.param(lambda: perturbation.mixing_scan(PI4, [WHITE], (0,), [[0.01]]), ValueError,
                 r"^epsilon must lie in \(0, 0\.1\]$", id="perturbation.mixing_scan-nested-grid"),
    pytest.param(lambda: perturbation.mixing_scan(PI4, [WHITE], (0,), []), ValueError,
                 "^mixing_scan needs at least one epsilon$", id="perturbation.mixing_scan-no-epsilon"),
]


@pytest.mark.parametrize("call, error, pattern", REJECTED)
def test_rejected(call, error, pattern):
    assert pattern.startswith("^") and pattern.endswith("$"), pattern
    with pytest.raises(error, match=pattern) as caught:
        call()
    assert type(caught.value) is error

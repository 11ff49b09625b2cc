"""upbkit: unextendible product bases, bound-entangled states, and their noise robustness."""

from .linalg import (
    ConvergenceError,
    numerical_rank,
    partial_transpose,
    span_projector,
    subspace_distance,
)
from .states import (
    CutVerdict,
    DensityMatrix,
    basis_labels,
    bipartitions,
    decompose_in_projector_basis,
    is_ppt_all_cuts,
    local_vector,
    min_pt_eigenvalue,
    projector_basis,
    projector_basis_gram,
    projector_combination,
    random_density_matrix,
    random_product_vector,
)
from .upb import (
    UPB,
    HuntResult,
    UnextendibilityCertificate,
    certify_unextendible,
    partition_margin,
    seesaw_max_product_overlap,
    shifts_family,
    subspace_product_hunt,
    upb_complement_hunt,
    upb_state,
)
from .perturbation import (
    MixingScan,
    NoiseEffect,
    PositivityError,
    kernel_product_basis,
    mixing_scan,
    perturb_local,
    perturb_mix,
    uniform_direction,
)
from .witness import (
    CertificationError,
    Witness,
    build_upb_witness,
    evaluate,
    robustness_radius,
)

__version__ = "0.1.0"

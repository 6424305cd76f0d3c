"""Reduced-dynamics linearity toolkit.

Given a family of system-environment states and a joint propagator, decide
whether the induced map on reduced states is linear, and when it is, build
that map, its signed operator-sum form, and the complete-positivity verdict.
"""

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import (
    ConsistencyReport,
    check_pairwise_consistency,
    check_subspace_consistency,
)
from .errors import (
    DimensionError,
    EmptyFamilyError,
    HermiticityError,
    InputError,
    NotAStateError,
    NotInSpanError,
    RdlError,
    UnitarityError,
)
from .families import StateFamily, product_family, random_density_matrix
from .maps import (
    AssignmentMap,
    MapVerdicts,
    SignedKraus,
    Superoperator,
    build_assignment,
    build_dynamical_map,
    decompose_signed_kraus,
    verdicts,
)
from .operators import (
    BipartiteDims,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    basis_coords,
    from_basis_coords,
    hermitian_basis,
    max_norm,
    partial_trace_env,
    require_density,
    require_hermitian,
    require_unitary,
    tensor,
    trace_distance,
)
from .pipeline import Analysis, analyze
from .subspace import Subspace, build_subspace
from .two_qubit import (
    LinearityCoefficients,
    ModelParams,
    RejectedSample,
    TwoQubitParams,
    affine_law,
    analytic_bloch_step,
    assemble_two_qubit,
    constrained_two_qubit_family,
    extract_two_qubit_params,
    full_two_qubit_family,
    model_unitary,
    pauli_eigenstates,
    sample_two_qubit_params,
    swap_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AssignmentMap",
    "BipartiteDims",
    "ConsistencyReport",
    "DEFAULT_TOL",
    "DimensionError",
    "EmptyFamilyError",
    "HermiticityError",
    "InputError",
    "LinearityCoefficients",
    "MapVerdicts",
    "ModelParams",
    "NotAStateError",
    "NotInSpanError",
    "PAULIS",
    "RdlError",
    "RejectedSample",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SignedKraus",
    "StateFamily",
    "Subspace",
    "Superoperator",
    "ToleranceConfig",
    "TwoQubitParams",
    "UnitarityError",
    "affine_law",
    "analyze",
    "analytic_bloch_step",
    "assemble_two_qubit",
    "basis_coords",
    "build_assignment",
    "build_dynamical_map",
    "build_subspace",
    "check_pairwise_consistency",
    "check_subspace_consistency",
    "constrained_two_qubit_family",
    "decompose_signed_kraus",
    "extract_two_qubit_params",
    "from_basis_coords",
    "full_two_qubit_family",
    "hermitian_basis",
    "max_norm",
    "model_unitary",
    "partial_trace_env",
    "pauli_eigenstates",
    "product_family",
    "random_density_matrix",
    "require_density",
    "require_hermitian",
    "require_unitary",
    "sample_two_qubit_params",
    "swap_unitary",
    "tensor",
    "trace_distance",
    "verdicts",
]

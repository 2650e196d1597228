"""Synthesis and verification toolkit for two-photon linear-optical state
preparation: rank-based feasibility rules, constructive interferometer
synthesis (post-selected, heralded, controlled-phase gates), and an
independent permanent-based Fock oracle."""

from .exceptions import (
    ConvergenceFailure,
    DimensionMismatch,
    DocumentError,
    InfeasibleRank,
    MultiplicityMismatch,
    NotSymmetric,
    PhotonNumberMismatch,
    PhotonPrepError,
    SignalMismatch,
    SupportMismatch,
    TooLarge,
    VerificationFailure,
    ZeroMatrix,
    ZeroState,
)
from .fock import amplitude, evolve_two_photon, permanent, permanent_naive
from .gates import CnZSpec, build_cnz, cnz_success_probability, verify_cnz
from .herald import feasible_herald, herald_bilinear_matrix, synthesize_herald
from .linalg import (
    TakagiFactorization,
    UnitaryExtension,
    numerical_rank,
    takagi,
    unitary_extension,
)
from .postselect import (
    build_sps,
    feasible_postselect,
    rescaling_lambda,
    synthesize_postselect,
)
from .states import (
    QuditTarget,
    TwoPhotonState,
    from_qudit_target,
    normalize,
    single_photons_state,
    state_rank,
)
from .verify import (
    ExtractionReport,
    HeraldPattern,
    SynthesisResult,
    extract_heralded,
    extract_postselected,
)

__version__ = "0.1.0"

__all__ = [
    "amplitude",
    "build_cnz",
    "build_sps",
    "cnz_success_probability",
    "evolve_two_photon",
    "extract_heralded",
    "extract_postselected",
    "feasible_herald",
    "feasible_postselect",
    "from_qudit_target",
    "herald_bilinear_matrix",
    "normalize",
    "numerical_rank",
    "permanent",
    "permanent_naive",
    "rescaling_lambda",
    "single_photons_state",
    "state_rank",
    "synthesize_herald",
    "synthesize_postselect",
    "takagi",
    "unitary_extension",
    "verify_cnz",
    "CnZSpec",
    "ExtractionReport",
    "HeraldPattern",
    "QuditTarget",
    "SynthesisResult",
    "TakagiFactorization",
    "TwoPhotonState",
    "UnitaryExtension",
]

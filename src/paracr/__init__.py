"""Exact symmetry analysis of model hypersurfaces y = a + P(x, b)."""

from .poly import Grading, Poly, PolyParseError, UnsupportedDegreeError
from .surface import (
    DirectionPair,
    InvalidSurfaceError,
    MixedComponentError,
    ModelSurface,
    ParaVectorField,
    direction_pair,
    tangency_residual,
    weight_of,
)
from .solver import (
    KernelBasis,
    OracleMismatchError,
    SymmetryAlgebra,
    WeightAnsatz,
    brute_force_check,
    build_ansatz,
    solve_algebra,
    solve_weight,
)
from .liealg import (
    AlgebraProfile,
    Classification,
    StructureConstants,
    classify,
    profile,
    structure_constants,
)
from .normalform import (
    CaseDetection,
    DefiningFunction,
    SingularLocus,
    TorusMap,
    TypeResult,
    detect_case,
    finite_type,
    normalize_binomial,
    singular_locus,
)
from .flows import (
    DiscreteGroup,
    FlowDomainError,
    FlowMap,
    FlowVerification,
    InadmissibleFlowError,
    ProportionalityWitness,
    discrete_group,
    flow,
    rk4_oracle,
    sample_on_surface,
    verify_flow,
)
from .embedding import EmbeddingSeries, solve_embedding
from .report import AnalysisReport, analyze, render_text, report_to_dict

__version__ = "0.1.0"

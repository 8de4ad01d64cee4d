"""Boundary Nevanlinna-Pick interpolation for generalized Nevanlinna functions.

Construct and certify solutions of boundary interpolation problems on the
real line: assemble the structured Pick matrix from the data, build the 2x2
rational resolvent when the Pick matrix is invertible, parameterize all
solutions by linear-fractional transforms of extended Nevanlinna parameters,
classify parameters node by node, solve the singular (degenerate) case in
closed form, and verify everything numerically through boundary limits and
sampled kernel positivity.

Every module imports numpy inside the functions that compute in floats, not
at the top: the exact Pick system and the exact resolvent never load it, so
a process that samples nothing does not pay its import.
"""

from ._sections import DEFAULT_GRID, GridConfig
from .algebra import (
    GaussianRational,
    HermitianMatrix,
    Inertia,
    Polynomial,
    RationalFunction,
    hermitian_inertia,
    matrix_inverse,
)
from .boundary import (
    CJReport,
    LimitEstimate,
    LimitKind,
    caratheodory_julia_check,
    fmi_check,
    kernel_negative_squares,
    nt_limit,
    nt_limits,
)
from .errors import (
    BnpickError,
    DegenerateTransformError,
    FloatRangeError,
    InconsistentClassificationError,
    InputError,
    InvalidDataError,
    NoSolutionRepresentationError,
    NotNevanlinnaError,
    PoleError,
    SingularMatrixError,
    SingularPickError,
    SplitNotAdmissibleError,
    UnclassifiableParameterError,
)
from .problem import (
    INFINITY,
    InterpolationData,
    PickSystem,
    build_pick,
    build_system,
    check_lyapunov,
    is_infinite,
)
from .resolvent import (
    RationalMatrix2x2,
    build_theta,
    check_j_unitarity,
    factorize,
    kernel_theta_negative_squares,
    theta_inverse,
)
from .solver import (
    ClassificationReport,
    ConditionLabel,
    Feasibility,
    PredictedOutcome,
    SolutionBundle,
    classify_all,
    classify_and_verify,
    classify_parameter,
    equivalence_check,
    feasibility_miss_set,
    lost_squares,
    predict_behavior,
    solve,
    solve_degenerate,
    verify_candidate,
)
from .transform import NevanlinnaCheck, Parameter, apply_lft, is_nevanlinna

__version__ = "0.1.0"

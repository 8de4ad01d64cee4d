"""Boundary Nevanlinna-Pick interpolation for generalized Nevanlinna functions.

Construct and certify solutions of boundary interpolation problems on the
real line: assemble the structured Pick matrix from the data, build the 2x2
rational resolvent when the Pick matrix is invertible, parameterize all
solutions by linear-fractional transforms of extended Nevanlinna parameters,
classify parameters node by node, solve the singular (degenerate) case in
closed form, and verify everything numerically through boundary limits and
sampled kernel positivity.

Importing the package loads none of its modules.  Each exported name is
listed below with the module that defines it; the module is imported the
first time the name (or the module itself, as ``bnpick.solver``) is asked
for (PEP 562), and the name is then cached here.  Every module imports
numpy inside the functions that compute in floats, not at the top.  So a
process loads only what it runs: the exact Pick system needs ``algebra``
and ``problem``, an invertible ``solve`` adds ``resolvent``, and numpy,
``boundary`` and ``solver`` load with the first sampled certificate.
"""

import importlib

_EXPORTS = {
    "_sections": ("DEFAULT_GRID", "GridConfig"),
    "algebra": (
        "GaussianRational",
        "HermitianMatrix",
        "Inertia",
        "Polynomial",
        "RationalFunction",
        "hermitian_inertia",
        "matrix_inverse",
    ),
    "boundary": (
        "LimitEstimate",
        "LimitKind",
        "fmi_check",
        "kernel_negative_squares",
        "nt_limit",
    ),
    "errors": (
        "BnpickError",
        "DegenerateTransformError",
        "FloatRangeError",
        "InconsistentClassificationError",
        "InputError",
        "InvalidDataError",
        "NoSolutionRepresentationError",
        "NotNevanlinnaError",
        "PoleError",
        "SingularMatrixError",
        "SingularPickError",
        "SplitNotAdmissibleError",
        "UnclassifiableParameterError",
    ),
    "problem": (
        "INFINITY",
        "InterpolationData",
        "PickSystem",
        "build_pick",
        "build_system",
        "check_lyapunov",
        "is_infinite",
    ),
    "resolvent": (
        "RationalMatrix2x2",
        "SolutionBundle",
        "build_theta",
        "check_j_unitarity",
        "factorize",
        "kernel_theta_negative_squares",
        "solve",
        "theta_inverse",
    ),
    "solver": (
        "ClassificationReport",
        "ConditionLabel",
        "Feasibility",
        "PredictedOutcome",
        "classify_all",
        "classify_and_verify",
        "classify_parameter",
        "equivalence_check",
        "feasibility_miss_set",
        "lost_squares",
        "predict_behavior",
        "solve_degenerate",
        "verify_candidate",
    ),
    "transform": ("NevanlinnaCheck", "Parameter", "apply_lft", "is_nevanlinna"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

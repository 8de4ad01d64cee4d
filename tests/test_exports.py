"""The package's lazy exports: ``import bnpick`` loads no module, and each
exported name loads the module that defines it on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnpick

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTED = [
    "BnpickError", "ClassificationReport", "ConditionLabel", "DEFAULT_GRID",
    "DegenerateTransformError", "Feasibility", "FloatRangeError", "GaussianRational",
    "GridConfig", "HermitianMatrix", "INFINITY", "InconsistentClassificationError",
    "Inertia", "InputError", "InterpolationData", "InvalidDataError", "LimitEstimate",
    "LimitKind", "NevanlinnaCheck", "NoSolutionRepresentationError", "NotNevanlinnaError",
    "Parameter", "PickSystem", "PoleError", "Polynomial", "PredictedOutcome",
    "RationalFunction", "RationalMatrix2x2", "SingularMatrixError", "SingularPickError",
    "SolutionBundle", "SplitNotAdmissibleError", "UnclassifiableParameterError",
    "apply_lft", "build_pick", "build_system", "build_theta",
    "check_j_unitarity", "check_lyapunov", "classify_all", "classify_and_verify",
    "classify_parameter", "equivalence_check", "factorize", "feasibility_miss_set",
    "fmi_check", "hermitian_inertia", "is_infinite", "is_nevanlinna",
    "kernel_negative_squares", "kernel_theta_negative_squares", "lost_squares",
    "matrix_inverse", "nt_limit", "predict_behavior", "solve",
    "solve_degenerate", "theta_inverse", "verify_candidate",
]


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 59
    assert sorted(bnpick.__all__) == sorted(EXPORTED)


@pytest.mark.parametrize("name", EXPORTED)
def test_name_is_its_modules_object(name):
    module = importlib.import_module(f"bnpick.{bnpick._MODULE_OF[name]}")
    assert getattr(bnpick, name) is getattr(module, name)
    assert name in dir(bnpick)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bnpick.no_such_name
    assert not hasattr(bnpick, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from bnpick import *", namespace)
    assert all(namespace[name] is getattr(bnpick, name) for name in EXPORTED)


_FRESH = """
import sys
import bnpick
loaded = lambda: sorted(m for m in sys.modules if m.startswith("bnpick."))
assert loaded() == [], loaded()
assert bnpick.build_system is bnpick.problem.build_system
assert loaded() == ["bnpick.algebra", "bnpick.errors", "bnpick.problem"], loaded()
from bnpick import algebra, solver
assert solver.verify_candidate is bnpick.verify_candidate
assert "bnpick.transform" not in sys.modules and "numpy" not in sys.modules
assert bnpick.transform.apply_lft is bnpick.apply_lft
"""


def test_a_fresh_import_loads_modules_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _FRESH], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr

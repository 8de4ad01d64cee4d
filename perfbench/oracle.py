"""Output oracle: every check that can make a benchmark op fail.

Each judge returns the names of the checks an op failed (empty when it
passed).  The names are the failure classes the benchmark counts:

``lyapunov``       exact-lane Lyapunov residual is nonzero
``j_unitarity``    exact symbolic check not True, or float residual > VERIFY_TOL
``theta_kernel``   resolvent kernel count > kappa, or the count raised
``factorization``  Theta1 Theta2 differs from Theta (exactly / at sample points)
``node_verification``  a node verification from classify_and_verify is false
``sampled_over``   sampled kernel count exceeds the predicted class index
``kappa_lane``     float-lane kappa differs from the exact-lane kappa
``degenerate_w``   degenerate w differs from its generator, or is not certified
``cli_exit``       a CLI call exited non-zero
``cli_output``     CLI JSON differs from the golden or expected document
``timeout``        the op exceeded the per-op time limit
``raise``          the op raised
"""

from __future__ import annotations

import json

from bnpick.solver import VERIFY_TOL

CHECKS = (
    "lyapunov",
    "j_unitarity",
    "theta_kernel",
    "factorization",
    "node_verification",
    "sampled_over",
    "kappa_lane",
    "degenerate_w",
    "cli_exit",
    "cli_output",
    "timeout",
    "raise",
)

# Off-axis sample points for the float factorization check, as (position in
# the node span, imaginary part); positions outside [0, 1] fall beyond it.
FACTOR_POINTS = ((0.12, 1.0), (-0.43, 0.6), (0.7, 0.25), (0.17, 3.0))


def _factor_matches(exact: bool, theta, t1, t2, points) -> bool:
    if exact:
        return (t1 @ t2) == theta
    for z in points:
        want = theta.eval(z)
        got = t1.eval(z) @ t2.eval(z)
        if abs(got - want).max() > VERIFY_TOL * max(1.0, abs(want).max()):
            return False
    return True


def judge_solve(problem, exact: bool, out) -> list:
    """Certificates of an invertible solve op (see ``ops.SolveOutput``)."""
    failed = []
    if exact and not out.lyapunov.is_zero:
        failed.append("lyapunov")
    if exact:
        ju_ok = out.j_unitarity.symbolic_zero is True
    else:
        ju_ok = out.j_unitarity.max_residual <= VERIFY_TOL
    if not ju_ok:
        failed.append("j_unitarity")
    if isinstance(out.theta_kernel, ArithmeticError) or out.theta_kernel > problem.kappa:
        failed.append("theta_kernel")
    lo, hi = min(map(float, problem.data.nodes)), max(map(float, problem.data.nodes))
    points = [complex(lo + (hi - lo) * t, y) for t, y in FACTOR_POINTS]
    if not _factor_matches(exact, out.theta, out.factors[0], out.factors[1], points):
        failed.append("factorization")
    if out.kappa != problem.kappa:
        failed.append("kappa_lane")
    return failed


def judge_certify(out) -> list:
    """A certify op: every node verified, sampled count within the prediction."""
    failed = []
    if not all(out.node_ok):
        failed.append("node_verification")
    if out.sampled > out.report.class_index:
        failed.append("sampled_over")
    return failed


def judge_degenerate(problem, w, verification: dict) -> list:
    """Unique solution of a singular-P draw: w itself, certified as a solution."""
    if w != problem.w or not verification["is_problem3_solution"]:
        return ["degenerate_w"]
    return []


def judge_cli(returncode: int, stdout: str, check) -> list:
    """A CLI call: exit code 0, then the checks ``check`` makes on its document."""
    if returncode != 0:
        return ["cli_exit"]
    try:
        return check(json.loads(stdout))
    except (ValueError, KeyError, IndexError, TypeError):
        return ["cli_output"]

"""End-to-end solution machinery.

For an invertible Pick matrix the solution set is the image of the extended
Nevanlinna parameters under the resolvent transform; each parameter is
classified at every node into one of six conditions per family (family "C"
where the derived row entry te_i is nonzero, family "Ctilde" where it
vanishes), and the condition index determines the boundary behavior of the
transformed function at that node.  Indices 4-6 each cost one negative
square: a parameter meeting them at k nodes produces a function of class
index kappa - k, and k can never exceed kappa.

For a singular Pick matrix the problem has a unique solution in closed form
built from any kernel vector of P.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .algebra import HermitianMatrix, Polynomial, RationalFunction, hermitian_inertia, symmetric_elimination
from ._sections import DEFAULT_GRID, GridConfig, span_of
from .boundary import LimitKind, fmi_check, kernel_negative_squares, nt_limits
from .errors import (
    InconsistentClassificationError,
    NoSolutionRepresentationError,
    NotNevanlinnaError,
    UnclassifiableParameterError,
)
from .problem import INFINITY, InterpolationData, PickSystem, build_system, is_infinite
from .resolvent import RationalMatrix2x2, build_theta
from .transform import Parameter, apply_lft, is_nevanlinna

THRESHOLD_TOL = 1e-7
VERIFY_TOL = 1e-6


@dataclass(frozen=True)
class ConditionLabel:
    """Condition family and index of a parameter at one node (1-based)."""

    node: int
    family: str  # "C" | "Ctilde"
    index: int  # 1..6
    phi_value: object = None
    phi_derivative: object = None
    phi_residual: object = None
    exact: bool = False

    @property
    def loses_square(self) -> bool:
        return self.index >= 4

    @property
    def problem2_compatible(self) -> bool:
        return self.index <= 3


@dataclass(frozen=True)
class PredictedOutcome:
    """Predicted boundary behavior of the transformed function at a node."""

    kind: str
    node_kind: str  # "regular" | "singular"
    description: str


@dataclass(frozen=True)
class NodeVerification:
    ok: bool
    margin: float | None
    details: dict


@dataclass(frozen=True)
class NodeReport:
    node: int
    label: ConditionLabel
    predicted: PredictedOutcome
    verification: NodeVerification | None = None

    def to_json(self) -> dict:
        doc = {
            "node": self.node,
            "family": self.label.family,
            "index": self.label.index,
            "predicted": self.predicted.description,
        }
        if self.verification is not None:
            doc["verified"] = self.verification.ok
            doc["margin"] = self.verification.margin
        return doc


@dataclass(frozen=True)
class ClassificationReport:
    """Per-node labels with lost-squares accounting."""

    nodes: tuple
    k: int
    kappa: int

    @property
    def class_index(self) -> int:
        return self.kappa - self.k

    def to_json(self) -> dict:
        return {
            "nodes": [n.to_json() for n in self.nodes],
            "k": self.k,
            "class_index": self.class_index,
        }


class Feasibility(Enum):
    INFEASIBLE = "infeasible"
    UNIQUE_PARAMETER = "unique_parameter"
    INFINITELY_MANY = "infinitely_many"


@dataclass(frozen=True)
class SolutionBundle:
    """Either the resolvent parameterization or the unique degenerate solution."""

    kind: str  # "parameterized" | "unique"
    kappa: int
    theta: RationalMatrix2x2 | None = None
    w: RationalFunction | None = None
    verification: dict | None = None

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "kappa": self.kappa}
        if self.theta is not None:
            doc["theta"] = self.theta.to_json()
        if self.w is not None:
            doc["w"] = self.w.to_json()
        if self.verification is not None:
            doc["verification"] = self.verification
        return doc


def _phi_limits_exact(phi: Parameter):
    """Exact boundary behavior of constant / infinite parameters."""
    if phi.kind == "const":
        return phi.value, 0, 0
    return INFINITY, None, INFINITY


def classify_parameter(
    sys: PickSystem, phi: Parameter, i: int, tol: float = THRESHOLD_TOL
) -> ConditionLabel:
    """Condition label of a parameter at node i (0-based input index).

    Constants and infinity classify exactly; rational parameters classify
    through numerical boundary limits with thresholds compared at ``tol``,
    ties resolving to the equality condition (index 5 or 6 by the sign of
    the diagonal entry of the inverse Pick matrix).
    """
    if not sys.invertible:
        raise ValueError("classification requires an invertible Pick matrix")
    if phi.kind == "rational":
        return _rational_labels(sys, phi.func, [i], tol)[0]
    te = sys.tilde_e[i]
    tc = sys.tilde_c[i]
    p_ii = sys.tilde_p_diag[i]
    family = "C" if te else "Ctilde"
    value, deriv, residual = _phi_limits_exact(phi)
    if family == "C":
        eta = sys.eta[i]
        if is_infinite(value):
            matches_eta = False
        elif isinstance(value, Fraction) and sys.exact:
            matches_eta = value == eta
        else:
            matches_eta = abs(float(value) - float(eta)) <= tol * max(1.0, abs(float(eta)))
        if not matches_eta:
            index = 1
        else:
            # constant at the critical value: derivative is exactly 0
            index = _index_from_threshold(0, -p_ii / (te * te), p_ii, exact=True)
    else:
        if not is_infinite(value):
            index = 1
        else:
            # infinite parameter: -1/phi_residual = 0 exactly
            index = _index_from_threshold(0, -p_ii / (tc * tc), p_ii, exact=True)
    return ConditionLabel(i + 1, family, index, value, deriv, residual, exact=True)


def _rational_labels(sys: PickSystem, func: RationalFunction, nodes, tol: float) -> list:
    """Labels of a rational parameter at the given nodes (0-based), from two
    ``nt_limits`` calls: the value limits at every node, then the derivative
    or residual limits at the nodes whose value calls for one."""
    values = nt_limits(func, [(sys.X[i], LimitKind.VALUE) for i in nodes])
    second = {}
    for i, value in zip(nodes, values):
        kind = _second_limit_kind(sys, i, value, tol)
        if kind is not None:
            second[i] = kind
    more = nt_limits(func, [(sys.X[i], kind) for i, kind in second.items()])
    more = dict(zip(second, more))
    return [_rational_label(sys, i, value, more.get(i), tol) for i, value in zip(nodes, values)]


def _second_limit_kind(sys: PickSystem, i: int, value, tol: float):
    """The limit a rational parameter's label at node i needs after its value
    limit: the derivative where the value matches eta_i (family C), the
    residual where the value is infinite (family Ctilde), else none."""
    if sys.tilde_e[i]:
        eta = float(sys.eta[i]) if not is_infinite(sys.eta[i]) else None
        if not value.is_finite or eta is None or abs(value.value.real - eta) > tol * max(
            1.0, abs(eta)
        ):
            return None
        return LimitKind.DERIVATIVE
    if value.is_finite or value.status == "dne":
        return None
    return LimitKind.RESIDUAL


def _rational_label(sys: PickSystem, i: int, value, second, tol: float) -> ConditionLabel:
    """Label at node i from the value limit and the ``_second_limit_kind``
    limit (None when there is none)."""
    te, tc, p_ii = sys.tilde_e[i], sys.tilde_c[i], sys.tilde_p_diag[i]
    family = "C" if te else "Ctilde"
    if second is None:
        return ConditionLabel(i + 1, family, 1, value)
    if family == "C":
        deriv = second
        if deriv.is_infinite:
            index = 2
        elif not deriv.is_finite:
            return _unclassifiable(i, family, value, deriv, None)
        else:
            tau = float(-p_ii / (te * te))
            index = _index_from_threshold(deriv.value.real, tau, p_ii, tol=tol)
        return ConditionLabel(i + 1, family, index, value, deriv, None)
    residual = second
    if not residual.is_finite:
        return _unclassifiable(i, family, value, None, residual)
    r = residual.value.real
    if abs(r) <= 1e-9:
        index = 2
    else:
        tau = float(-p_ii / (tc * tc))
        index = _index_from_threshold(-1.0 / r, tau, p_ii, tol=tol)
    return ConditionLabel(i + 1, family, index, value, None, residual)


def _unclassifiable(i, family, value, deriv, residual):
    raise UnclassifiableParameterError(
        f"boundary limits of the parameter at node {i + 1} are inconclusive",
        estimates={"value": value, "derivative": deriv, "residual": residual},
    )


def _index_from_threshold(s, tau, p_ii, tol=THRESHOLD_TOL, exact=False):
    """Index among 3..6 from a boundary quantity s against its threshold tau.

    s is the derivative of a parameter matching eta, or -1/phi_residual for
    an unbounded parameter.
    """
    if exact:
        if s == tau:
            return 6 if not p_ii else 5
        return 3 if s > tau else 4
    if abs(s - tau) <= tol:
        if p_ii < 0:
            return 5
        if not p_ii:
            return 6
        return 3
    return 3 if s > tau else 4


_REGULAR_DESCRIPTIONS = {
    "exact": "w(x_i) = w_i and w'(x_i) = gamma_i",
    "bound": "w(x_i) = w_i and w'(x_i) <= gamma_i",
    "strict_below": "w(x_i) = w_i and -inf < w'(x_i) < gamma_i",
    "strict_above": "w(x_i) = w_i and gamma_i < w'(x_i) < inf",
    "maybe_missed": (
        "w(x_i) fails to exist, or differs from w_i, or equals w_i with "
        "an infinite kernel diagonal"
    ),
    "missed": "w(x_i) exists and w(x_i) != w_i",
}

_SINGULAR_DESCRIPTIONS = {
    "exact": "w_res(x_i) = xi_i",
    "bound": "-1/w_res(x_i) <= -1/xi_i",
    "strict_below": "-inf < -1/w_res(x_i) < -1/xi_i",
    "strict_above": "-1/xi_i < -1/w_res(x_i) < inf",
    "zero_residual": "w_res(x_i) = 0",
}


def predict_behavior(label: ConditionLabel, node_kind: str) -> PredictedOutcome:
    """Map a condition label to the boundary behavior of the transform.

    Indices 1-2 give the prescribed data back exactly; 3 and 4 keep the
    value but push the derivative (or inverse residual) strictly below or
    above its bound; 5 and 6 lose the interpolation condition: at regular
    nodes index 5 has a three-way outcome and 6 misses the value, at
    singular nodes both kill the residual.
    """
    if node_kind not in ("regular", "singular"):
        raise ValueError(f"unknown node kind {node_kind!r}")
    idx = label.index
    if node_kind == "regular":
        kind = {1: "exact", 2: "exact", 3: "strict_below", 4: "strict_above",
                5: "maybe_missed", 6: "missed"}[idx]
        return PredictedOutcome(kind, node_kind, _REGULAR_DESCRIPTIONS[kind])
    kind = {1: "exact", 2: "exact", 3: "strict_below", 4: "strict_above",
            5: "zero_residual", 6: "zero_residual"}[idx]
    return PredictedOutcome(kind, node_kind, _SINGULAR_DESCRIPTIONS[kind])


def lost_squares(labels, kappa: int):
    """Count k of square-losing labels and the resulting class index kappa - k."""
    k = sum(1 for lab in labels if lab.loses_square)
    if k > kappa:
        raise InconsistentClassificationError(
            f"{k} square-losing nodes exceed the budget kappa = {kappa}; "
            "the parameter cannot be a Nevanlinna function"
        )
    return k, kappa - k


def classify_all(sys: PickSystem, phi: Parameter) -> ClassificationReport:
    """``classify_parameter`` at every node; a rational parameter takes its
    boundary limits in two ``nt_limits`` calls for all nodes together."""
    if phi.kind == "rational":
        if not sys.invertible:
            raise ValueError("classification requires an invertible Pick matrix")
        labels = _rational_labels(sys, phi.func, range(sys.n), THRESHOLD_TOL)
    else:
        labels = [classify_parameter(sys, phi, i) for i in range(sys.n)]
    nodes = []
    for i, label in enumerate(labels):
        kind = "regular" if sys.data.is_regular(i) else "singular"
        nodes.append(NodeReport(i + 1, label, predict_behavior(label, kind)))
    k, _ = lost_squares([node.label for node in nodes], sys.kappa)
    return ClassificationReport(tuple(nodes), k, sys.kappa)


def _node_limits(sys: PickSystem, w: RationalFunction, outcomes: dict) -> dict:
    """The limits of w that each node's checks read, from one ``nt_limits`` call.

    ``outcomes`` maps 0-based nodes to their outcome kind, or None.  A
    regular node reads the value and derivative, and the kernel diagonal too
    for ``"maybe_missed"``; a singular node reads the residual.  Returns a
    dict per node, keyed by ``LimitKind`` value.
    """
    names = {}
    for i, outcome in outcomes.items():
        if not sys.data.is_regular(i):
            names[i] = ("residual",)
        elif outcome == "maybe_missed":
            names[i] = ("value", "derivative", "kernel_diagonal")
        else:
            names[i] = ("value", "derivative")
    requests = [(sys.X[i], LimitKind(name)) for i, keys in names.items() for name in keys]
    estimates = iter(nt_limits(w, requests))
    return {i: {name: next(estimates) for name in keys} for i, keys in names.items()}


def _limit_errors(sys: PickSystem, i: int, limits: dict) -> dict:
    """|limit - datum| of the value and derivative against w_i and gamma_i,
    or of the residual against xi_i; infinite where the limit is not finite."""
    data = sys.data
    if data.is_regular(i):
        target = {"value": data.values[i], "derivative": data.derivative_bounds[i]}
    else:
        target = {"residual": data.residues[i - sys.ell]}
    return {
        key: abs(limits[key].value.real - float(datum)) if limits[key].is_finite else float("inf")
        for key, datum in target.items()
    }


def verify_outcome(
    sys: PickSystem,
    w: RationalFunction,
    node_index: int,
    kind: str,
    tol: float = VERIFY_TOL,
    limits: dict | None = None,
) -> NodeVerification:
    """Check one outcome of w at one node (0-based index) from its limits.

    ``kind`` is a key of ``_REGULAR_DESCRIPTIONS`` or ``_SINGULAR_DESCRIPTIONS``:
    ``"exact"`` (problem 1 at the node), ``"bound"`` (problem 2),
    ``"strict_below"``, ``"strict_above"``, and ``"missed"`` or
    ``"maybe_missed"`` (regular; the latter also takes the kernel-diagonal
    limit) or ``"zero_residual"`` (singular).  Equalities and ``"bound"``
    hold within ``tol``; strict inequalities need slack above ``tol``.  The
    margin is the equality error or the slack.  ``limits`` are the node's
    ``_node_limits`` for ``kind``, taken here (one ``nt_limits`` call) when
    not given.
    """
    regular = sys.data.is_regular(node_index)
    if kind not in (_REGULAR_DESCRIPTIONS if regular else _SINGULAR_DESCRIPTIONS):
        raise ValueError(f"unexpected outcome kind {kind!r}")
    if limits is None:
        limits = _node_limits(sys, w, {node_index: kind})[node_index]
    errors = _limit_errors(sys, node_index, limits)
    if regular:
        value, deriv = limits["value"], limits["derivative"]
        value_err = errors["value"]
        if kind == "exact":
            err = max(value_err, errors["derivative"])
            return NodeVerification(err <= tol, err, limits)
        if kind == "missed":
            return NodeVerification(value_err > tol, value_err, limits)
        if kind == "maybe_missed":
            ok = not value.is_finite or value_err > tol or limits["kernel_diagonal"].is_infinite
            return NodeVerification(ok, value_err, limits)
        if not (value_err <= tol and deriv.is_finite):
            return NodeVerification(False, None, limits)
        s = deriv.value.real
        bound = float(sys.data.derivative_bounds[node_index])
    else:
        residual = limits["residual"]
        if not residual.is_finite:
            return NodeVerification(False, None, limits)
        r = residual.value.real
        if kind == "exact":
            err = errors["residual"]
            return NodeVerification(err <= tol, err, limits)
        if kind == "zero_residual":
            return NodeVerification(abs(r) <= tol, abs(r), limits)
        if abs(r) <= tol:
            return NodeVerification(False, None, limits)
        s = -1.0 / r
        bound = -1.0 / float(sys.data.residues[node_index - sys.ell])
    if kind == "bound":
        return NodeVerification(s <= bound + tol, bound - s, limits)
    slack = (bound - s) if kind == "strict_below" else (s - bound)
    return NodeVerification(slack > tol, slack, limits)


def classify_and_verify(
    sys: PickSystem,
    phi: Parameter,
    config: GridConfig = DEFAULT_GRID,
    tol: float = VERIFY_TOL,
):
    """Classify phi, transform it, and confirm every predicted outcome.

    Returns the classification report (with per-node verification attached),
    the transformed function, and its sampled negative-squares count, which
    must equal the predicted class index kappa - k.
    """
    check = is_nevanlinna(phi, config)
    if not check.ok:
        raise NotNevanlinnaError("parameter kernel is not positive", check.witness)
    theta = build_theta(sys)
    w = apply_lft(theta, phi)
    report = classify_all(sys, phi)
    outcomes = {node.node - 1: node.predicted.kind for node in report.nodes}
    limits = _node_limits(sys, w, outcomes)
    nodes = tuple(
        replace(node, verification=verify_outcome(sys, w, i, kind, tol, limits[i]))
        for node, (i, kind) in zip(report.nodes, outcomes.items())
    )
    sampled = kernel_negative_squares(w, config=config, span=span_of(sys.X))
    return replace(report, nodes=nodes), w, sampled


def feasibility_miss_set(sys: PickSystem, subset) -> Feasibility:
    """Can a parameter lose its squares exactly on this node subset?

    Decided by the principal submatrix of the inverse Pick matrix over the
    subset: any positive eigenvalue is infeasible, negative definite leaves
    infinitely many parameters, negative semidefinite and singular exactly
    one.  Nodes are 0-based here.
    """
    if not sys.invertible:
        raise ValueError("miss-set feasibility requires an invertible Pick matrix")
    subset = list(subset)
    if not subset:
        return Feasibility.INFINITELY_MANY
    block = [[sys.p_inv[i][j] for j in subset] for i in subset]
    inertia = hermitian_inertia(HermitianMatrix(block), sys.rank_tol)
    if inertia.positives:
        return Feasibility.INFEASIBLE
    if inertia.zeros:
        return Feasibility.UNIQUE_PARAMETER
    return Feasibility.INFINITELY_MANY


def equivalence_check(sys: PickSystem) -> bool:
    """True when relaxing equalities to inequalities changes nothing.

    Holds exactly when every diagonal entry of the inverse Pick matrix is
    positive, so no parameter can lose a square anywhere.
    """
    if not sys.invertible:
        raise ValueError("equivalence check requires an invertible Pick matrix")
    return all(p > 0 for p in sys.tilde_p_diag)


def solve_degenerate(sys: PickSystem) -> RationalFunction:
    """Unique solution for a singular Pick matrix, from a kernel vector y:

        w(z) = (y* (zI-X)^(-1) C*) / (y* (zI-X)^(-1) E*).

    The result does not depend on the kernel vector; with nullity above one
    every basis vector is tried and the results are required to agree.
    """
    if sys.invertible:
        raise ValueError("Pick matrix is invertible; use the resolvent instead")
    if sys.exact:
        vectors = symmetric_elimination(sys.P.rows).kernel
    else:
        arr = sys.P.to_numpy().real
        _, s, vh = np.linalg.svd(arr)
        scale = max(1.0, s[0]) * sys.rank_tol
        vectors = [vh[i].tolist() for i in range(len(s)) if s[i] <= scale]
    if not vectors:
        raise NoSolutionRepresentationError("no kernel vector found for singular P")
    partial = [
        Polynomial.from_real_roots([x for j, x in enumerate(sys.X) if j != i])
        for i in range(sys.n)
    ]
    candidates = []
    for y in vectors:
        num = Polynomial(())
        den = Polynomial(())
        for i in range(sys.n):
            num = num + partial[i].scale(y[i] * sys.C[i])
            den = den + partial[i].scale(y[i] * sys.E[i])
        if den.is_zero:
            raise NoSolutionRepresentationError(
                "degenerate closed form has an identically zero denominator"
            )
        candidates.append(RationalFunction(num, den))
    first = candidates[0]
    for other in candidates[1:]:
        agree = (first == other) if sys.exact else first.isclose(other, 1e-8)
        if not agree:
            raise NoSolutionRepresentationError(
                "kernel vectors produced different unique solutions"
            )
    return first


def solve(
    data: InterpolationData,
    rank_tol: float = 1e-9,
    config: GridConfig = DEFAULT_GRID,
    tol: float = VERIFY_TOL,
) -> SolutionBundle:
    """Full pipeline: build the system, branch on invertibility.

    Invertible P yields the resolvent whose transform parameterizes all
    solutions; singular P yields the unique closed-form solution together
    with a numerical verification report (boundary limits at every node,
    judged within ``tol``, and the sampled bordered-kernel count, which must
    equal kappa).
    """
    sys = build_system(data, rank_tol)
    if sys.invertible:
        theta = build_theta(sys)
        return SolutionBundle(kind="parameterized", kappa=sys.kappa, theta=theta)
    w = solve_degenerate(sys)
    verification = verify_candidate(sys, w, tol=tol, config=config)
    return SolutionBundle(kind="unique", kappa=sys.kappa, w=w, verification=verification)


def verify_candidate(
    sys: PickSystem,
    w: RationalFunction,
    tol: float = VERIFY_TOL,
    config: GridConfig = DEFAULT_GRID,
) -> dict:
    """Check a candidate w against the data at every node, plus kernel counts.

    Every node's limits are taken in one ``nt_limits`` call and reported
    with their errors against the data.  ``problem1`` is the ``"exact"`` outcome of
    ``verify_outcome`` on them and ``problem2`` its ``"bound"`` outcome,
    both within ``tol``.  The report also carries the sampled
    bordered-kernel count, which a solution of problem 3 has equal to
    kappa, and the plain kernel count of w.
    """
    nodes = []
    all_limits = _node_limits(sys, w, dict.fromkeys(range(sys.n)))
    for i, limits in all_limits.items():
        nodes.append(
            {
                "node": i + 1,
                "kind": "regular" if sys.data.is_regular(i) else "singular",
                "checks": limits,
                "errors": _limit_errors(sys, i, limits),
                "problem1": verify_outcome(sys, w, i, "exact", tol, limits).ok,
                "problem2": verify_outcome(sys, w, i, "bound", tol, limits).ok,
            }
        )
    fmi = fmi_check(sys, w, config=config)
    sampled = kernel_negative_squares(w, config=config, span=span_of(sys.X))
    return {
        "nodes": nodes,
        "fmi_count": fmi,
        "kappa": sys.kappa,
        "kernel_negative_squares": sampled,
        "is_problem3_solution": fmi == sys.kappa,
    }

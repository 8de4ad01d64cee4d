"""End-to-end solution machinery.

For an invertible Pick matrix the solution set is the image of the extended
Nevanlinna parameters under the resolvent transform; each parameter is
classified at every node into one of six conditions per family (family "C"
where the derived row entry te_i is nonzero, family "Ctilde" where it
vanishes), and the condition index determines the boundary behavior of the
transformed function at that node.  Indices 4-6 each cost one negative
square: a parameter meeting them at k nodes produces a function of class
index kappa - k, and k can never exceed kappa.

Each prediction is confirmed from the boundary limits of w at the nodes,
read as jets (``boundary.jet_limits``), not sampled along paths: for
w = Theta o phi from Theta's residue form, and for a parameter or a
candidate from its own coefficients.

For a singular Pick matrix the problem has a unique solution in closed form
built from any kernel vector of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import (
    HermitianMatrix,
    Polynomial,
    RationalFunction,
    hermitian_inertia,
)
from ._sections import DEFAULT_GRID, VERIFY_TOL, GridConfig
from .boundary import (
    LimitEstimate,
    fmi_check,
    function_jets,
    jet_limits,
    kernel_negative_squares,
    lft_jets,
    rational_jets,
)
from .errors import (
    DegenerateTransformError,
    InconsistentClassificationError,
    NoSolutionRepresentationError,
    NotNevanlinnaError,
    UnclassifiableParameterError,
)
from .problem import INFINITY, PickSystem, is_infinite

if TYPE_CHECKING:
    from .transform import Parameter

THRESHOLD_TOL = 1e-7
# A rational parameter's residual r at a node of family Ctilde enters its
# label as -1/r, compared with the threshold tau = -p_ii / tc_i^2.
# |r| <= ZERO_RESIDUAL_TOL reads as r = 0, so -1/r as infinite: index 2 (a
# Nevanlinna parameter has r < 0, so -1/r grows to +inf).  This is the one
# way to index 2, as a rational parameter's derivative is finite wherever
# its value is.  1e-9 is the float jets' resolution: a float jet
# coefficient is zero within JET_ZERO_TOL = 1e-9 of its scale, about 1 for
# the parameters of order one used here, so a smaller residual is not told
# from zero on that lane; the exact lane takes the same cut, so that both
# lanes label alike.
ZERO_RESIDUAL_TOL = 1e-9
# Float closed forms of ``solve_degenerate`` from different kernel vectors
# agree to UNIQUE_AGREEMENT_TOL (``_realizations_agree``): each node sum is
# linear in an SVD row of P, which errs by about u s_max / s_gap, below 1e-8
# while that is < 10^6.
UNIQUE_AGREEMENT_TOL = 1e-8


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
            doc["margin"] = _inf_json(self.verification.margin)
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
            "classification": [n.to_json() for n in self.nodes],
            "k": self.k,
            "class_index": self.class_index,
        }


def _inf_json(value):
    """``value`` as a JSON document holds it: infinity as ``"inf"``."""
    return "inf" if value == float("inf") else value


class Feasibility(Enum):
    INFEASIBLE = "infeasible"
    UNIQUE_PARAMETER = "unique_parameter"
    INFINITELY_MANY = "infinitely_many"


def classify_parameter(sys: PickSystem, phi: Parameter, i: int) -> ConditionLabel:
    """Condition label of a parameter at node i (0-based input index).

    A rational parameter is labelled from its jets (``_rational_label``).
    A constant or infinity labels exactly: it is index 1 away from its
    critical value, eta_i in family C (``_matches_eta``) and infinity in
    family Ctilde.  At it the boundary quantity is s = 0 (the derivative of
    a constant, -1/residual of infinity) and its threshold is
    tau = -p_ii / t^2 with t = te_i or tc_i nonzero, so s = tau where
    p_ii = 0 and s > tau where p_ii > 0: the index is 3, 4 or 6 by the sign
    of p_ii, exactly on both lanes.
    """
    if not sys.invertible:
        raise ValueError("classification requires an invertible Pick matrix")
    if phi.kind == "rational":
        return _rational_labels(sys, phi.func, [i])[0]
    if phi.kind == "const":
        value, deriv, residual = phi.value, 0, 0
    else:
        value, deriv, residual = INFINITY, None, INFINITY
    p_ii = sys.tilde_p_diag[i]
    if sys.tilde_e[i]:
        family, critical = "C", _matches_eta(sys, i, value)
    else:
        family, critical = "Ctilde", is_infinite(value)
    index = (3 if p_ii > 0 else 4 if p_ii < 0 else 6) if critical else 1
    return ConditionLabel(i + 1, family, index, value, deriv, residual, exact=True)


def _matches_eta(sys: PickSystem, i: int, value) -> bool:
    """Whether a parameter's value phi(x_i), a number or ``INFINITY``, meets
    eta_i at node i of family C (te_i != 0, so eta_i is finite): exactly
    where both are exact, and otherwise within THRESHOLD_TOL max(1, |eta_i|)."""
    if is_infinite(value):
        return False
    if isinstance(value, Fraction) and sys.exact:
        return value == sys.eta[i]
    eta = sys.floats.eta[i]
    return abs(float(value) - eta) <= THRESHOLD_TOL * max(1.0, abs(eta))


def _rational_labels(sys: PickSystem, func: RationalFunction, nodes) -> list:
    """Labels of a rational parameter at the given nodes (0-based), from its
    jets at all of them."""
    jets = rational_jets(func, [sys.X[i] for i in nodes])
    return [_rational_label(sys, i, jet) for i, jet in zip(nodes, jets)]


def _rational_label(sys: PickSystem, i: int, jet) -> ConditionLabel:
    """Label of a rational parameter at node i from its jet there.

    The value limit is read first.  In family C a value meeting eta_i
    (``_matches_eta``) reads the derivative, which is finite: a rational
    function with a finite limit at a real point is analytic there.  In
    family Ctilde an infinite value reads the residual: an infinite one (a
    pole of order two or more, which no Nevanlinna function has) leaves the
    parameter unclassifiable, |r| <= ZERO_RESIDUAL_TOL is index 2, and
    otherwise -1/r meets the threshold.  Every other value is index 1.
    """
    te, tc, p_ii = sys.tilde_e[i], sys.tilde_c[i], sys.tilde_p_diag[i]
    value = jet_limits(jet.num, jet.den, ("value",))["value"]
    if te:
        if not (value.is_finite and _matches_eta(sys, i, value.value.real)):
            return ConditionLabel(i + 1, "C", 1, value)
        deriv = jet_limits(jet.num, jet.den, ("derivative",))["derivative"]
        index = _index_from_threshold(deriv.value.real, float(-p_ii / te / te), p_ii)
        return ConditionLabel(i + 1, "C", index, value, deriv, None)
    if not value.is_infinite:
        return ConditionLabel(i + 1, "Ctilde", 1, value)
    residual = jet_limits(jet.num, jet.den, ("residual",))["residual"]
    if not residual.is_finite:
        raise UnclassifiableParameterError(
            f"boundary limits of the parameter at node {i + 1} are inconclusive",
            estimates={"value": value, "derivative": None, "residual": residual},
        )
    r = residual.value.real
    if abs(r) <= ZERO_RESIDUAL_TOL:
        index = 2
    else:
        index = _index_from_threshold(-1.0 / r, float(-p_ii / tc / tc), p_ii)
    return ConditionLabel(i + 1, "Ctilde", index, value, None, residual)


def _index_from_threshold(s, tau, p_ii):
    """Index among 3..6 of a rational parameter at its critical value, from
    a boundary quantity s against its threshold tau: s is the derivative of
    a parameter matching eta_i, or -1/residual of an unbounded one.  A tie
    |s - tau| <= THRESHOLD_TOL is index 5, 6 or 3 by the sign of p_ii
    (negative, zero, positive); otherwise s above tau is 3 and below it 4.
    """
    if abs(s - tau) <= THRESHOLD_TOL:
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


_INDEX_KINDS = {
    "regular": {1: "exact", 2: "exact", 3: "strict_below", 4: "strict_above",
                5: "maybe_missed", 6: "missed"},
    "singular": {1: "exact", 2: "exact", 3: "strict_below", 4: "strict_above",
                 5: "zero_residual", 6: "zero_residual"},
}
_DESCRIPTIONS = {"regular": _REGULAR_DESCRIPTIONS, "singular": _SINGULAR_DESCRIPTIONS}
# One shared record per (index, node kind): the records are immutable and
# every node of every report reads one of them.
_PREDICTED = {
    (index, node_kind): PredictedOutcome(kind, node_kind, _DESCRIPTIONS[node_kind][kind])
    for node_kind, kinds in _INDEX_KINDS.items()
    for index, kind in kinds.items()
}


def predict_behavior(label: ConditionLabel, node_kind: str) -> PredictedOutcome:
    """Map a condition label to the boundary behavior of the transform.

    Indices 1-2 give the prescribed data back exactly; 3 and 4 keep the
    value but push the derivative (or inverse residual) strictly below or
    above its bound; 5 and 6 lose the interpolation condition: at regular
    nodes index 5 has a three-way outcome and 6 misses the value, at
    singular nodes both kill the residual.  Equal inputs give the same
    shared record.
    """
    if node_kind not in _INDEX_KINDS:
        raise ValueError(f"unknown node kind {node_kind!r}")
    return _PREDICTED[label.index, node_kind]


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
    jets at all the nodes together."""
    labels, outcomes, k = _classified(sys, phi)
    nodes = tuple(NodeReport(i + 1, label, outcome)
                  for i, (label, outcome) in enumerate(zip(labels, outcomes)))
    return ClassificationReport(nodes, k, sys.kappa)


def _classified(sys: PickSystem, phi: Parameter) -> tuple:
    """(labels, predicted outcomes, k): phi's label at every node, the
    outcome each predicts, and the number k of square-losing labels."""
    if phi.kind == "rational":
        if not sys.invertible:
            raise ValueError("classification requires an invertible Pick matrix")
        labels = _rational_labels(sys, phi.func, range(sys.n))
    else:
        labels = [classify_parameter(sys, phi, i) for i in range(sys.n)]
    ell = sys.ell
    outcomes = [predict_behavior(label, "regular" if i < ell else "singular")
                for i, label in enumerate(labels)]
    k, _ = lost_squares(labels, sys.kappa)
    return labels, outcomes, k


def _node_limits(sys: PickSystem, w: RationalFunction, nodes) -> dict:
    """The limits of w that each node's checks read, from its jets at the
    given 0-based nodes (``function_jets``: for a w with an origin, the rows
    of its whole node pass through Theta's residue form, never its
    coefficients, the pass ``classify_and_verify`` reads; from w's own
    coefficients otherwise).

    What a node reads depends on its kind alone: a regular node reads the
    value and derivative, a singular node the residual.  Returns a dict per
    node of those ``LimitEstimate``s keyed by ``LimitKind`` value, and the
    node's zero test (``boundary._zero_test``) under ``"zero_test"``.
    """
    return _jet_node_limits(sys, nodes, function_jets(w, [sys.X[i] for i in nodes]))


def _jet_node_limits(sys: PickSystem, nodes, jets) -> dict:
    """``_node_limits`` from the jets of w at ``nodes``, in their order."""
    ell = sys.ell
    limits = {}
    for i, jet in zip(nodes, jets):
        keys = ("value", "derivative") if i < ell else ("residual",)
        limits[i] = node = jet_limits(jet.num, jet.den, keys)
        node["zero_test"] = jet.zero_test
    return limits


def _limit_errors(sys: PickSystem, i: int, limits: dict) -> dict:
    """|limit - datum| of the value and derivative against w_i and gamma_i,
    or of the residual against xi_i; infinite where the limit is not finite."""
    keys = ("value", "derivative") if i < sys.ell else ("residual",)
    return {
        key: abs(limits[key].value.real - datum) if limits[key].is_finite else float("inf")
        for key, datum in zip(keys, sys.floats.data[i])
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
    ``"strict_below"``, ``"strict_above"``, ``"missed"`` and
    ``"maybe_missed"`` (regular) or ``"zero_residual"`` (singular).
    Equalities and ``"bound"`` hold within ``tol``; strict inequalities need
    slack above ``tol``.  The margin is the equality error or the slack.  A
    regular ``"bound"`` or strict outcome needs the value within ``tol`` of
    w_i, so finite, where w is analytic and its derivative limit finite.
    Every singular outcome needs a finite residual r, and a ``"bound"`` or
    strict one |r| > ``tol``, as it compares -1/r.  Short of these an
    outcome fails with no margin.

    ``"maybe_missed"`` is the paper's three-way outcome of index 5: w(x_i)
    fails to exist, or differs from w_i, or equals it with an infinite
    kernel diagonal.  Its check is ``"missed"``'s, the value error above
    ``tol``: a value that is not finite has an infinite error
    (``_limit_errors``), and the third clause never decides, as a rational w
    with a finite limit at a real node is analytic there, so its kernel
    diagonal is the finite derivative.

    ``limits`` are the node's ``_node_limits``, taken here when not given
    (for a w with an origin, the node's row of its whole node pass); they
    are the verification's details, zero test included.
    """
    ell = sys.ell
    regular = node_index < ell
    if kind not in (_REGULAR_DESCRIPTIONS if regular else _SINGULAR_DESCRIPTIONS):
        raise ValueError(f"unexpected outcome kind {kind!r}")
    if limits is None:
        limits = _node_limits(sys, w, [node_index])[node_index]
    errors = _limit_errors(sys, node_index, limits)
    if regular:
        value_err = errors["value"]
        if kind == "exact":
            err = max(value_err, errors["derivative"])
            return NodeVerification(err <= tol, err, limits)
        if kind in ("missed", "maybe_missed"):
            return NodeVerification(value_err > tol, value_err, limits)
        if not value_err <= tol:
            return NodeVerification(False, None, limits)
        s = limits["derivative"].value.real
        bound = sys.floats.data[node_index][1]
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
        bound = -1.0 / sys.floats.data[node_index][0]
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

    w's node pass, its jets at every node read from (Theta, phi)
    (``lft_jets``), is taken once: w = ``apply_lft(Theta, phi)`` cancels
    where its zero flags read zero, and the outcomes are checked on the
    limits it gives (``_node_limits``), so each node's zero test runs once.
    Theta keeps every node, in order: r_i = 0 would make row i of P^-1
    diagonal ((x_i - x_j) (P^-1)_ij = te_i tc_j - tc_i te_j), and then
    te_i = (P^-1)_ii E_i and tc_i = (P^-1)_ii C_i do not both vanish.
    Each node's label, predicted outcome, limits and verdict are formed in
    one pass, and its ``NodeReport`` is built once.  w keeps its origin
    (Theta, phi), so its kernel is sampled through Theta's residue form
    (``kernel_negative_squares``): w's coefficients are never compiled to
    floats, and no polynomial is rooted.  On both lanes w is its origin
    alone: the op forms no polynomial, and the pass's zero flags (exact on
    the exact lane) decide whether the transform degenerates.  What does
    not depend on phi -- Theta's grid and its values there, and its node
    table -- Theta keeps from the first parameter it certifies, so later
    parameters of the same system pay only for their own work.  Returns the
    classification report (with per-node verification attached), the
    transformed function, and its sampled negative-squares count, a lower
    bound of w's negative squares, which number the class index kappa - k.
    """
    from .resolvent import build_theta
    from .transform import _node_cancelled, is_nevanlinna

    check = is_nevanlinna(phi)
    if not check.ok:
        raise NotNevanlinnaError("parameter kernel is not positive", check.witness)
    theta = build_theta(sys)
    jets = lft_jets(theta, *phi.pair())
    w = _node_cancelled(theta, phi, jets)
    labels, outcomes, k = _classified(sys, phi)
    limits = _jet_node_limits(sys, range(sys.n), jets)
    nodes = tuple(
        NodeReport(i + 1, label, outcome, verify_outcome(sys, w, i, outcome.kind, tol, limits[i]))
        for i, (label, outcome) in enumerate(zip(labels, outcomes))
    )
    sampled = kernel_negative_squares(w, config=config, span=sys.floats.span)
    return ClassificationReport(nodes, k, sys.kappa), w, sampled


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
    """Unique solution for a singular Pick matrix, from a kernel vector y of
    ``sys.kernel``:

        w(z) = (y* (zI-X)^(-1) C*) / (y* (zI-X)^(-1) E*),

    the barycentric form sum_i y_i C_i / (z - x_i) / sum_i y_i E_i / (z - x_i).
    The result does not depend on the kernel vector; with nullity above one
    every basis vector is tried and the results are required to agree.

    For each y, w = u_0 / u_1 for u = sum_i y_i (C_i; E_i) / (z - x_i): the
    residue form on all the nodes with left columns (C_i, E_i), right rows
    (y_i, 0) and constant term 0, applied to phi = infinity, whose node zero
    test flags the nodes outside y's support S.  A float w keeps that
    origin, so its limits, grid, values and document are read from the node
    sums, stable where monomial coefficients are not (Berrut and Trefethen,
    SIAM Review 46, 2004).  An exact w is its expansion
    (``resolvent._expansion``), with exact integers and jets: node sums over
    S, cancelled once at each node outside S where num and den both
    vanish.  No other common factor exists; with a = num / D_S, b = den / D_S:

    1. At x_i, i in S, num and den are y_i C_i prod_{j != i} (x_i - x_j)
       and y_i E_i times the same product, and (C_i, E_i) is (w_i, 1) or
       (xi_i, 0) with xi_i != 0 (``InterpolationData``): not both zero.
    2. Off the nodes, u(z) = (zI - X)^(-1) y satisfies (zI - X) P u(z) =
       E^T a(z) - C^T b(z), by the Lyapunov identity PX - XP = E^T C -
       C^T E and Py = 0.  At a common zero z_0 that is no node, P u(z_0) =
       0, and u(z_0) has support S.  For s in S, u(z_0) - y / (z_0 - x_s)
       is then a kernel vector with support S minus {s}, nonzero when
       |S| >= 2.  But each vector e_f - P_SS^(-1) P_Sf of
       ``symmetric_elimination``'s kernel basis is, up to scale, the only
       kernel vector on its support, as a kernel vector is fixed by its
       free coordinates: a contradiction.  With |S| = 1, a and b have no
       zeros at all.
    3. At x_i, i not in S, the identity gives only P u(x_i) in span(e_i),
       and common zeros do occur: nodes (0, 1, 2), values (3, 3, 5) and
       bounds (0, 0, gamma_3) have kernel (-2, 1, 0), the pair over S is
       (3z - 6) / (z - 2), and w = 3.  Such a zero is simple: were a and b
       both to vanish twice at x_i, every row of (zI - X) P u(z) would
       vanish twice there, so every row of P u(z) at least once:
       P u(x_i) = 0, and
       u(x_i) = sum_S y_j e_j / (x_i - x_j), a kernel vector with support
       S, would be a multiple of y as in 2; the x_i - x_j, j in S, would
       then be equal, so |S| = 1, where a and b have no zeros.

    The exact kernel is ``symmetric_elimination``'s basis, read by
    ``build_system``; the float one has its entries within the SVD's error
    of 0 set to 0 (``problem.KERNEL_ENTRY_FACTOR``), so that the zero test
    flags the nodes outside the exact support too.
    """
    if sys.invertible:
        raise ValueError("Pick matrix is invertible; use the resolvent instead")
    from .resolvent import RationalMatrix2x2, _expansion

    if not sys.exact:
        from .transform import Parameter, _node_cancelled
    zero = Fraction(0) if sys.exact else 0.0
    candidates = []
    for y in sys.kernel:
        form = RationalMatrix2x2(nodes=sys.X, left=tuple(zip(sys.C, sys.E)),
                                 right=tuple((v, zero) for v in y), constant=((zero, zero),) * 2)
        try:
            if sys.exact:
                candidates.append(RationalFunction(
                    *_expansion(form, Polynomial.one(), Polynomial(())), reduce=False))
            else:
                candidates.append(_node_cancelled(form, Parameter.infinity()))
        except DegenerateTransformError:
            raise NoSolutionRepresentationError(
                "degenerate closed form has an identically zero denominator"
            ) from None
    first = candidates[0]
    for other in candidates[1:]:
        if not (first == other if sys.exact else _realizations_agree(sys, first, other)):
            raise NoSolutionRepresentationError(
                "kernel vectors produced different unique solutions")
    return first


def _realizations_agree(sys: PickSystem, v: RationalFunction, w: RationalFunction) -> bool:
    """Whether float solutions v = a / b and w = c / d, for the node sums
    (a; b) and (c; d) of their realizations, meet a d = c b within
    UNIQUE_AGREEMENT_TOL of |a d| + |c b| on the default grid."""
    import numpy as np

    span = sys.floats.span
    (a, b), (c, d) = (f._origin[0]._grid_table(span, DEFAULT_GRID)[1][:, :, 0].T for f in (v, w))
    lhs, rhs = a * d, c * b
    return bool(np.all(np.abs(lhs - rhs) <= UNIQUE_AGREEMENT_TOL * (np.abs(lhs) + np.abs(rhs))))


def _verification_json(report: dict) -> dict:
    """``verify_candidate``'s report as a JSON document: each check as its
    ``LimitEstimate`` document, and an infinite error as ``"inf"``."""
    nodes = [{**node,
              "checks": {key: limit.to_json() for key, limit in node["checks"].items()},
              "errors": {key: _inf_json(err) for key, err in node["errors"].items()}}
             for node in report["nodes"]]
    return {**report, "nodes": nodes}


def verify_candidate(
    sys: PickSystem,
    w: RationalFunction,
    tol: float = VERIFY_TOL,
    config: GridConfig = DEFAULT_GRID,
) -> dict:
    """Check a candidate w against the data at every node, plus kernel counts.

    Every node's limits are read from w's jets and reported with their
    errors against the data.  ``problem1`` is the ``"exact"`` outcome of
    ``verify_outcome`` on them and ``problem2`` its ``"bound"`` outcome,
    both within ``tol``.  The report also carries the sampled
    bordered-kernel count, which a solution of problem 3 has equal to
    kappa, and the plain kernel count of w.
    """
    nodes = []
    all_limits = _node_limits(sys, w, range(sys.n))
    for i, limits in all_limits.items():
        nodes.append(
            {
                "node": i + 1,
                "kind": "regular" if sys.data.is_regular(i) else "singular",
                "checks": {k: v for k, v in limits.items() if isinstance(v, LimitEstimate)},
                "errors": _limit_errors(sys, i, limits),
                "problem1": verify_outcome(sys, w, i, "exact", tol, limits).ok,
                "problem2": verify_outcome(sys, w, i, "bound", tol, limits).ok,
            }
        )
    fmi = fmi_check(sys, w, config=config)
    sampled = kernel_negative_squares(w, config=config, span=sys.floats.span)
    return {
        "nodes": nodes,
        "fmi_count": fmi,
        "kappa": sys.kappa,
        "kernel_negative_squares": sampled,
        "is_problem3_solution": fmi == sys.kappa,
    }

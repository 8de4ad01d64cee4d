"""Extended Nevanlinna-class parameters and the linear-fractional transform.

A parameter is a finite real constant, the adjoined infinity, or a rational
function with real coefficients.  Applying the resolvent by

    w = (Theta11 phi + Theta12) / (Theta21 phi + Theta22)

(with w = Theta11/Theta21 for phi = infinity) produces the candidate
interpolants; a rational parameter is in the Nevanlinna class exactly when
its Bezout matrix has no negative eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import (
    Polynomial,
    RationalFunction,
    scalar_from_json,
    scalar_to_json,
    symmetric_elimination,
)
from .errors import DegenerateTransformError, NotNevanlinnaError

if TYPE_CHECKING:
    from .resolvent import RationalMatrix2x2


@dataclass(frozen=True)
class Parameter:
    """Finite real constant, infinity, or a real-coefficient rational function."""

    kind: str
    value: object = None
    func: RationalFunction | None = None

    @staticmethod
    def constant(value) -> "Parameter":
        if isinstance(value, float):
            return Parameter("const", value=value)
        return Parameter("const", value=Fraction(value))

    @staticmethod
    def infinity() -> "Parameter":
        return Parameter("inf")

    @staticmethod
    def rational(func: RationalFunction) -> "Parameter":
        if not func.is_real():
            raise NotNevanlinnaError(
                "rational parameters must have real coefficients; complex-"
                "coefficient functions are not admitted"
            )
        return Parameter("rational", func=func)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "inf"

    def pair(self) -> tuple:
        """Polynomials (p, q) with phi = p/q: (1, 0) for infinity.  Built on
        the first call and kept, so every later call returns the same pair."""
        pair = vars(self).get("_pair")
        if pair is None:
            if self.is_infinite:
                pair = Polynomial.one(), Polynomial(())
            else:
                rf = self.as_rational()
                pair = rf.num, rf.den
            vars(self)["_pair"] = pair  # as functools.cached_property stores
        return pair

    def as_rational(self) -> RationalFunction:
        """Finite parameter as a rational function (constants included)."""
        if self.kind == "const":
            return RationalFunction.constant(self.value)
        if self.kind == "rational":
            return self.func
        raise ValueError("the infinite parameter has no rational form")

    @staticmethod
    def from_json(obj) -> "Parameter":
        kind = obj.get("type")
        if kind == "inf":
            return Parameter.infinity()
        if kind == "const":
            return Parameter.constant(scalar_from_json(obj["value"]))
        if kind == "rational":
            return Parameter.rational(RationalFunction.from_json(obj))
        raise ValueError(f"unknown parameter type {kind!r}")

    def to_json(self) -> dict:
        """The parameter's document, which ``from_json`` reads back; a
        rational one holds the coefficients ``pair`` reads, those of a
        function with an origin included."""
        if self.kind == "inf":
            return {"type": "inf"}
        if self.kind == "const":
            return {"type": "const", "value": scalar_to_json(self.value)}
        num, den = ([scalar_to_json(c) for c in p.coeffs] for p in (self.func.num, self.func.den))
        return {"type": "rational", "num": num, "den": den}

    def __repr__(self):
        if self.kind == "inf":
            return "Parameter(inf)"
        if self.kind == "const":
            return f"Parameter({self.value})"
        return f"Parameter({self.func})"


@dataclass(frozen=True)
class NevanlinnaWitness:
    """nu_-(B), an exact v with v^T B v < 0, and v^T B v / v^T v >= lambda_min(B)."""

    negatives: int
    vector: tuple
    quotient: Fraction


@dataclass(frozen=True)
class NevanlinnaCheck:
    ok: bool
    witness: NevanlinnaWitness | None = None

    def __bool__(self):
        return self.ok


def _bezout(p: Polynomial, q: Polynomial) -> list:
    """Rows of the d x d Bezout matrix B, (p(z) q(w) - p(w) q(z)) / (z - w) =
    sum B_jk z^j w^k with d = max(deg p, deg q), as ``Fraction`` values (a
    float coefficient's real part is the dyadic rational it holds)."""
    d = max(p.degree, q.degree)
    pc, qc = ([Fraction(c.real) for c in g.coeffs] + [0] * (d + 1 - len(g.coeffs)) for g in (p, q))
    rows = [[0] * d for _ in range(d)]
    for j in range(d + 1):
        for i in range(j):
            c = pc[j] * qc[i] - pc[i] * qc[j]
            for m in range(j - i):
                rows[i + m][j - 1 - m] += c
    return rows


def is_nevanlinna(phi: Parameter) -> NevanlinnaCheck:
    """Whether phi is in the Nevanlinna class, from its Bezout matrix.

    Constants and infinity pass.  For phi = p/q with real p and q, the
    kernel (phi(z) - conj phi(w)) / (z - conj w) is v(z) B v(w)* /
    (q(z) conj q(w)) with v(z) = (1, z, ..., z^(d-1)) and B = ``_bezout(p, q)``,
    so its negative squares are B's negative eigenvalues (Krein and Naimark,
    1936), counted exactly on both lanes by ``symmetric_elimination``, which
    also gives a rejection's exact witness.
    """
    if phi.kind in ("const", "inf"):
        return NevanlinnaCheck(True)
    bezout = _bezout(*phi.pair())
    elimination = symmetric_elimination(bezout)
    negatives, v = elimination.inertia.negatives, elimination.negative
    if not negatives:
        return NevanlinnaCheck(True)
    form = sum(x * y * c for x, row in zip(v, bezout) for y, c in zip(v, row))
    return NevanlinnaCheck(False, NevanlinnaWitness(negatives, tuple(v), form / sum(x * x for x in v)))


def apply_lft(theta: RationalMatrix2x2, phi: Parameter) -> RationalFunction:
    """Linear-fractional transform of a parameter by the resolvent.

    With phi = p/q, and phi = infinity as the pair (1, 0), w is u_0 / u_1
    for u = Theta (p; q), a node sum over Theta's residue form.  An
    identically vanishing denominator means the transform degenerates to
    the constant infinity, which is rejected.

    Both lanes cancel by one rule, with no gcd and no root finding.  With
    [num; den] = N [p; q] over the product D of the nodes, N = D Theta,
    det N = D^2 det Theta = D^2 (every matrix built from resolvents has
    det Theta == 1), so a common factor g of num and den divides
    adj(N) [num; den] = D^2 [p; q], and as p and q are coprime, g divides
    D^2: it is a product of factors (z - x_i) at the nodes, each at most
    twice.  Near x_i, [num; den] is a nonzero multiple of
    u(t) = (z - x_i) Theta(z) v(z), v = (p; q), whose constant term is
    l_i (r_i . v(x_i)) with l_i != 0; so z - x_i divides both exactly where
    r_i . v(x_i) = 0 (phi(x_i) = eta_i), and divides both twice where u's
    next order vanishes too.

    Where they share z - x_i is the node zero test r_i . v(x_i) = 0,
    decided in integers for an exact matrix with an exact parameter
    (``boundary._exact_node_zeros``) and otherwise at JET_ZERO_TOL
    (``boundary.node_zero_test``, O(1) per node, in floats, so data beyond
    the float range raise ``FloatRangeError``).  On both lanes w is returned
    as its origin (Theta, phi), and its zero flags decide whether it
    degenerates (``_node_cancelled``): no node pass is taken unless every
    node that could prove den nonzero is flagged.  Its num and den are
    formed only when first read, by the one expansion of a realization
    (``resolvent._expansion``).  ``solver.classify_and_verify`` takes w's
    node pass once (``boundary.lft_jets``) and builds w from its flags by
    the same private function, so a certify op decides each node once and
    forms no polynomial.  w keeps no pass: its jets at the nodes, each read
    a row of the whole node pass, its grid values, its values at float
    points and a float w's document are read from the origin
    (``boundary.function_jets``, ``_sections.pole_free_grid``,
    ``RationalFunction.eval``, ``RationalFunction.to_json``).
    """
    return _node_cancelled(theta, phi)


def _node_cancelled(theta: RationalMatrix2x2, phi: Parameter, jets=None) -> RationalFunction:
    """``apply_lft`` of phi, with its origin (Theta, phi) kept on w: the one
    place that builds w.  ``jets`` holds the ``boundary.Jet`` of w at each
    of Theta's nodes, in their order, when the caller has w's node pass,
    whose zero flags are then read; otherwise the flags are taken here, from
    ``_exact_node_zeros`` on the exact lane and ``node_zero_test`` on the
    float lane, and w keeps nothing of them.

    w is returned with num and den unset, which ``RationalFunction.__getattr__``
    forms when first read.  Degeneracy is decided from the zero flags.  Near
    x_i, u(t) = (z - x_i) Theta(z) v(z) has second component (z - x_i) den,
    den = Theta21 p + Theta22 q, with constant term l_i[1] (r_i . v(x_i)),
    for any constant term K of Theta (so the degenerate solution's
    realization, K = 0, is built here too).  So a node with l_i[1] != 0
    (E_i = 1 at a regular node of a resolvent) whose flag reads nonzero
    proves den is not zero.  Only where every such node is flagged is more
    needed.  The exact lane then forms num and den, and rejects a zero den.
    The float lane reads the node pass: D den, D the product of the n nodes,
    has degree at most n + deg phi and is prod_{j != i} (z - x_j) times u's
    second component near x_i, whose first JET_ORDERS Taylor coefficients
    are the jet's ``den``.  Where every node's ``den`` jet reads zero (at
    JET_ZERO_TOL), D den has JET_ORDERS n zeros, more than its degree
    whenever deg phi < (JET_ORDERS - 1) n, so den is identically zero and
    the transform, the constant infinity, is rejected.  A phi of higher
    degree is expanded here to decide.
    """
    from .boundary import JET_ORDERS, _exact_node_zeros, lft_jets, node_zero_test
    from .resolvent import _DEGENERATE, _expansion

    p, q = phi.pair()
    exact = theta.exact and p.exact and q.exact
    if jets is not None:
        flags = [jet.zero_test["zero"] for jet in jets]
    elif exact:
        flags = _exact_node_zeros(theta, p, q)
    else:
        flags = node_zero_test(theta, p, q)[0]
    expand = not any(l[1] and not zero for l, zero in zip(theta.left, flags))
    if expand and not exact and max(p.degree, q.degree) < (JET_ORDERS - 1) * len(theta.nodes):
        if not any(any(jet.den) for jet in (jets or lft_jets(theta, p, q))):
            raise DegenerateTransformError(_DEGENERATE)
        expand = False
    if expand:
        w = RationalFunction(*_expansion(theta, p, q, flags), reduce=False)
    else:
        w = RationalFunction.__new__(RationalFunction)
        object.__setattr__(w, "exact", exact)
    object.__setattr__(w, "_origin", (theta, phi))
    return w

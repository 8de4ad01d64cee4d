"""Boundary limits and kernel-positivity certificates.

Every certificate about a node reads a nontangential boundary limit, and
for the rational functions certified here that limit is the function's
Laurent jet at the node: no path is sampled.  ``jet_limits`` is the one
rule that turns the Taylor coefficients of a numerator and a denominator at
a point into the ``LimitEstimate``s of the value, the derivative, the
residual and the kernel diagonal.  Two sources feed it: ``lft_jets`` reads
the jets of w = Theta o phi from Theta's residue form, for all nodes in one
numpy pass, and ``rational_jets`` takes those of a function's own
coefficients (a parameter, or a candidate with no resolvent), exactly where
they are exact.  ``function_jets`` picks the source: a w with an origin
(Theta, phi), a realization, has its jets at Theta's nodes read from
there, never from w's float coefficients.  Float
coefficients are zero when within ``JET_ZERO_TOL`` of their scale.  The
module also holds the sampled negative-squares counts of Nevanlinna kernels
and the bordered-kernel solution criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from ._sections import (
    DEFAULT_GRID,
    GridConfig,
    negative_count,
    nevanlinna_kernel,
    pole_free_grid,
)
from .algebra import (
    Polynomial,
    RationalFunction,
    _cleared_integers,
    _compiled,
    _scaled_value,
    is_exact,
)
from .errors import FloatRangeError
from .problem import PickSystem


class LimitKind(Enum):
    VALUE = "value"
    DERIVATIVE = "derivative"
    RESIDUAL = "residual"
    KERNEL_DIAGONAL = "kernel_diagonal"


@dataclass(frozen=True)
class LimitEstimate:
    """A tagged boundary limit, read from a jet."""

    kind: LimitKind
    status: str  # "finite" | "infinite" | "dne"
    value: complex | None

    @property
    def converged(self) -> bool:
        """A jet's limit is exact where it is finite: nothing is extrapolated."""
        return self.is_finite

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.status == "infinite"

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "value": _complex_json(self.value) if self.is_finite else self.status_token(),
        }

    def status_token(self) -> str:
        return {"infinite": "inf", "dne": "dne"}[self.status]


# A limit is written as real when |Im| <= LIMIT_IMAG_TOL max(1, |z|), the
# imaginary rounding (about u |z|) that complex coefficients leave.
LIMIT_IMAG_TOL = 1e-12


def _complex_json(z):
    z = complex(z)
    return z.real if abs(z.imag) <= LIMIT_IMAG_TOL * max(1.0, abs(z)) else [z.real, z.imag]


def nt_limit(f: RationalFunction, x0, kind: LimitKind = LimitKind.VALUE) -> LimitEstimate:
    """The nontangential boundary limit of a rational function at a real
    point x0, read from its jet there (``function_jets``, ``jet_limits``).

    ``kind`` selects the quantity: the value f(z), the derivative f'(z), the
    residual (z - x0) f(z), or the kernel diagonal Im f(z) / Im z.
    """
    kind = LimitKind(kind)
    jet = function_jets(f, [x0])[0]
    return jet_limits(jet.num, jet.den, (kind.value,))[kind.value]


# -- limits as jets -----------------------------------------------------------

# A Taylor coefficient of a float jet counts as zero when its modulus is at
# most JET_ZERO_TOL times the sum of the moduli of the terms that form it
# (its scale).  Rounding alone leaves a coefficient within about (n + 4) u of
# its scale, u = 2^-53, which is under 1e-14 for the few dozen nodes a residue
# form has here; that is the whole error when the data are exact, as on the
# exact lane, whose residue data are rounded once.  On the float lane Theta's
# rows (te_i, -tc_i) come from a float inverse of P and carry its relative
# error, about cond(P) u, so 1e-9 keeps a factor of 10 above it up to
# cond(P) = 10^6.  A genuinely nonzero coefficient below 1e-9 of its scale
# reads as zero: the float lane resolves no finer.  That is a hundred times
# finer than THRESHOLD_TOL = 1e-7, at which the labels compare phi(x_i) with
# eta_i.  Measured on 13083 node tests r_i . v(x_i) = 0 (300 random systems
# with n <= 6 and the probe systems at n = 8, 16 and 24 of tests/conftest.py,
# under eleven parameters), the float lane read the 40 that vanish exactly at
# most 1.9e-16 of their scale and the others at least 4.9e-5; tests/test_jets.py
# keeps a smaller draw of that check.  The float lane's ``apply_lft`` cancels
# where this test reads r_i . v(x_i) as zero (``node_zero_test``).  The float
# product ``@`` of residue forms reads r . l' and the residue R at a shared
# node, and det R, against their modulus scales with the same tolerance, by
# the same argument: each is a sum of products of float residue data, exact
# zero when the data are (for a matrix times its inverse, R is the residue of
# det Theta, zero when det Theta == 1), so rounding and the data's relative
# error, about cond(P) u, are all it carries.  On the probe systems at
# n = 4 to 40, Theta times its inverse read R at most 8.2e-16 of its scale.
JET_ZERO_TOL = 1e-9
# Taylor orders a jet keeps: a common factor (z - x) is shifted out at most
# twice, and the value and derivative, or the residue, read the two orders
# after it.
JET_ORDERS = 4
JET_KINDS = ("value", "derivative", "residual", "kernel_diagonal")
_ZERO = Fraction(0)


class Jet(NamedTuple):
    """The Taylor coefficients, ascending in t = z - x, of the numerator and
    the denominator of a function at a point x, the coefficients a zero test
    decided zero set to 0, and the node's reported zero test."""

    num: list
    den: list
    zero_test: dict


def jet_limits(num, den, kinds=JET_KINDS) -> dict:
    """The boundary limits of f = num/den at a real point x from the Taylor
    coefficients of num and den there (``JET_ORDERS`` of each, ascending).

    This is the one rule that turns jets into ``LimitEstimate``s, for every
    source of jets.  For a rational function with real coefficients the
    nontangential limit at x is its Laurent jet there, so no path is
    sampled.  A common leading zero of num and den (a factor z - x of both)
    is shifted out, at most twice; a common zero of higher order leaves no
    limit (``"dne"``).  With p the order of the denominator after the shift,
    f = t^-p (a_0 + a_1 t + ...) / (b_p + b_(p+1) t + ...), whose Laurent
    coefficients c_k follow by series division:

    - the value is c_0 and the derivative c_1 where p = 0, infinite otherwise;
    - the residual (z - x) f tends to 0 where p = 0, to c_-1 where p = 1, and
      is infinite where p >= 2;
    - the kernel diagonal Im f(x + it)/t, for f with real coefficients, is
      infinite where an odd negative c_k is nonzero and otherwise c_1; it is
      ``"dne"`` where the jets end before deciding, which only a pole of
      order two or more can need.  No verdict reads it: where the value is
      finite it is the finite derivative (``nt_limit`` keeps it public).

    Returns a dict of estimates keyed by the names in ``kinds``.
    """
    return dict(zip(kinds, map(_jet_estimate, kinds, _jet_values(num, den, kinds))))


def _jet_values(num, den, kinds=JET_KINDS) -> list:
    """``jet_limits``' quantities named in ``kinds``, in their order: a
    number, or the status ``"infinite"`` or ``"dne"``.  Only the Laurent
    coefficients they read are formed."""
    s = 0
    while s < 2 and not num[s] and not den[s]:
        s += 1
    a, b = num[s:], den[s:]
    if not (a[0] or b[0]):
        return ["dne"] * len(kinds)
    p = 0
    while p < len(b) and not b[p]:
        p += 1
    # c_(k - p) = g_k for g = a / (b_p + b_(p+1) t + ...): the value and the
    # residual read g_0, the derivative g_1 and the kernel diagonal up to c_1
    reads = p + 2 if "kernel_diagonal" in kinds else 2 if "derivative" in kinds else 1
    g = []
    for k in range(min(len(b) - p, reads)):
        rest = a[k]
        for m in range(1, k + 1):
            if b[p + m]:
                rest -= b[p + m] * g[k - m]
        g.append(rest / b[p])
    found = []
    for name in kinds:
        if name == "kernel_diagonal":
            odd = [g[p + k] if p + k < len(g) else None for k in range(-1, -p - 1, -2)]
            if any(odd):
                found.append("infinite")
            elif None in odd or p + 1 >= len(g):
                found.append("dne")
            else:
                found.append(g[p + 1])
        elif name == "residual":
            found.append(0.0 if p == 0 else g[0] if p == 1 else "infinite")
        else:
            found.append("infinite" if p else g[name == "derivative"])
    return found


_KINDS = {kind.value: kind for kind in LimitKind}
# The estimates of a limit that is not finite carry only their kind and
# status, so each is one shared record.
_NOT_FINITE = {
    (name, status): LimitEstimate(kind, status, None)
    for name, kind in _KINDS.items()
    for status in ("infinite", "dne")
}


def _jet_estimate(name: str, found) -> LimitEstimate:
    """The ``LimitEstimate`` of kind ``name`` from a ``_jet_values`` entry."""
    if isinstance(found, str):
        return _NOT_FINITE[name, found]
    value = found if isinstance(found, (float, complex)) else float(found)
    return LimitEstimate(_KINDS[name], "finite", value)


def _zero_test(relative: float, zero: bool, exact: bool) -> dict:
    """A node's reported zero test, from the tested quantity over its scale:
    the ``margin`` is that ratio over JET_ZERO_TOL, above 1 where the float
    rule reads the quantity as nonzero; ``exact`` when it was decided
    exactly."""
    return {"tol": JET_ZERO_TOL, "margin": relative / JET_ZERO_TOL, "zero": zero, "exact": exact}


def _exact_taylor(coeffs, ints, scale, x) -> list:
    """The first JET_ORDERS Taylor coefficients, ascending in t = z - x, at
    the rational point x = a/b of the polynomial with ascending ``Fraction``
    coefficients ``coeffs`` = I_m / scale (``_cleared_integers``).

    With d the degree, T_d is the leading coefficient and every higher one
    is zero.  Below d, s_k = scale b^(d - k) T_k is an integer, and Horner's
    rule with derivatives runs in integers: over I_d, ..., I_0 with
    multiplier b^j at the j-th, s_k <- a s_k + s_(k-1) from the top order
    down, then s_0 <- a s_0 + b^j I_(d - j) (as ``_scaled_value``); one
    ``Fraction`` is formed per order.
    """
    d = len(ints) - 1
    jet = [_ZERO] * JET_ORDERS
    if 0 <= d < JET_ORDERS:
        jet[d] = coeffs[-1]
    low = min(d, JET_ORDERS)
    if low <= 0:
        return jet
    a, b = x.numerator, x.denominator
    s = [0] * low
    power = 1
    for j, c in enumerate(reversed(ints)):
        for k in range(min(j, low - 1), 0, -1):
            s[k] = a * s[k] + s[k - 1]
        s[0] = a * s[0] + c * power
        power *= b
    for k, v in enumerate(s):
        if v:
            jet[k] = Fraction(v, scale * b ** (d - k))
    return jet


def _float_taylor(polys, x, count=JET_ORDERS) -> tuple:
    """(jets, scales): the first ``count`` Taylor coefficients of each
    polynomial at each of the float points x, shape (count, polynomials,
    points), and the same sums with every term replaced by its modulus.  The
    k-th coefficient of sum_m a_m z^m is sum_m C(m, k) a_m x^(m - k), one
    product with the powers of x.  Coefficients are real unless some
    polynomial has a non-real one."""
    import numpy as np

    width = max(1, *(len(p.coeffs) for p in polys))
    coeffs = np.zeros((len(polys), width), dtype=complex)
    for row, p in zip(coeffs, polys):
        row[: len(p.coeffs)] = _compiled(p)[::-1]
    if not coeffs.imag.any():
        coeffs = coeffs.real
    weights = np.zeros((count,) + coeffs.shape, dtype=coeffs.dtype)
    for k in range(min(count, width)):
        weights[k, :, : width - k] = [math.comb(m, k) for m in range(k, width)] * coeffs[:, k:]
    powers = np.vander(x, width, increasing=True).T
    return weights @ powers, np.abs(weights) @ np.abs(powers)


def _snap(jets, scales) -> None:
    """Set the float coefficients the zero rule reads as zero to 0, in place."""
    import numpy as np

    jets[np.abs(jets) <= JET_ZERO_TOL * scales] = 0


def rational_jets(f: RationalFunction, points) -> list:
    """The ``Jet`` of f's numerator and denominator at each point.

    Exact coefficients at exact points give exact ``Fraction`` jets, whose
    zero tests are exact; otherwise the jets are float64 arrays over all the
    points, with every coefficient tested against JET_ZERO_TOL.  The
    reported zero test is den(x) = 0, relative to the sum of the moduli of
    its terms.
    """
    if f.exact and all(map(is_exact, points)):
        cleared = [(g.coeffs, *_cleared_integers(g.coeffs)) for g in (f.num, f.den)]
        ints = cleared[1][1]
        moduli = [abs(c) for c in ints]
        out = []
        for x in points:
            num, den = (_exact_taylor(*g, x) for g in cleared)
            # the ratio of two integers, correctly rounded and at most 1
            a, b = x.numerator, x.denominator
            relative = (abs(_scaled_value(ints, a, b)) / _scaled_value(moduli, abs(a), b)
                        if den[0] else 0.0)
            out.append(Jet(num, den, _zero_test(relative, not den[0], True)))
        return out
    import numpy as np

    x = np.array([float(v) for v in points])
    jets, scales = _float_taylor((f.num, f.den), x)
    relative = np.abs(jets[0, 1]) / np.where(scales[0, 1] > 0, scales[0, 1], 1.0)
    _snap(jets, scales)
    zero = (jets[0, 1] == 0).tolist()
    return [Jet(a, b_, _zero_test(r, z, False)) for (a, b_), r, z in
            zip(jets.transpose(2, 1, 0).tolist(), relative.tolist(), zero)]


def lft_jets(theta, p: Polynomial, q: Polynomial) -> list:
    """The ``Jet`` of w = (Theta11 phi + Theta12) / (Theta21 phi + Theta22),
    phi = p/q, at each of Theta's nodes in their order, read from Theta's
    residue form: w's node pass, the one source of w's limits at its nodes.

    u(t) = (z - x) Theta(z) v(z) with v = (p; q) and z = x + t has w as the
    ratio of its two components, and ``RationalMatrix2x2.residue_jets``
    gives its Taylor coefficients at every node at once from the float
    residue data, with v's own Taylor coefficients; no polynomial of w is
    built or sampled.  At a node x_i, u_0 = l_i (r_i . v(x_i)), which
    ``node_zero_test`` decides; where it reads zero, u_0 is set to 0.
    Every higher coefficient is tested against JET_ZERO_TOL on both lanes.
    The jets are float64 on both lanes; where a coefficient or its scale
    overflows the float range, ``FloatRangeError`` is raised.  The pass
    also says where w cancels: its zero flags, and u_1 at the flagged
    nodes.  A node's jet is a row of the whole pass, so a read at one node
    is bit for bit the row a certify op reads there.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        v = _float_taylor((p, q), theta._samplers[0])[0]
        u, scale = theta.residue_jets(v)
    # every term of u enters its scale by modulus, so a finite scale bounds u
    if not np.isfinite(scale).all():
        raise FloatRangeError(
            "the jets of w at the nodes exceed the float range; "
            "its boundary limits cannot be read in floats"
        )
    zero, relative, exact = node_zero_test(theta, p, q, v[0])
    u[0][:, np.array(zero, dtype=bool)] = 0
    _snap(u[1:], scale[1:])
    return [Jet(a, b_, _zero_test(r, z, exact)) for (a, b_), r, z in
            zip(u.transpose(2, 1, 0).tolist(), relative, zero)]


def function_jets(f: RationalFunction, points) -> list:
    """The ``Jet`` of f at each point, from the one source that holds it.

    A w with an origin (Theta, phi), a realization: where every point is a
    node of Theta its jets are the rows of w's node pass (``lft_jets``) at
    those nodes, the pass ``classify_and_verify`` reads, as a float w's
    coefficients are off from n of about 16.  Every other function, and w
    away from the nodes, takes the jets of its own coefficients
    (``rational_jets``), which expands w.
    """
    origin = f._origin
    if origin is not None:
        theta, phi = origin
        index = {float(x): i for i, x in enumerate(theta.nodes)}
        rows = [index.get(float(x)) for x in points]
        if None not in rows:
            jets = lft_jets(theta, *phi.pair())
            return [jets[i] for i in rows]
    return rational_jets(f, points)


def node_zero_test(theta, p: Polynomial, q: Polynomial, values=None) -> tuple:
    """(zero, relative, exact): the zero test r_i . v(x_i) = 0 at each of
    Theta's nodes x_i, v = (p; q), with |r_i . v(x_i)| over its scale, and
    whether it was decided exactly (the fields of ``_zero_test``).

    This is the one test of where w = Theta o (p/q) has numerator and
    denominator sharing the factor z - x_i: u_0 = l_i (r_i . v(x_i)) of
    ``lft_jets``, with l_i != 0, and r_i . v(x_i) = 0 exactly where
    phi(x_i) = eta_i.  ``lft_jets`` runs it at every node, so a certify op
    decides each node once, and a standalone float ``apply_lft`` runs it
    alone.  On the exact lane (Theta, p and q exact) it is decided exactly,
    one integer dot product per node (``_exact_node_zeros``); on the float
    lane it reads JET_ZERO_TOL against the scale |r_i| |v(x_i)| (1-norms,
    the rows' from Theta's ``_node_table``): O(1) per node.  Where the
    quantity or its scale is not finite it raises ``FloatRangeError``, so
    no NaN reads as a flag.  ``values`` is v at the nodes, shape
    (2, nodes), when the caller has it.
    """
    import numpy as np

    x, _, rows, _ = theta._samplers
    with np.errstate(over="ignore", invalid="ignore"):
        if values is None:
            values = _float_taylor((p, q), x, 1)[0][0]
        rho = np.abs(values[0] * rows[:, 0] + values[1] * rows[:, 1])
        rho_scale = (np.abs(values[0]) + np.abs(values[1])) * theta._node_table.right_sizes
    # every term of rho enters rho_scale by modulus, so a finite scale bounds rho
    if not np.isfinite(rho_scale).all():
        raise FloatRangeError(
            "the zero test of w at the nodes exceeds the float range; "
            "where w cancels cannot be read in floats"
        )
    relative = rho / np.where(rho_scale > 0, rho_scale, 1.0)
    exact = theta.exact and p.exact and q.exact
    if exact:
        zero = _exact_node_zeros(theta, p, q)
        relative = np.where(zero, 0.0, relative)
    else:
        zero = (relative <= JET_ZERO_TOL).tolist()
    return zero, relative.tolist(), exact


def _exact_node_zeros(theta, p: Polynomial, q: Polynomial) -> list:
    """Whether r_i . v(x_i) = 0 at each of Theta's exact nodes, decided in
    integers.

    p and q are scaled by one factor to integer coefficients and padded to
    one length D + 1, so that with x = a/b the integers P = b^D p(x) and
    Q = b^D q(x) are positive multiples of p(x) and q(x); with the row
    r_i = (r0, r1), r_i . v(x_i) = 0 exactly when r0 P = -r1 Q.  Both sides
    are compared in lowest terms (``_times``), which takes no product of
    two of the residue data's large integers.
    """
    ints, _ = _cleared_integers([*p.coeffs, *q.coeffs])
    width = max(len(p.coeffs), len(q.coeffs))
    pc = ints[: len(p.coeffs)] + [0] * (width - len(p.coeffs))
    qc = ints[len(p.coeffs) :] + [0] * (width - len(q.coeffs))
    zeros = []
    for x, (r0, r1) in zip(theta.nodes, theta.right):
        a, b = x.as_integer_ratio()
        zeros.append(_times(r0, _scaled_value(pc, a, b)) == _times(r1, -_scaled_value(qc, a, b)))
    return zeros


def _times(r, m) -> tuple:
    """(numerator, denominator) of r m in lowest terms, for a rational r in
    lowest terms and an integer m: the one common factor is gcd(m, den r)."""
    g = math.gcd(m, r.denominator)
    return r.numerator * (m // g), r.denominator // g


def kernel_negative_squares(f: RationalFunction, config: GridConfig = DEFAULT_GRID, *, span) -> int:
    """Sampled negative-squares lower bound of the Nevanlinna kernel of f:
    ``negative_count`` of the kernel on the pole-free grid of ``config`` over
    ``span`` (a (low, high) pair, such as the span of the nodes), where a w
    with an origin is sampled through Theta's residue form, never through
    w's coefficients (``pole_free_grid``)."""
    points, values = pole_free_grid(f, span, config)
    return negative_count(nevanlinna_kernel(points, values), config.eig_tol)


def fmi_check(
    sys: PickSystem,
    w: RationalFunction,
    config: GridConfig = DEFAULT_GRID,
) -> int:
    """Sampled negative count of the bordered solution kernel.

    The Pick matrix P is bordered by one column (zI-X)^(-1) (w(z) E* - C*)
    per point z of the pole-free grid of ``config`` over the node span, and
    completed by the Nevanlinna kernel of w.  The count is the number of
    eigenvalues of the whole bordered matrix below -config.eig_tol *
    max(1, max|lambda|); by Cauchy interlacing it is at least the count of P
    and of any bordered section, and a lower bound of the kernel's negative
    squares.  A candidate solving the master
    interpolation problem yields exactly kappa.
    """
    import numpy as np

    points, values = pole_free_grid(w, sys.floats.span, config)
    x = np.array([float(v) for v in sys.X])
    e = np.array([float(v) for v in sys.E])
    c = np.array([float(v) for v in sys.C])
    z = np.array(points, dtype=complex)
    wvals = np.array(values, dtype=complex)
    border = (e[:, np.newaxis] * wvals - c[:, np.newaxis]) / (z - x[:, np.newaxis])
    full = np.block(
        [[sys.P.to_numpy(), border], [border.conj().T, nevanlinna_kernel(z, wvals)]]
    )
    full = (full + full.conj().T) / 2.0
    return negative_count(full, config.eig_tol)

"""Boundary limits and kernel-positivity certificates.

Every certificate about a node reads a nontangential boundary limit, and
for the rational functions certified here that limit is the function's
Laurent jet at the node.  ``jet_limits`` is the one rule that turns the
Taylor coefficients of a numerator and a denominator at a point into the
``LimitEstimate``s of the value, the derivative, the residual and the
kernel diagonal.  Two sources feed it: ``lft_jets`` reads the jets of
w = Theta o phi from Theta's residue form, for all nodes in one numpy pass,
and ``rational_jets`` takes those of a function's own coefficients (a
parameter, or a candidate with no resolvent), exactly where they are
exact.  Float coefficients are zero when within ``JET_ZERO_TOL`` of their
scale.

Path sampling serves only ``nt_limit``/``nt_limits`` and the
Caratheodory-Julia consistency check.  Those limits are taken along the
vertical path z_k = x0 + i t0 2^-k and accelerated with a second-order
Richardson table; for rational functions the vertical path realizes every
nontangential limit.  All the path limits of one function are taken in one
batched pass: one stacked Horner evaluation of the function's
``RationalSampler`` at every path point, and the stop rules of every path
as array operations.  The arithmetic is split real float64 that performs
CPython's complex product, quotient and modulus term for term, so each
limit equals the one taken one Python complex sample at a time, bit for
bit.  The Caratheodory-Julia check compares limit quantities that must
agree when the boundary derivative exists.  The module also holds the
sampled negative-squares counts of Nevanlinna kernels and the
bordered-kernel solution criterion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from ._sections import (
    DEFAULT_GRID,
    GridConfig,
    negative_count,
    nevanlinna_kernel,
    pole_free_grid,
    span_of,
)
from .algebra import (
    Polynomial,
    RationalFunction,
    _cleared_integers,
    _compiled,
    _scaled_value,
    is_exact,
    split_product,
)
from .errors import FloatRangeError, PoleError
from .problem import PickSystem

if TYPE_CHECKING:
    import numpy as np


class LimitKind(Enum):
    VALUE = "value"
    DERIVATIVE = "derivative"
    RESIDUAL = "residual"
    KERNEL_DIAGONAL = "kernel_diagonal"


@dataclass(frozen=True)
class LimitEstimate:
    """Tagged boundary-limit estimate with its extrapolation history (none
    for a limit read as a jet)."""

    kind: LimitKind
    status: str  # "finite" | "infinite" | "dne"
    value: complex | None
    approximants: tuple
    converged: bool
    error_estimate: float | None

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.status == "infinite"

    @property
    def real(self) -> float:
        if not self.is_finite:
            raise ValueError(f"limit is {self.status}, not finite")
        return float(self.value.real)

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "value": _complex_json(self.value) if self.is_finite else self.status_token(),
            "approximants": [_complex_json(a) for a in self.approximants[-5:]],
            "discrepancy": self.error_estimate,
        }

    def status_token(self) -> str:
        return {"infinite": "inf", "dne": "dne"}[self.status]


def _complex_json(z):
    if z is None:
        return None
    z = complex(z)
    return z.real if abs(z.imag) <= 1e-12 * max(1.0, abs(z)) else [z.real, z.imag]


DIVERGENCE_WINDOW = 5
DIVERGENCE_FACTOR = 10.0
SPREAD_TOL = 1e-3
# Path steps sampled for every request before the stop rules first run.  A
# limit stops after about 13 samples on average and 94% stop within 24; only the
# requests still undecided are sampled on to max_steps.
FIRST_STEPS = 24
# Samples the stop rules look back from the current one (the divergence
# window, and the four raw samples behind two agreeing r2 differences).
_LOOKBACK = max(DIVERGENCE_WINDOW, 4)
# Request order inside one batch: the real kind first, derivatives last, so
# that every kind is a contiguous block of rows.
_KIND_ORDER = {
    LimitKind.KERNEL_DIAGONAL: 0,
    LimitKind.VALUE: 1,
    LimitKind.RESIDUAL: 2,
    LimitKind.DERIVATIVE: 3,
}


def nt_limit(
    f: RationalFunction,
    x0,
    kind: LimitKind = LimitKind.VALUE,
    t0: float = 0.5,
    max_steps: int = 40,
    tol: float = 1e-9,
) -> LimitEstimate:
    """Boundary limit of a rational function along the vertical path.

    ``kind`` selects the evaluated quantity: the value f(z), the derivative
    f'(z), the residual (z-x0) f(z), or the kernel diagonal Im f(z)/Im z.
    This is ``nt_limits`` with one request; see there for the rules.
    """
    return nt_limits(f, [(x0, kind)], t0, max_steps, tol)[0]


def nt_limits(
    f: RationalFunction,
    requests,
    t0: float = 0.5,
    max_steps: int = 40,
    tol: float = 1e-9,
) -> list:
    """Boundary limits of one rational function, one per ``(x0, kind)`` request.

    Request j samples its quantity at z_k = x0 + i t0 2^-k, k = 0..max_steps:
    the value f(z), the derivative f'(z), the residual (z-x0) f(z), or the
    kernel diagonal Im f(z)/Im z.  The paths of all requests are sampled
    together, in one stacked Horner pass of f's one ``RationalSampler``
    (``split_samples``): n and d once per distinct x0, and n' and d' with
    them only when a derivative is requested.  A point where
    |d| < POLE_TOL * max(1, |n|), or whose sample is not finite or has a
    modulus beyond the float range, is skipped.  The derivative is the
    quotient rule (n'd - nd')/d^2 at each point.  The samples are formed in
    split real float64 arithmetic that performs CPython's complex
    operations, so each equals the one-point Python evaluation bit for bit.

    The kept samples feed a ratio-2 Richardson table of order 2; the limit is
    declared finite once two consecutive extrapolant differences are within
    ``tol``.  Monotone growth by 10x over five consecutive steps is tagged
    infinite, and a non-growing tail with relative spread above 1e-3 does
    not exist (``_richardson`` states the rules exactly).  The stop rules
    run on the first FIRST_STEPS path points of every request, then once
    more on all of them for the requests still undecided, whose remaining
    points are sampled then.  Returns the ``LimitEstimate`` of each request,
    in request order.
    """
    import numpy as np

    requests = [(float(x0), LimitKind(kind)) for x0, kind in requests]
    if not requests:
        return []
    order = sorted(range(len(requests)), key=lambda j: _KIND_ORDER[requests[j][1]])
    kinds = [requests[j][1] for j in order]
    x = [requests[j][0] for j in order]
    heights = _heights(t0, max_steps)
    first = min(FIRST_STEPS, len(heights))
    found = [None] * len(order)
    with np.errstate(all="ignore"):
        samples = _sample_paths(f.sampler, x, kinds, heights[:first])
        _decide(kinds, samples, tol, first == len(heights), range(len(order)), found)
        rest = [i for i in range(len(order)) if found[i] is None]
        if rest:
            values, keep = _sample_paths(f.sampler, [x[i] for i in rest],
                                         [kinds[i] for i in rest], heights[first:])
            samples = (np.concatenate([samples[0][:, rest], values], axis=2),
                       np.concatenate([samples[1][rest], keep], axis=1))
            _decide([kinds[i] for i in rest], samples, tol, True, rest, found)
    out = [None] * len(order)
    for i, j in enumerate(order):
        out[j] = found[i]
    return out


@functools.lru_cache
def _heights(t0: float, max_steps: int) -> np.ndarray:
    """t0 2^-k for k = 0..max_steps (exact: ldexp only moves the exponent)."""
    import numpy as np

    heights = np.ldexp(t0, -np.arange(max_steps + 1))
    heights.flags.writeable = False
    return heights


def _sample_paths(sampler, x, kinds, heights) -> tuple:
    """(values, keep): each row's quantity at x + i h for the given heights,
    real and imaginary parts stacked on axis 0 (shape (2, rows, heights)),
    rows in the kind order of ``_KIND_ORDER``; keep is False at poles.  The
    real kernel diagonal sits in the real part of its rows.  f is sampled
    once per distinct x, with f' when a row asks for the derivative."""
    import numpy as np

    nodes = {}
    row_node = [nodes.setdefault(v, len(nodes)) for v in x]
    z = np.empty((2, len(nodes), len(heights)))
    z[0], z[1] = np.array(list(nodes))[:, np.newaxis], heights
    values, pole = sampler.split_samples(z.reshape(2, -1), LimitKind.DERIVATIVE in kinds)
    values, pole = values.reshape(values.shape[:2] + z.shape[1:]), pole.reshape(z.shape[1:])
    if len(nodes) < len(kinds) or LimitKind.DERIVATIVE in kinds:
        which = [int(kind is LimitKind.DERIVATIVE) for kind in kinds]
        values, pole = values[:, which, row_node], pole[row_node]
    else:
        values = values[:, 0]  # one row per node, in node order
    for kind in (LimitKind.RESIDUAL, LimitKind.KERNEL_DIAGONAL):
        if kind in kinds:
            rows = slice(kinds.index(kind), len(kinds) - kinds[::-1].index(kind))
            if kind is LimitKind.RESIDUAL:
                # (z - x0) f(z), where CPython forms z - x0 as 0 + i t
                step = np.zeros_like(values[:, rows])
                step[1] = heights
                values[:, rows] = split_product(step, values[:, rows])
            else:
                values[0, rows] = values[1, rows] / heights
    return values, ~pole


def _decide(kinds, samples, tol, final, rows, found) -> None:
    """Run the stop rules on kind-sorted sample rows, the real kernel rows
    apart from the complex ones, and store each decided estimate at
    found[rows[i]]."""
    values, keep = samples
    real = kinds.count(LimitKind.KERNEL_DIAGONAL)
    for part, block in ((slice(0, real), values[0, :real]), (slice(real, None), values[:, real:])):
        if block.size:
            estimates = _richardson(kinds[part], block, keep[part], tol, final)
            for i, est in zip(rows[part], estimates):
                found[i] = est


def _richardson(kinds, samples, keep, tol, final=True) -> list:
    """The stop rules of ``nt_limits`` on the samples of a block of requests.

    ``samples`` holds one row of path samples per request: shape (rows,
    steps) for real samples, or real and imaginary parts stacked as (2,
    rows, steps) for complex ones.  ``keep`` marks the points that are not
    poles; a sample that is not finite, or whose modulus overflows, is
    skipped as well.  The kept samples of a row are its raw sequence.
    r1 = 2 raw[p] - raw[p-1] and r2 = (4 r1[p] - r1[p-1]) / 3 are its
    Richardson columns, formed with CPython's complex operations.  After
    raw sample p the row is infinite when |raw| grew on each of the last
    DIVERGENCE_WINDOW steps and |raw[p]| is at least 1e3 and
    DIVERGENCE_FACTOR times |raw[p - DIVERGENCE_WINDOW]|; it is finite when
    |r2[p] - r2[p-1]| <= tol * max(1, |r2[p]|) holds at p and at p - 1.
    The first p where either holds decides, divergence first.  A row that
    never stops is undecided (None) unless ``final``; then the tail rule
    decides it: with fewer than three samples it does not exist, and
    otherwise it is finite (unconverged) when the last five r2 values
    spread by at most SPREAD_TOL times their largest modulus (at least 1).

    The rows are laid end to end, each behind _LOOKBACK NaN columns, so
    every rule is one array operation on shifted views and a look back past
    the start of a row meets NaN, which no rule accepts.
    """
    import numpy as np

    real = samples.ndim == 2
    m, length = keep.shape
    mod = np.abs(samples) if real else np.hypot(samples[0], samples[1])
    valid = keep & np.isfinite(mod)
    counts = [length] * m
    if np.count_nonzero(valid) < valid.size:
        # move the kept samples of each row to its front, NaN behind them
        order = np.argsort(~valid, axis=1, kind="stable")
        counts = valid.sum(axis=1)
        behind = np.arange(length) >= counts[:, np.newaxis]
        counts = counts.tolist()
        samples = np.take_along_axis(samples, order if real else order[np.newaxis], axis=-1)
        mod = np.take_along_axis(mod, order, axis=1)
        samples[..., behind] = np.nan
        mod[behind] = np.nan
    width = _LOOKBACK + length
    pad = np.full(samples.shape[:-1] + (_LOOKBACK,), np.nan)
    raw = np.concatenate([pad, samples], axis=-1).reshape(samples.shape[:-2] + (-1,))
    mod = np.concatenate([pad[-1] if not real else pad, mod], axis=1).ravel()
    window = DIVERGENCE_WINDOW
    # arrays below are aligned to the flat sample position q + offset:
    # diverge at offset window, r1 1, r2 2, err 3, stops 0
    large = mod[window:] >= 1e3
    diverge = None
    if np.count_nonzero(large):
        grew = mod[1:] > mod[:-1]
        diverge = large & (mod[window:] >= DIVERGENCE_FACTOR * mod[:-window])
        for back in range(window):
            diverge &= grew[window - 1 - back : len(grew) - back]
    if real:
        r1 = 2.0 * raw[1:] - raw[:-1]
        r2 = (4.0 * r1[1:] - r1[:-1]) / 3.0
        r2_mod = np.abs(r2)
        err = np.abs(r2[1:] - r2[:-1])
    else:
        # The complex factor 2 + 0i or 4 + 0i times raw: raw * 2 + swap(raw) *
        # (-0, 0) is CPython's product (see ``split_product``); the quotient by
        # 3 + 0i has ratio 0 and divisor 3, so it is (raw + swap(raw) * (0, -0)) / 3.
        zero_product = np.array([[-0.0], [0.0]])
        r1 = raw[:, 1:] * 2.0 + raw[::-1, 1:] * zero_product - raw[:, :-1]
        r2 = r1[:, 1:] * 4.0 + r1[::-1, 1:] * zero_product - r1[:, :-1]
        r2 = (r2 + r2[::-1] * np.array([[0.0], [-0.0]])) / 3.0
        r2_mod = np.hypot(r2[0], r2[1])
        step = r2[:, 1:] - r2[:, :-1]
        err = np.hypot(step[0], step[1])
    # fmax(|r2|, 1) is Python's max(1.0, |r2|), NaN included
    agree = err <= tol * np.fmax(r2_mod[1:], 1.0)
    stops = np.zeros(len(mod), dtype=bool)
    stops[4:] = agree[1:] & agree[:-1]
    if diverge is not None:
        stops[window:] |= diverge
    firsts = stops.reshape(m, width).argmax(axis=1).tolist()
    out = []
    for i, first in enumerate(firsts):
        base = i * width + _LOOKBACK
        p = first - _LOOKBACK
        if stops[base + p]:
            if diverge is not None and p >= window and diverge[base + p - window]:
                approx = _values(raw, base, base + p + 1)
                out.append(LimitEstimate(kinds[i], "infinite", None, approx, False, None))
            else:
                approx = _values(r2, base, base + p - 1)
                out.append(LimitEstimate(kinds[i], "finite", approx[-1], approx, True,
                                         float(err[base + p - 3])))
            continue
        if not final:
            out.append(None)
            continue
        c = counts[i]
        if c < 3:
            out.append(LimitEstimate(kinds[i], "dne", None, _values(raw, base, base + c),
                                     False, None))
            continue
        approx = _values(r2, base, base + c - 2)
        tail = approx[-5:]
        scale = max(1.0, max(r2_mod[base + c - 2 - len(tail) : base + c - 2].tolist()))
        spread = (max(v.real for v in tail) - min(v.real for v in tail)) + (
            max(v.imag for v in tail) - min(v.imag for v in tail)
        )
        if spread <= SPREAD_TOL * scale:
            e = float(err[base + c - 4]) if c >= 4 else None
            out.append(LimitEstimate(kinds[i], "finite", approx[-1], approx, False, e))
        else:
            out.append(LimitEstimate(kinds[i], "dne", None, approx, False, None))
    return out


def _values(flat, start, stop) -> tuple:
    """Python floats, or complex numbers from stacked parts, of flat[start:stop]."""
    if flat.ndim == 1:
        return tuple(flat[start:stop].tolist())
    return tuple(map(complex, flat[0, start:stop].tolist(), flat[1, start:stop].tolist()))


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
      order two or more can need (no verdict reads it behind an infinite
      value).

    A finite jet is converged, with no approximants and no discrepancy.
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
    (name, status): LimitEstimate(kind, status, None, (), False, None)
    for name, kind in _KINDS.items()
    for status in ("infinite", "dne")
}


def _jet_estimate(name: str, found) -> LimitEstimate:
    """The ``LimitEstimate`` of kind ``name`` from a ``_jet_values`` entry."""
    if isinstance(found, str):
        return _NOT_FINITE[name, found]
    value = found if isinstance(found, (float, complex)) else float(found)
    return LimitEstimate(_KINDS[name], "finite", value, (), True, None)


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
        sizes = [abs(float(c)) for c in f.den.coeffs]
        out = []
        for x in points:
            num, den = (_exact_taylor(*g, x) for g in cleared)
            scale, size = 0.0, abs(float(x))
            for c in reversed(sizes):
                scale = scale * size + c
            relative = abs(float(den[0])) / scale if den[0] else 0.0
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


def lft_jets(theta, p: Polynomial, q: Polynomial, points) -> list:
    """The ``Jet`` of w = (Theta11 phi + Theta12) / (Theta21 phi + Theta22),
    phi = p/q, at each point, read from Theta's residue form: w's node pass.

    u(t) = (z - x) Theta(z) v(z) with v = (p; q) and z = x + t has w as the
    ratio of its two components, and ``RationalMatrix2x2.residue_jets``
    gives its Taylor coefficients at every point at once from the float
    residue data, with v's own Taylor coefficients; no polynomial of w is
    built or sampled.  At a node x_i, u_0 = l_i (r_i . v(x_i)), which
    ``node_zero_test`` decides; where it reads zero, u_0 is set to 0.
    Every higher coefficient is tested against JET_ZERO_TOL on both lanes.
    The jets are float64 on both lanes; where a coefficient or its scale
    overflows the float range, ``FloatRangeError`` is raised.  Taken at
    Theta's nodes, the pass also says where ``apply_lft`` cancels: its zero
    flags, and u_1 at the flagged nodes.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        v = _float_taylor((p, q), theta._node_table(points).x)[0]
        u, scale = theta.residue_jets(v, points)
    # every term of u enters its scale by modulus, so a finite scale bounds u
    if not np.isfinite(scale).all():
        raise FloatRangeError(
            "the jets of w at the nodes exceed the float range; "
            "its boundary limits cannot be read in floats"
        )
    zero, relative, exact = node_zero_test(theta, p, q, points, v[0])
    u[0][:, np.array(zero, dtype=bool)] = 0
    _snap(u[1:], scale[1:])
    return [Jet(a, b_, _zero_test(r, z, exact)) for (a, b_), r, z in
            zip(u.transpose(2, 1, 0).tolist(), relative, zero)]


def node_zero_test(theta, p: Polynomial, q: Polynomial, points, values=None) -> tuple:
    """(zero, relative, exact): the zero test r_i . v(x_i) = 0 at each point's
    own node x_i, v = (p; q), with |r_i . v(x_i)| over its scale, and whether
    it was decided exactly (the fields of ``_zero_test``).

    This is the one test of where w = Theta o (p/q) has numerator and
    denominator sharing the factor z - x_i: u_0 = l_i (r_i . v(x_i)) of
    ``lft_jets``, with l_i != 0, and r_i . v(x_i) = 0 exactly where
    phi(x_i) = eta_i.  Only ``lft_jets`` runs it; ``apply_lft`` cancels
    where the flags of that pass read zero, so a certify op decides each
    node once (standalone exact ``apply_lft`` takes ``_exact_node_zeros``
    alone).  On the exact lane (Theta, p, q and the points exact) it is
    decided exactly, one integer dot product per node
    (``_exact_node_zeros``); on the float lane it reads JET_ZERO_TOL against
    the scale |r_i| |v(x_i)| (1-norms).  A point that is no node of Theta
    has no term there and reads zero.  ``values`` is v at the points, shape
    (2, points), when the caller has it.  Which points are nodes, their own
    rows r_i and the rows' 1-norms are read from Theta's node table for the
    point set (``RationalMatrix2x2._node_table``), built once per Theta and
    point set, so a call forms only the products with v: O(1) per point.
    """
    import numpy as np

    table = theta._node_table(points)
    if values is None:
        values = _float_taylor((p, q), table.x, 1)[0][0]
    has = table.has
    mine = values[:, has]
    rho, rho_scale = np.zeros(len(has)), np.zeros(len(has))
    rho[has] = np.abs(mine[0] * table.rows[:, 0] + mine[1] * table.rows[:, 1])
    rho_scale[has] = (np.abs(mine[0]) + np.abs(mine[1])) * table.row_sizes
    relative = rho / np.where(rho_scale > 0, rho_scale, 1.0)
    exact = theta.exact and p.exact and q.exact and all(map(is_exact, points))
    if exact:
        zero = _exact_node_zeros(theta, p, q, points)
        relative = np.where(zero, 0.0, relative)
    else:
        zero = (relative <= JET_ZERO_TOL).tolist()
    return zero, relative.tolist(), exact


def _exact_node_zeros(theta, p: Polynomial, q: Polynomial, points) -> list:
    """Whether r_i . v(x_i) = 0 at each exact point, decided in integers.

    p and q are scaled by one factor to integer coefficients and padded to
    one length D + 1, so that with x = a/b the integers P = b^D p(x) and
    Q = b^D q(x) are positive multiples of p(x) and q(x); with the row
    r_i = (r0, r1), r_i . v(x_i) = 0 exactly when r0 P = -r1 Q.  Both sides
    are compared in lowest terms (``_times``), which takes no product of
    two of the residue data's large integers.  A point that is no node of
    Theta has no term there, and u_0 = 0.
    """
    ints, _ = _cleared_integers([*p.coeffs, *q.coeffs])
    width = max(len(p.coeffs), len(q.coeffs))
    pc = ints[: len(p.coeffs)] + [0] * (width - len(p.coeffs))
    qc = ints[len(p.coeffs) :] + [0] * (width - len(q.coeffs))
    own = dict(zip(theta.nodes, theta.right))
    zeros = []
    for x in points:
        row = own.get(x)
        if row is None:
            zeros.append(True)
            continue
        r0, r1 = row
        big_p = _scaled_value(pc, x.numerator, x.denominator)
        big_q = _scaled_value(qc, x.numerator, x.denominator)
        zeros.append(_times(r0, big_p) == _times(r1, -big_q))
    return zeros


def _times(r, m) -> tuple:
    """(numerator, denominator) of r m in lowest terms, for a rational r in
    lowest terms and an integer m: the one common factor is gcd(m, den r)."""
    g = math.gcd(m, r.denominator)
    return r.numerator * (m // g), r.denominator // g


@dataclass(frozen=True)
class CJReport:
    """Three boundary-derivative limits that must agree with each other.

    On the bounded route the triple is (kernel diagonal -- whose lim inf is
    certified as implied by the limit -- the derivative limit, and the
    difference quotient).  On the unbounded route all three are expressed on
    the residual scale: the kernel-diagonal limit of -1/f enters through
    s -> -1/s so that it matches the residual and -(z-x0)^2 f' limits.
    """

    theorem: str  # "bounded" | "unbounded"
    estimates: dict
    max_discrepancy: float | None
    consistent: bool

    def to_json(self) -> dict:
        return {
            "route": self.theorem,
            "estimates": {k: v.to_json() for k, v in self.estimates.items()},
            "max_discrepancy": self.max_discrepancy,
            "consistent": self.consistent,
        }


def caratheodory_julia_check(f: RationalFunction, x0) -> CJReport:
    """Cross-check the boundary value/derivative limits of f at a real point."""
    x0f = float(x0)
    try:
        f.eval(complex(x0f, 0.0))
        bounded = True
    except PoleError:
        bounded = False
    if bounded:
        value, kernel, deriv = nt_limits(
            f,
            [(x0f, LimitKind.VALUE), (x0f, LimitKind.KERNEL_DIAGONAL), (x0f, LimitKind.DERIVATIVE)],
        )
        if value.is_finite:
            shifted = (f - RationalFunction.constant(value.value.real)) / RationalFunction(
                Polynomial((-x0f, 1.0))
            )
            quotient = nt_limit(shifted, x0f, LimitKind.VALUE)
        else:
            quotient = LimitEstimate(LimitKind.VALUE, value.status, None, (), False, None)
        estimates = {
            "kernel_diagonal": kernel,
            "derivative": deriv,
            "difference_quotient": quotient,
        }
        return _finish_cj("bounded", estimates)
    inverted = RationalFunction.constant(-1) / f
    kernel = nt_limit(inverted, x0f, LimitKind.KERNEL_DIAGONAL)
    residual = nt_limit(f, x0f, LimitKind.RESIDUAL)
    z_shift = RationalFunction(Polynomial((-x0f, 1.0)))
    weighted = RationalFunction.constant(-1) * z_shift * z_shift * f.derivative()
    tilde_residual = nt_limit(weighted, x0f, LimitKind.VALUE)
    if kernel.is_finite and abs(kernel.value) > 1e-13:
        flipped = LimitEstimate(
            kernel.kind,
            "finite",
            -1.0 / kernel.value,
            tuple(-1.0 / a for a in kernel.approximants if abs(a) > 1e-13),
            kernel.converged,
            kernel.error_estimate,
        )
    else:
        flipped = LimitEstimate(kernel.kind, "dne", None, kernel.approximants, False, None)
    estimates = {
        "kernel_diagonal": flipped,
        "residual": residual,
        "weighted_derivative": tilde_residual,
    }
    return _finish_cj("unbounded", estimates)


def _finish_cj(route, estimates) -> CJReport:
    finite = [e for e in estimates.values() if e.is_finite]
    if len(finite) < len(estimates):
        return CJReport(route, estimates, None, False)
    values = [complex(e.value) for e in finite]
    worst = max(abs(a - b) for a in values for b in values)
    return CJReport(route, estimates, float(worst), True)


def kernel_negative_squares(
    f: RationalFunction | tuple,
    config: GridConfig = DEFAULT_GRID,
    span=None,
) -> int:
    """Sampled negative-squares lower bound of the Nevanlinna kernel of f.

    ``f`` is a rational function, or the pair (Theta, phi) of
    w = ``apply_lft(Theta, phi)``, which is sampled through Theta's residue
    form and never through w's coefficients (``pole_free_grid``).  The
    kernel is sampled on the pole-free grid of ``config`` over ``span`` (by
    default the span of f's real poles, or of Theta's nodes for the pair).
    The count is the number of eigenvalues of the whole sampled kernel below
    -config.eig_tol * max(1, max|lambda|).  By Cauchy interlacing no subset
    of the sample points shows more negative eigenvalues, and the kernel's
    negative squares are at least this many.
    """
    if span is None:
        poles = f.real_poles() if isinstance(f, RationalFunction) else f[0].nodes
        span = span_of(poles, fallback=(-1.0, 1.0))
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

    points, values = pole_free_grid(w, span_of(sys.X), config)
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

"""Numerical boundary limits and kernel-positivity certificates.

Nontangential limits are taken along the vertical path z_k = x0 + i t0 2^-k
and accelerated with a second-order Richardson table; for rational functions
the vertical path already realizes every nontangential limit.  All the
limits one function needs are taken in one batched pass (``nt_limits``):
one stacked Horner evaluation of the function's ``RationalSampler`` at every
path point, and the stop rules of every path as array operations.  The
arithmetic is split real float64 that performs CPython's complex product,
quotient and modulus term for term, so each limit equals the one taken one
Python complex sample at a time, bit for bit.  On top of the limit
machinery sit the Caratheodory-Julia consistency check (four limit
quantities that must agree when the boundary derivative exists), sampled
negative-squares counts of Nevanlinna kernels and the bordered-kernel
solution criterion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._sections import (
    DEFAULT_GRID,
    GridConfig,
    negative_count,
    nevanlinna_kernel,
    pole_free_grid,
    span_of,
)
from .algebra import Polynomial, RationalFunction, split_product
from .errors import PoleError
from .problem import PickSystem


class LimitKind(Enum):
    VALUE = "value"
    DERIVATIVE = "derivative"
    RESIDUAL = "residual"
    KERNEL_DIAGONAL = "kernel_diagonal"


@dataclass(frozen=True)
class LimitEstimate:
    """Tagged boundary-limit estimate with its extrapolation history."""

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
    heights = np.ldexp(t0, -np.arange(max_steps + 1))
    heights.flags.writeable = False
    return heights


def _sample_paths(sampler, x, kinds, heights) -> tuple:
    """(values, keep): each row's quantity at x + i h for the given heights,
    real and imaginary parts stacked on axis 0 (shape (2, rows, heights)),
    rows in the kind order of ``_KIND_ORDER``; keep is False at poles.  The
    real kernel diagonal sits in the real part of its rows.  f is sampled
    once per distinct x, with f' when a row asks for the derivative."""
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


# The complex factor 2 + 0i or 4 + 0i times raw: raw * 2 + swap(raw) * (-0, 0)
# is CPython's product (see ``split_product``); the quotient by 3 + 0i has
# ratio 0 and divisor 3, so it is (raw + swap(raw) * (0, -0)) / 3.
_ZERO_PRODUCT = np.array([[-0.0], [0.0]])
_ZERO_QUOTIENT = np.array([[0.0], [-0.0]])


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
        r1 = raw[:, 1:] * 2.0 + raw[::-1, 1:] * _ZERO_PRODUCT - raw[:, :-1]
        r2 = r1[:, 1:] * 4.0 + r1[::-1, 1:] * _ZERO_PRODUCT - r1[:, :-1]
        r2 = (r2 + r2[::-1] * _ZERO_QUOTIENT) / 3.0
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
    f: RationalFunction,
    config: GridConfig = DEFAULT_GRID,
    span=None,
) -> int:
    """Sampled negative-squares lower bound of the Nevanlinna kernel of f.

    The kernel is sampled on the pole-free grid of ``config`` over ``span``
    (by default the span of f's real poles).  The count is the number of
    eigenvalues of the whole sampled kernel below -config.eig_tol *
    max(1, max|lambda|).  By Cauchy interlacing no subset of the sample
    points shows more negative eigenvalues, and the kernel's negative
    squares are at least this many.
    """
    if span is None:
        span = span_of(f.real_poles(), fallback=(-1.0, 1.0))
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

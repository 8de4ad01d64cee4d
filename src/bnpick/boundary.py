"""Numerical boundary limits and kernel-positivity certificates.

Nontangential limits are taken along the vertical path z_k = x0 + i t0 2^-k
and accelerated with a second-order Richardson table; for rational functions
the vertical path already realizes every nontangential limit.  On top of the
limit machinery sit the Caratheodory-Julia consistency check (four limit
quantities that must agree when the boundary derivative exists), sampled
negative-squares counts of Nevanlinna kernels and the bordered-kernel
solution criterion.
"""

from __future__ import annotations

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
from .algebra import Polynomial, RationalFunction
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
    Every sample comes from f's one ``RationalSampler``, compiled once per
    function from its numerator n and denominator d, so the path skips
    points where |d| < POLE_TOL * max(1, |n|) as ``RationalFunction.eval``
    does.  The derivative is the quotient rule (n'd - nd')/d^2 evaluated at
    each point from the compiled n' and d'; f' is never formed as a rational
    function.
    The raw samples feed a ratio-2 Richardson table of order 2; the limit is
    declared finite only when consecutive extrapolants agree within ``tol``.
    Monotone growth by 10x over five consecutive steps is tagged infinite,
    and a non-growing tail with relative spread above 1e-3 does not exist.
    """
    x0 = float(x0)
    sampler = f.sampler

    def sample(z: complex) -> complex:
        if kind is LimitKind.DERIVATIVE:
            return sampler.derivative(z)
        if kind is LimitKind.RESIDUAL:
            return (z - x0) * sampler(z)
        if kind is LimitKind.KERNEL_DIAGONAL:
            return sampler(z).imag / z.imag
        return sampler(z)

    raw: list = []
    r1: list = []
    r2: list = []
    agree = 0
    growing = 0
    for k in range(max_steps + 1):
        z = complex(x0, t0 * 2.0 ** (-k))
        try:
            value = sample(z)
        except PoleError:
            continue
        if not np.isfinite(value):
            continue
        raw.append(value)
        if len(raw) >= 2:
            r1.append(2.0 * raw[-1] - raw[-2])
            growing = growing + 1 if abs(raw[-1]) > abs(raw[-2]) else 0
        if len(r1) >= 2:
            r2.append((4.0 * r1[-1] - r1[-2]) / 3.0)
        if _diverging(raw, growing):
            return LimitEstimate(kind, "infinite", None, tuple(raw), False, None)
        if len(r2) >= 2:
            err = abs(r2[-1] - r2[-2])
            if err <= tol * max(1.0, abs(r2[-1])):
                agree += 1
                if agree >= 2:
                    return LimitEstimate(kind, "finite", r2[-1], tuple(r2), True, err)
            else:
                agree = 0
    if not r2:
        return LimitEstimate(kind, "dne", None, tuple(raw), False, None)
    tail = r2[-5:]
    scale = max(1.0, max(abs(v) for v in tail))
    spread = (max(v.real for v in tail) - min(v.real for v in tail)) + (
        max(v.imag for v in tail) - min(v.imag for v in tail)
    )
    if spread <= SPREAD_TOL * scale:
        err = abs(r2[-1] - r2[-2]) if len(r2) >= 2 else None
        return LimitEstimate(kind, "finite", r2[-1], tuple(r2), False, err)
    return LimitEstimate(kind, "dne", None, tuple(r2), False, None)


def _diverging(raw, growing) -> bool:
    """Whether |raw| grew on each of the last DIVERGENCE_WINDOW steps
    (``growing`` counts the consecutive growing steps up to the last sample)
    and the last sample is at least 1e3 and DIVERGENCE_FACTOR times the
    sample before those steps."""
    if growing < DIVERGENCE_WINDOW:
        return False
    last = abs(raw[-1])
    return last >= 1e3 and last >= DIVERGENCE_FACTOR * abs(raw[-DIVERGENCE_WINDOW - 1])


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
        value = nt_limit(f, x0f, LimitKind.VALUE)
        kernel = nt_limit(f, x0f, LimitKind.KERNEL_DIAGONAL)
        deriv = nt_limit(f, x0f, LimitKind.DERIVATIVE)
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

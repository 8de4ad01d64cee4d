"""Deterministic upper-half-plane sampling grids and sampled negative counts.

The number of negative squares of a kernel is the supremum, over finite
point sets, of the number of negative eigenvalues of the kernel sampled
there.  By Cauchy interlacing no principal section of a sampled Hermitian
matrix has more negative eigenvalues than the matrix itself, so one
eigenvalue count of the full sampled matrix is the largest count the sample
points can show.  The helpers here fix one reproducible scheme: a default
grid of points on two horizontal lines, from which a point at a pole is
dropped and none is moved, the Nevanlinna kernel sampled on it, and the
count of eigenvalues below ``-eig_tol * max(1, max|lambda|)``.
Eigenvalues within that band count as zero, never negative, so sampled counts
are honest lower bounds of the kernel's negative squares.  ``VERIFY_TOL`` is
the default tolerance within which a boundary limit meets its datum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


# Default eig_tol: a sampled kernel's zero eigenvalue comes out near
# m u max|lambda| < 1e-13; one it hides leaves the count a lower bound.
EIG_TOL = 1e-9


@dataclass(frozen=True)
class GridConfig:
    """Sampling grid and eigenvalue tolerance of the sampled counts.

    Every field is checked when the config is made, and a bad one raises
    ``ValueError`` naming it.  The levels are a tuple (a list, as a JSON
    config gives them, is stored as one) and must be positive, so every grid
    point lies in the upper half-plane, where the counts certify, and off
    every real pole; ``eig_tol`` must be at least 0, as a negative one
    counts eigenvalues that are zero within rounding as negative.
    """

    im_levels: tuple = (0.3, 1.1)
    points_per_level: int = 6
    re_margin: float = 1.0
    eig_tol: float = EIG_TOL

    def __post_init__(self):
        if isinstance(self.im_levels, list):  # as a JSON config gives it
            object.__setattr__(self, "im_levels", tuple(self.im_levels))
        if (not isinstance(self.im_levels, tuple) or not self.im_levels
                or not all(_finite(t) and t > 0 for t in self.im_levels)):
            raise ValueError("GridConfig.im_levels must be nonempty finite numbers > 0")
        if (isinstance(self.points_per_level, bool) or not isinstance(self.points_per_level, Integral)
                or self.points_per_level < 1):
            raise ValueError("GridConfig.points_per_level must be an int >= 1")
        if not _finite(self.re_margin):
            raise ValueError("GridConfig.re_margin must be a finite number")
        if not (_finite(self.eig_tol) and self.eig_tol >= 0):
            raise ValueError("GridConfig.eig_tol must be a finite number >= 0")


def _finite(value) -> bool:
    """A finite real number that is no boolean; an int beyond the float range
    is none, as every field is read in floats."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


DEFAULT_GRID = GridConfig()

VERIFY_TOL = 1e-6


def upper_half_grid(span, config: GridConfig = DEFAULT_GRID) -> list:
    """Points on horizontal lines over [span[0]-margin, span[1]+margin], line
    by line, as Python complex numbers."""
    import numpy as np

    lo = float(span[0]) - config.re_margin
    hi = float(span[1]) + config.re_margin
    if hi <= lo:
        hi = lo + 2.0 * config.re_margin
    grid = np.empty((len(config.im_levels), config.points_per_level), dtype=complex)
    grid.real = np.linspace(lo, hi, config.points_per_level)
    grid.imag = np.array(config.im_levels, dtype=float)[:, np.newaxis]
    return grid.ravel().tolist()


def pole_free_grid(f, span, config: GridConfig) -> tuple:
    """(points, values): the points of ``upper_half_grid(span, config)``
    where the quotient's denominator is at least POLE_TOL * max(1,
    |numerator|), and the function there.  No point is moved and no root is
    sought: a point skipped at an upper pole only shrinks the sample, and
    the count over any point set is a lower bound.

    A function with no origin is sampled one grid point at a time by
    ``algebra._quotient``, the evaluator of ``RationalFunction.eval``, from
    its coefficients compiled once; points and values are lists of Python
    complex numbers.

    A w with an origin (Theta, phi), a realization, is sampled through
    Theta's residue form, never through w's coefficients: u = Theta(z)
    (p(z); q(z)) with phi = p/q, where the grid and Theta's values on it are
    Theta's grid table for (span, config), kept by Theta from one
    ``RationalMatrix2x2.eval`` and shared by every phi and by
    ``kernel_theta_negative_squares``, and w = u_0 / u_1 off the poles
    that ``origin_values`` finds.  Its points and
    values are complex arrays.  Theta's poles are the real nodes, off every
    grid line (the levels of a ``GridConfig`` are positive).  A u beyond the
    float range raises ``FloatRangeError``.
    """
    import numpy as np

    from .algebra import _compiled, _quotient
    from .errors import FloatRangeError, PoleError

    if f._origin is not None:
        z, at_grid = f._origin[0]._grid_table(span, config)
        u, kept = origin_values(f._origin, z, at_grid)
        if not np.isfinite(u).all():
            raise FloatRangeError(
                "the values of w on the sampling grid exceed the float range; "
                "its kernel cannot be sampled in floats"
            )
        return z[kept], u[0, kept] / u[1, kept]
    num, den = _compiled(f.num), _compiled(f.den)
    points, values = [], []
    for z in upper_half_grid(span, config):
        try:
            values.append(_quotient(num, den, z))
        except PoleError:
            continue
        points.append(z)
    return points, values


def origin_values(origin, z, at_z) -> tuple:
    """(u, kept) for a w with origin (Theta, phi) at the points of the
    complex array z, where Theta takes the values ``at_z``: u = Theta(z)
    (p(z); q(z)) with phi = p/q, shape (2, len(z)), so that w = u_0 / u_1,
    and the mask of the points that are no pole of w, |u_1| >= POLE_TOL
    max(1, |u_0|).  The one pole rule of w's grid (``pole_free_grid``) and
    of its value (``RationalFunction.eval``)."""
    import numpy as np

    from .algebra import POLE_TOL, _compiled

    _, phi = origin
    with np.errstate(all="ignore"):
        pair = [np.polyval(_compiled(g), z) for g in phi.pair()]
        u = np.einsum("kij,jk->ik", at_z, pair)
    return u, np.abs(u[1]) >= POLE_TOL * np.fmax(np.abs(u[0]), 1.0)


def span_of(values):
    """(min, max) of the values as floats, (-1, 1) when there are none."""
    vals = [float(v) for v in values]
    if not vals:
        return (-1.0, 1.0)
    return (min(vals), max(vals))


def nevanlinna_kernel(points, values) -> np.ndarray:
    """Hermitian part of (f(z_j) - conj f(z_i)) / (z_j - conj z_i) on the points."""
    import numpy as np

    z = np.asarray(points, dtype=complex)
    v = np.asarray(values, dtype=complex)
    out = (v[np.newaxis, :] - v.conj()[:, np.newaxis]) / (
        z[np.newaxis, :] - z.conj()[:, np.newaxis]
    )
    return (out + out.conj().T) / 2.0


def negative_count(matrix: np.ndarray, eig_tol: float) -> int:
    """Eigenvalues of a Hermitian matrix below -eig_tol * max(1, max|lambda|),
    counted by the rule of P's float inertia (``algebra._spectral_inertia``)."""
    import numpy as np

    from .algebra import _spectral_inertia

    return _spectral_inertia(np.linalg.eigvalsh(matrix), eig_tol).negatives

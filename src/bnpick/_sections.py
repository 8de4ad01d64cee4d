"""Deterministic upper-half-plane sampling grids and sampled negative counts.

The number of negative squares of a kernel is the supremum, over finite
point sets, of the number of negative eigenvalues of the kernel sampled
there.  By Cauchy interlacing no principal section of a sampled Hermitian
matrix has more negative eigenvalues than the matrix itself, so one
eigenvalue count of the full sampled matrix is the largest count the sample
points can show.  The helpers here fix one reproducible scheme: a default
grid of points on two horizontal lines, the Nevanlinna kernel sampled on it,
and the count of eigenvalues below ``-eig_tol * max(1, max|lambda|)``.
Eigenvalues within that band count as zero, never negative, so sampled counts
are honest lower bounds of the kernel's negative squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class GridConfig:
    """Sampling grid and eigenvalue tolerance of the sampled counts."""

    im_levels: tuple = (0.3, 1.1)
    points_per_level: int = 6
    re_margin: float = 1.0
    eig_tol: float = 1e-9


DEFAULT_GRID = GridConfig()


def upper_half_grid(span, config: GridConfig = DEFAULT_GRID, avoid=()) -> list:
    """Points on horizontal lines over [span[0]-margin, span[1]+margin].

    ``avoid`` lists complex points (poles) that grid points are nudged away
    from deterministically.
    """
    lo = float(span[0]) - config.re_margin
    hi = float(span[1]) + config.re_margin
    if hi <= lo:
        hi = lo + 2.0 * config.re_margin
    xs = np.linspace(lo, hi, config.points_per_level)
    points = []
    for t in config.im_levels:
        for x in xs:
            z = complex(x, t)
            while avoid and min(abs(z - p) for p in avoid) < 1e-6:
                z += 0.017
            points.append(z)
    return points


def pole_free_grid(f, span, config: GridConfig) -> tuple:
    """Grid points nudged off the upper poles of f, and f sampled there.

    Returns (points, values).  A point still on a pole is skipped; every
    value comes from one ``split_samples`` pass of f's ``RationalSampler``,
    bit-identical to sampling the points one by one, so callers sample
    nothing twice.
    """
    avoid = tuple(r for r in f.sampler.poles if r.imag > 1e-9)
    grid = upper_half_grid(span, config, avoid=avoid)
    with np.errstate(all="ignore"):
        values, pole = f.sampler.split_samples(
            np.array([[z.real for z in grid], [z.imag for z in grid]])
        )
    re, im = values[:, 0]
    kept = [j for j, skip in enumerate(pole.tolist()) if not skip]
    re, im = re.tolist(), im.tolist()
    return [grid[j] for j in kept], [complex(re[j], im[j]) for j in kept]


def span_of(values, fallback=(-1.0, 1.0)):
    vals = [float(v) for v in values]
    if not vals:
        return fallback
    return (min(vals), max(vals))


def nevanlinna_kernel(points, values) -> np.ndarray:
    """Hermitian part of (f(z_j) - conj f(z_i)) / (z_j - conj z_i) on the points."""
    z = np.asarray(points, dtype=complex)
    v = np.asarray(values, dtype=complex)
    out = (v[np.newaxis, :] - v.conj()[:, np.newaxis]) / (
        z[np.newaxis, :] - z.conj()[:, np.newaxis]
    )
    return (out + out.conj().T) / 2.0


def negative_count(matrix: np.ndarray, eig_tol: float) -> int:
    """Eigenvalues of a Hermitian matrix below -eig_tol * max(1, max|lambda|)."""
    eigs = np.linalg.eigvalsh(matrix)
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    return int(np.sum(eigs < -eig_tol * scale))

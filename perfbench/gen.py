"""Seeded problem generators for the benchmark.

Two recipes, both driven only by a ``random.Random`` the caller seeds:

* ``invertible_problem``: half regular and half singular nodes drawn from the
  1/3-grid on [-13, 13]; values, derivative bounds and nonzero residues are
  p/3 with p in [-30, 30].  A draw whose Pick matrix is singular (exactly, or
  on the float lane at the default ``rank_tol``) is redrawn.
* ``degenerate_problem``: data sampled from w(z) = a z + c + sum r_k/(z - p_k)
  with d poles (singular nodes at the poles, residues r_k) and d + 2 regular
  nodes off the poles.  The Pick matrix of such data has rank at most d + 1
  < n, so it is singular and the unique solution is w itself.

The library only ever sees the generated ``InterpolationData``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import bnpick as b

GRID = tuple(Fraction(k, 3) for k in range(-39, 40))
RANK_TOL = 1e-9


def _third(rng, nonzero=False) -> Fraction:
    while True:
        p = rng.randint(-30, 30)
        if p or not nonzero:
            return Fraction(p, 3)


def to_float(data: b.InterpolationData) -> b.InterpolationData:
    """The same rationals, converted to floats (switches to the float lane)."""
    conv = lambda seq: tuple(float(v) for v in seq)
    return b.InterpolationData(
        nodes=conv(data.nodes),
        values=conv(data.values),
        derivative_bounds=conv(data.derivative_bounds),
        residues=conv(data.residues),
    )


@dataclass(frozen=True)
class Problem:
    """One generated problem with what the oracle needs to judge it.

    ``kappa`` is the exact-lane index, ``split`` a factorization index whose
    leading block of P is nonsingular (n, the trivial split, when none is;
    0 on a degenerate draw), and ``w`` the generating function of a
    degenerate draw.
    """

    name: str
    data: b.InterpolationData
    kappa: int
    degenerate: bool
    split: int = 0
    w: b.RationalFunction | None = None


def _integer_rows(P: b.HermitianMatrix) -> list:
    """LCM(denominators) * P as rows of ints, for a real exact matrix."""
    rows = [[v.re for v in row] for row in P.rows]
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[int(v * scale) for v in row] for row in rows]


def pivoted_minors(P: b.HermitianMatrix) -> tuple:
    """Leading principal minors of P with its rows and columns reordered,
    each up to a positive factor; returns (minors, order).

    Fraction-free (Bareiss) elimination of the integer matrix
    LCM(denominators) * P, taking as the next index the first remaining one
    whose bordered minor is nonzero.  A symmetric reordering keeps the
    inertia.  The list ends early when every remaining minor is zero: P is
    singular, or only a 2x2 pivot would do.
    """
    a = _integer_rows(P)
    n = len(a)
    order = list(range(n))
    minors, prev = [], 1
    for k in range(n):
        m = next((m for m in range(k, n) if a[m][m]), None)
        if m is None:
            break
        if m != k:
            a[k], a[m] = a[m], a[k]
            for row in a:
                row[k], row[m] = row[m], row[k]
            order[k], order[m] = order[m], order[k]
        pivot = a[k][k]
        minors.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return minors, order


def _nonsingular(rows) -> bool:
    """Whether a square integer matrix is nonsingular (Bareiss with row swaps)."""
    a = [list(row) for row in rows]
    n, prev = len(a), 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return False
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True


def invertible_problem(rng, n: int, name: str = "") -> Problem:
    """Draw until P is invertible on both lanes; the data stays exact."""
    ell = n // 2
    while True:
        nodes = rng.sample(GRID, n)
        data = b.InterpolationData(
            nodes=tuple(nodes),
            values=tuple(_third(rng) for _ in range(ell)),
            derivative_bounds=tuple(_third(rng) for _ in range(ell)),
            residues=tuple(_third(rng, nonzero=True) for _ in range(n - ell)),
        )
        P = b.build_pick(data)
        if b.hermitian_inertia(b.build_pick(to_float(data)), RANK_TOL).zeros:
            continue
        minors, order = pivoted_minors(P)
        if len(minors) == n:
            # Jacobi: the negative eigenvalues are the sign changes in 1, D_1, ..., D_n
            signs = [1] + [1 if d > 0 else -1 for d in minors]
            kappa = sum(signs[k] != signs[k + 1] for k in range(n))
        else:
            inertia = b.hermitian_inertia(P, RANK_TOL)
            if inertia.zeros:
                continue
            kappa = inertia.negatives
        half = max(n // 2, 1)
        split = half if sorted(order[:half]) == list(range(half)) else _leading_split(P, n)
        return Problem(name or f"inv{n}", data, kappa, False, split)


def _leading_split(P: b.HermitianMatrix, n: int) -> int:
    """Largest k <= n/2 with a nonsingular leading block; n (the trivial
    split) when there is none."""
    a = _integer_rows(P)
    for k in range(n // 2, 0, -1):
        if _nonsingular([row[:k] for row in a[:k]]):
            return k
    return n


def degenerate_problem(rng, d: int, name: str = "") -> Problem:
    """Sample w = a z + c + sum r_k/(z - p_k) at d + 2 regular nodes and d poles."""
    points = rng.sample(GRID, 2 * d + 2)
    poles, regular = points[:d], points[d:]
    a = _third(rng, nonzero=True)
    c = _third(rng)
    residues = [_third(rng, nonzero=True) for _ in range(d)]
    w = b.RationalFunction(b.Polynomial((c, a)))
    for r, p in zip(residues, poles):
        w = w + b.RationalFunction(b.Polynomial((r,)), b.Polynomial((-p, 1)))
    dw = w.derivative()
    data = b.InterpolationData(
        nodes=tuple(regular) + tuple(poles),
        values=tuple(_real(w.eval(x)) for x in regular),
        derivative_bounds=tuple(_real(dw.eval(x)) for x in regular),
        residues=tuple(residues),
    )
    kappa = b.hermitian_inertia(b.build_pick(data), RANK_TOL).negatives
    return Problem(name or f"deg{d}", data, kappa, True, 0, w)


def _real(value) -> Fraction:
    return value.re if isinstance(value, b.GaussianRational) else Fraction(value)


def invertible_pool(seed: int, sizes, count: int, tag: str) -> list:
    """``count`` problems for each size, drawn in a fixed order from ``seed``."""
    rng = random.Random(f"{tag}:{seed}")
    return [
        invertible_problem(rng, n, f"{tag}-n{n}-{i}")
        for i in range(count)
        for n in sizes
    ]

"""Shared fixtures: the three golden systems and seeded random generators."""

import math
from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick import boundary
from bnpick.algebra import GaussianRational, _horner
from bnpick.boundary import LimitEstimate, LimitKind

F = Fraction

EXACT_I = GaussianRational(0, 1)

# The 2x2 signature matrix [[0, -i], [i, 0]] of the resolvent; J* = J and J^2 = I.
SIGNATURE_J = (
    (GaussianRational(0), -EXACT_I),
    (EXACT_I, GaussianRational(0)),
)


def data_two_regular():
    # nodes 0, 1 with values 0, 1 and derivative bounds -1, 1
    return b.InterpolationData(
        nodes=(F(0), F(1)),
        values=(F(0), F(1)),
        derivative_bounds=(F(-1), F(1)),
        residues=(),
    )


def data_mixed():
    # regular node 1 (value 0, bound -1) and singular node 0 (residue -1)
    return b.InterpolationData(
        nodes=(F(1), F(0)),
        values=(F(0),),
        derivative_bounds=(F(-1),),
        residues=(F(-1),),
    )


def data_degenerate():
    # regular node -1/2 (value 0, bound -1) and singular node 1/2 (residue 1)
    return b.InterpolationData(
        nodes=(F(-1, 2), F(1, 2)),
        values=(F(0),),
        derivative_bounds=(F(-1),),
        residues=(F(1),),
    )


@pytest.fixture(scope="session")
def sys1():
    return b.build_system(data_two_regular())


@pytest.fixture(scope="session")
def sys2():
    return b.build_system(data_mixed())


@pytest.fixture(scope="session")
def sys3():
    return b.build_system(data_degenerate())


@pytest.fixture(scope="session")
def theta1(sys1):
    return b.build_theta(sys1)


@pytest.fixture(scope="session")
def theta2(sys2):
    return b.build_theta(sys2)


DENSE_GRID = b.GridConfig(points_per_level=8, im_levels=(0.2, 0.7, 1.3))


def loop_kernel(f, points):
    """Nevanlinna kernel of f on the points, built entry by entry as a reference."""
    vals = [complex(f.eval(z)) for z in points]
    m = len(points)
    out = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            out[i, j] = (vals[j] - np.conj(vals[i])) / (points[j] - np.conj(points[i]))
    return (out + out.conj().T) / 2.0


def rational_j_unitary(theta):
    """Theta J Theta^T == J entry by entry in rational-function arithmetic.

    The four-entry identity the determinant form replaces, kept as its
    reference.
    """
    J = SIGNATURE_J
    e = theta.entries
    j_const = [[b.RationalFunction.constant(J[i][j]) for j in range(2)] for i in range(2)]
    for r in range(2):
        for c in range(2):
            acc = b.RationalFunction(b.Polynomial(()))
            for k in range(2):
                for m in range(2):
                    acc = acc + e[r][k] * j_const[k][m] * e[c][m]
            if not (acc - j_const[r][c]).is_zero:
                return False
    return True


def expanded_residue_form(nodes, left_cols, right_rows):
    """The entries of I_2 + sum_i (left col_i) (right row_i) / (z - x_i),
    expanded over the full node product and reduced by RationalFunction's
    gcd, as a 2 x 2 tuple.

    The Polynomial expansion the coprime-by-construction builder replaces,
    kept as its reference.
    """
    n = len(nodes)
    full = b.Polynomial.from_real_roots(nodes)
    partial = [
        b.Polynomial.from_real_roots([x for j, x in enumerate(nodes) if j != i])
        for i in range(n)
    ]
    entries = []
    for a in range(2):
        row = []
        for c in range(2):
            num = full if a == c else b.Polynomial(())
            for i in range(n):
                num = num + partial[i].scale(left_cols[i][a] * right_rows[i][c])
            row.append(b.RationalFunction(num, full))
        entries.append(tuple(row))
    return tuple(entries)


def entrywise_product(a, c):
    """The product of two 2 x 2 entry tuples in RationalFunction arithmetic,
    with its gcd per entry: the reference for composing residue forms."""
    return tuple(
        tuple(a[i][0] * c[0][j] + a[i][1] * c[1][j] for j in range(2)) for i in range(2)
    )


def det_route_inverse(e):
    """A 2 x 2 entry tuple divided by its determinant, rejecting an
    identically singular one: the reference for the adjugate inverse."""
    det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
    if det.is_zero:
        raise b.SingularMatrixError("identically singular rational matrix")
    return ((e[1][1] / det, -e[0][1] / det), (-e[1][0] / det, e[0][0] / det))


def cross_multiplied_j_unitary(e):
    """det == 1 for a 2 x 2 entry tuple n_ij / d_ij as the polynomial identity

        n00 n11 d01 d10 - n01 n10 d00 d11 == d00 d01 d10 d11,

    the identity the residue test of ``check_j_unitarity`` replaces, kept as
    its reference."""
    (a, c), (d, f) = e
    lhs = a.num * f.num * c.den * d.den - c.num * d.num * a.den * f.den
    return lhs == a.den * c.den * d.den * f.den


def gcd_apply_lft(theta, phi):
    """w = (Theta11 phi + Theta12) / (Theta21 phi + Theta22) over the cleared
    numerators, reduced by RationalFunction's Euclidean gcd.

    The route the node-deflated exact transform replaces, kept as its
    reference.
    """
    if phi.is_infinite:
        p, q = b.Polynomial.one(), b.Polynomial(())
    else:
        f = phi.as_rational()
        p, q = f.num, f.den
    (n00, n01), (n10, n11) = theta.cleared
    den = n10 * p + n11 * q
    if den.is_zero:
        raise b.DegenerateTransformError("constant infinity")
    return b.RationalFunction(n00 * p + n01 * q, den)


def rf(num, den=(1,)):
    return b.RationalFunction(b.Polynomial(num), b.Polynomial(den))


def golden_theta_two_regular():
    """Displayed closed form: (1/(2z(z-1))) [[2z^2, -z], [2z, 2z^2-4z+1]]."""
    den = (0, -2, 2)
    return [[rf((0, 0, 2), den), rf((0, -1), den)], [rf((0, 2), den), rf((1, -4, 2), den)]]


def golden_theta_mixed():
    """Displayed closed form: (1/(2z(z-1))) [[2z^2-3z+1, 1-z], [-z, 2z^2-z]]."""
    den = (0, -2, 2)
    return [[rf((1, -3, 2), den), rf((1, -1), den)], [rf((0, -1), den), rf((0, -1, 2), den)]]


def unique_solution():
    """(2z+1)/(2z-1), the unique degenerate-case interpolant."""
    return rf((1, 2), (-1, 2))


STANDARD_SWEEP = (
    b.Parameter.constant(0),
    b.Parameter.constant(1),
    b.Parameter.constant(-2),
    b.Parameter.infinity(),
    b.Parameter.rational(rf((0, 1))),
    b.Parameter.rational(rf((-1,), (0, 1))),
    b.Parameter.rational(rf((2, 1))),
)

# phi in {1/2, inf, z, -1/z}, the parameters of the benchmark's certify ops
BENCHMARK_PARAMETERS = (
    b.Parameter.constant(F(1, 2)),
    b.Parameter.infinity(),
    b.Parameter.rational(rf((0, 1))),
    b.Parameter.rational(rf((-1,), (0, 1))),
)


# -- the one-sample-at-a-time boundary limit -----------------------------------


def _modulus(v) -> float:
    """|v| as the batched limits compute it: C ``hypot`` (what ``abs`` of a
    complex calls; ``math.hypot`` rounds differently), inf on overflow."""
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def running_diverging(raw, growing) -> bool:
    """The divergence rule from the running count ``growing`` of consecutive
    growing steps up to the last sample."""
    if growing < boundary.DIVERGENCE_WINDOW:
        return False
    last = _modulus(raw[-1])
    return last >= 1e3 and last >= boundary.DIVERGENCE_FACTOR * _modulus(
        raw[-boundary.DIVERGENCE_WINDOW - 1]
    )


def windowed_diverging(raw, growing) -> bool:
    """The divergence rule rebuilt over the last six samples on every step."""
    window_size = boundary.DIVERGENCE_WINDOW
    if len(raw) < window_size + 1:
        return False
    window = [_modulus(v) for v in raw[-(window_size + 1):]]
    if window[-1] < 1e3:
        return False
    growing = all(window[i + 1] > window[i] for i in range(window_size))
    return growing and window[-1] >= boundary.DIVERGENCE_FACTOR * window[0]


def pointwise_derivative(f):
    """z -> f'(z) by the quotient rule (n'd - nd')/d^2 at one point, in
    Python complex arithmetic."""
    slopes = [tuple(complex(c) for c in reversed(p.derivative().coeffs)) for p in (f.num, f.den)]

    def sample(z):
        num, den = f.sampler._parts(z)
        dnum, dden = (_horner(c, z) for c in slopes)
        return (dnum * den - num * dden) / (den * den)

    return sample


def reference_nt_limit(f, x0, kind=LimitKind.VALUE, t0=0.5, max_steps=40, tol=1e-9,
                       sampler=None, diverging=running_diverging):
    """``nt_limit`` walked one path point at a time in Python complex
    arithmetic: the reference of ``nt_limits``.

    ``sampler`` replaces f's sampler (a stand-in returning any sequence);
    ``diverging`` is the divergence rule.  A sample that is not finite or
    whose modulus overflows is skipped.
    """
    x0 = float(x0)
    sampler = sampler or f.sampler
    derivative = pointwise_derivative(f) if kind is LimitKind.DERIVATIVE else None

    def sample(z: complex) -> complex:
        if kind is LimitKind.DERIVATIVE:
            return derivative(z)
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
        except b.PoleError:
            continue
        if not math.isfinite(_modulus(value)):
            continue
        raw.append(value)
        if len(raw) >= 2:
            r1.append(2.0 * raw[-1] - raw[-2])
            growing = growing + 1 if _modulus(raw[-1]) > _modulus(raw[-2]) else 0
        if len(r1) >= 2:
            r2.append((4.0 * r1[-1] - r1[-2]) / 3.0)
        if diverging(raw, growing):
            return LimitEstimate(kind, "infinite", None, tuple(raw), False, None)
        if len(r2) >= 2:
            err = _modulus(r2[-1] - r2[-2])
            if err <= tol * max(1.0, _modulus(r2[-1])):
                agree += 1
                if agree >= 2:
                    return LimitEstimate(kind, "finite", r2[-1], tuple(r2), True, err)
            else:
                agree = 0
    if not r2:
        return LimitEstimate(kind, "dne", None, tuple(raw), False, None)
    tail = r2[-5:]
    scale = max(1.0, max(_modulus(v) for v in tail))
    spread = (max(v.real for v in tail) - min(v.real for v in tail)) + (
        max(v.imag for v in tail) - min(v.imag for v in tail)
    )
    if spread <= boundary.SPREAD_TOL * scale:
        err = _modulus(r2[-1] - r2[-2]) if len(r2) >= 2 else None
        return LimitEstimate(kind, "finite", r2[-1], tuple(r2), False, err)
    return LimitEstimate(kind, "dne", None, tuple(r2), False, None)


def bits(v):
    """A float or complex number's bits, for comparisons in which NaN equals
    NaN and -0.0 differs from 0.0."""
    if v is None:
        return None
    if isinstance(v, complex):
        return ("c", v.real.hex(), v.imag.hex())
    return ("f", float(v).hex())


def same_estimate(a, b_) -> bool:
    """Equal ``LimitEstimate``s, every float compared bit for bit."""
    return (
        (a.kind, a.status, a.converged, bits(a.value), bits(a.error_estimate))
        == (b_.kind, b_.status, b_.converged, bits(b_.value), bits(b_.error_estimate))
        and [bits(v) for v in a.approximants] == [bits(v) for v in b_.approximants]
    )


# -- seeded random generators ------------------------------------------------


def random_fraction(rng, span=6, den=4, nonzero=False):
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if value or not nonzero:
            return value


def random_data(rng, n_max=6, n_min=1):
    n = rng.randint(n_min, n_max)
    ell = rng.randint(0, n)
    pool = [Fraction(k, 2) for k in range(-8, 9)]
    nodes = tuple(rng.sample(pool, n))
    return b.InterpolationData(
        nodes=nodes,
        values=tuple(random_fraction(rng) for _ in range(ell)),
        derivative_bounds=tuple(random_fraction(rng) for _ in range(ell)),
        residues=tuple(random_fraction(rng, nonzero=True) for _ in range(n - ell)),
    )


def exact_det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * exact_det(minor)
    return total


def gauss_jordan_inverse(m):
    """Inverse of an exact matrix by Gauss-Jordan elimination over its own
    scalars, or None when it is singular: the reference of the exact
    inverse."""
    n = len(m)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = [x / aug[col][col] for x in aug[col]]
        aug[col] = top
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor:
                aug[r] = [x - factor * y for x, y in zip(aug[r], top)]
    return [row[n:] for row in aug]


def rref_kernel_basis(rows):
    """Basis of the null space of a Fraction matrix from its reduced row
    echelon form, one vector per free column: the reference of the exact
    kernel."""
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0]) if a else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [F(int(c == fc)) for c in range(n)]
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(vec)
    return basis


def degenerate_closed_form(sys_, y):
    """w = sum y_i c_i / (z - x_i) / sum y_i e_i / (z - x_i) for a kernel
    vector y, over the full node product: the reference of the degenerate
    solution."""
    partial = [
        b.Polynomial.from_real_roots([x for j, x in enumerate(sys_.X) if j != i])
        for i in range(sys_.n)
    ]
    num = den = b.Polynomial(())
    for i in range(sys_.n):
        num = num + partial[i].scale(y[i] * sys_.C[i])
        den = den + partial[i].scale(y[i] * sys_.E[i])
    return b.RationalFunction(num, den)


def schur_inertia(rows):
    """Inertia (negatives, zeros, positives) of a real symmetric exact matrix
    by Schur-complement updates over Fractions, with diagonal pivots and a
    zero-diagonal 2x2 block [[0, a], [a, 0]] -- one eigenvalue of each sign --
    when no diagonal pivot is left: the reference of the exact inertia."""
    rows = [[F(x) for x in row] for row in rows]
    active = list(range(len(rows)))
    neg = pos = 0
    while active:
        pivot = next((p for p in active if rows[p][p]), None)
        if pivot is not None:
            d = rows[pivot][pivot]
            pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
            rest = [i for i in active if i != pivot]
            col = {i: rows[i][pivot] for i in rest}
            for i in rest:
                for j in rest:
                    rows[i][j] -= col[i] * col[j] / d
            active = rest
            continue
        off = next(
            ((i, j) for k, i in enumerate(active) for j in active[k + 1 :] if rows[i][j]),
            None,
        )
        if off is None:
            return (neg, len(active), pos)
        i, j = off
        a = rows[i][j]
        pos += 1
        neg += 1
        rest = [k for k in active if k not in (i, j)]
        ci = {k: rows[k][i] for k in rest}
        cj = {k: rows[k][j] for k in rest}
        for k in rest:
            for m in rest:
                # Schur update with B^(-1) = [[0, 1/a], [1/a, 0]]
                rows[k][m] -= (cj[k] * rows[i][m] + ci[k] * rows[j][m]) / a
        active = rest
    return (neg, 0, pos)


def random_invertible_system(rng, n_max=5):
    while True:
        data = random_data(rng, n_max=n_max)
        sys_ = b.build_system(data)
        if sys_.invertible:
            return sys_


THIRDS_GRID = tuple(Fraction(k, 3) for k in range(-39, 40))


def grid_system(rng, n, exact=False):
    """Invertible system on n nodes of the 1/3-grid in [-13, 13].

    Half the nodes are regular; values, derivative bounds and (nonzero)
    residues are p/3 with |p| <= 30, as in the benchmark's problems.  The
    data are Fractions when ``exact``, floats otherwise; both lanes draw the
    same numbers from the same rng.
    """
    def third(nonzero=False):
        while True:
            p = rng.randint(-30, 30)
            if p or not nonzero:
                return Fraction(p, 3) if exact else p / 3

    ell = n // 2
    while True:
        data = b.InterpolationData(
            nodes=tuple(x if exact else float(x) for x in rng.sample(THIRDS_GRID, n)),
            values=tuple(third() for _ in range(ell)),
            derivative_bounds=tuple(third() for _ in range(ell)),
            residues=tuple(third(nonzero=True) for _ in range(n - ell)),
        )
        sys_ = b.build_system(data)
        if sys_.invertible:
            return sys_


def random_singular_data(rng, n_max=5):
    """Random data whose Pick matrix is exactly singular.

    The determinant is affine in the first derivative bound, so solving one
    linear equation pins it to a singular value.
    """
    while True:
        data = random_data(rng, n_max=n_max, n_min=2)
        if data.ell == 0:
            continue  # all-singular data has diagonal P, always invertible
        P0 = b.build_pick(_with_gamma1(data, Fraction(0)))
        P1 = b.build_pick(_with_gamma1(data, Fraction(1)))
        b0 = exact_det([[v.re for v in row] for row in P0.rows])
        a = exact_det([[v.re for v in row] for row in P1.rows]) - b0
        if not a:
            continue
        data = _with_gamma1(data, -b0 / a)
        sys_ = b.build_system(data)
        if sys_.inertia.zeros > 0:
            return data


def _with_gamma1(data, gamma1):
    bounds = (gamma1,) + data.derivative_bounds[1:]
    return b.InterpolationData(
        nodes=data.nodes,
        values=data.values,
        derivative_bounds=bounds,
        residues=data.residues,
    )

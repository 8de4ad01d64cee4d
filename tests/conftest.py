"""Shared fixtures: the three golden systems and seeded random generators."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick.algebra import POLE_TOL, _compiled, _horner, _quotient
from bnpick.boundary import LimitKind

F = Fraction

# The symplectic form S = [[0, -1], [1, 0]]; the resolvent's signature matrix
# is J = i S, so J* = J and J^2 = I, and the identities in J are real ones in S.
SYMPLECTIC_S = ((0, -1), (1, 0))


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


def real_poles(f):
    """Real roots of f's denominator by ``np.roots``, |Im| < 1e-9 taken as
    real: the reference span of the grids that tests sample f on."""
    return sorted(r.real for r in np.roots(_compiled(f.den)) if abs(r.imag) < 1e-9)


def rational_j_unitary(theta):
    """Theta J Theta^T == J entry by entry in rational-function arithmetic.

    The four-entry identity the determinant form replaces, kept as its
    reference.  With J = i S it is Theta S Theta^T == S, in real arithmetic.
    """
    S = SYMPLECTIC_S
    e = theta.entries
    j_const = [[b.RationalFunction.constant(S[i][j]) for j in range(2)] for i in range(2)]
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


def plain_quotient(theta, phi):
    """(num, den) = N [p; q], phi = p/q (infinity the pair (1, 0)), over the
    numerators N = D Theta of Theta's canonical entries, D the product of
    the nodes, with nothing cancelled.  An entry's denominator is the
    product of the nodes with a nonzero residue there, times the leading
    coefficient of its integer form on the exact lane, so N_ab is its
    numerator over that coefficient times the product of the other nodes
    (no float division: its quotient loses leading terms to ``TRIM_TOL``)."""
    p, q = phi.pair()
    (n00, n01), (n10, n11) = [
        [e.num.scale(F(1) / (e.den.lead if theta.exact else 1)) * b.Polynomial.from_real_roots(
            [x for x, l, r in zip(theta.nodes, theta.left, theta.right) if not l[i] * r[j]])
         for j, e in enumerate(row)]
        for i, row in enumerate(theta.entries)]
    return n00 * p + n01 * q, n10 * p + n11 * q


def gcd_apply_lft(theta, phi):
    """w = (Theta11 phi + Theta12) / (Theta21 phi + Theta22): the
    ``plain_quotient`` reduced by RationalFunction's Euclidean gcd.

    The route the node-deflated exact transform replaces, kept as its
    reference.
    """
    num, den = plain_quotient(theta, phi)
    if den.is_zero:
        raise b.DegenerateTransformError("constant infinity")
    return b.RationalFunction(num, den)


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

def lane_parameters(exact):
    """phi in {1/2, inf, z, -1/z} with coefficients on the given lane, as
    the benchmark's certify ops build them."""
    one = F(1) if exact else 1.0
    return (
        b.Parameter.constant(one / 2),
        b.Parameter.infinity(),
        b.Parameter.rational(rf((0 * one, one))),
        b.Parameter.rational(rf((-one,), (0 * one, one))),
    )


# the exact parameters of the benchmark's exact certify ops
BENCHMARK_PARAMETERS = lane_parameters(True)


# -- the one-sample-at-a-time boundary limit -----------------------------------

# Divergence: |raw| grew on each of the last DIVERGENCE_WINDOW steps, to at
# least 1e3 and DIVERGENCE_FACTOR times its size DIVERGENCE_WINDOW steps back.
DIVERGENCE_WINDOW = 5
DIVERGENCE_FACTOR = 10.0
# A path that never settles is finite (unconverged) when its last five
# Richardson values spread by at most SPREAD_TOL times their largest modulus.
SPREAD_TOL = 1e-3


@dataclass(frozen=True)
class PathLimit:
    """A boundary limit sampled along the vertical path: its status, its
    value, and whether two Richardson differences agreed."""

    kind: LimitKind
    status: str  # "finite" | "infinite" | "dne"
    value: complex | None
    converged: bool

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.status == "infinite"


def _modulus(v) -> float:
    """|v| by C ``hypot`` (what ``abs`` of a complex calls), inf on overflow."""
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def running_diverging(raw, growing) -> bool:
    """The divergence rule from the running count ``growing`` of consecutive
    growing steps up to the last sample."""
    if growing < DIVERGENCE_WINDOW:
        return False
    last = _modulus(raw[-1])
    return last >= 1e3 and last >= DIVERGENCE_FACTOR * _modulus(raw[-DIVERGENCE_WINDOW - 1])


def pointwise_derivative(f):
    """z -> f'(z) by the quotient rule (n'd - nd')/d^2 at one point, in
    Python complex arithmetic, a point being a pole where
    |den| < POLE_TOL * max(1, |num|)."""
    compiled = [_compiled(p) for p in (f.num, f.den)]
    slopes = [tuple(complex(c) for c in reversed(p.derivative().coeffs)) for p in (f.num, f.den)]

    def sample(z):
        num, den = (_horner(c, z) for c in compiled)
        if abs(den) < POLE_TOL * max(1.0, abs(num)):
            raise b.PoleError(z)
        dnum, dden = (_horner(c, z) for c in slopes)
        return (dnum * den - num * dden) / (den * den)

    return sample


def reference_nt_limit(f, x0, kind=LimitKind.VALUE, t0=0.5, max_steps=40, tol=1e-9):
    """The boundary limit of f at x0 sampled along the vertical path
    z_k = x0 + i t0 2^-k, one Python complex sample at a time, with a
    second-order Richardson table: the independent oracle of the jet limits.

    A pole, or a sample that is not finite or whose modulus overflows, is
    skipped.  The limit is finite once two consecutive extrapolant
    differences are within ``tol``, infinite by ``running_diverging``, and
    otherwise decided by the SPREAD_TOL tail rule.
    """
    x0 = float(x0)
    num, den = _compiled(f.num), _compiled(f.den)
    derivative = pointwise_derivative(f) if kind is LimitKind.DERIVATIVE else None

    def sample(z: complex) -> complex:
        if kind is LimitKind.DERIVATIVE:
            return derivative(z)
        if kind is LimitKind.RESIDUAL:
            return (z - x0) * _quotient(num, den, z)
        if kind is LimitKind.KERNEL_DIAGONAL:
            return _quotient(num, den, z).imag / z.imag
        return _quotient(num, den, z)

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
        if running_diverging(raw, growing):
            return PathLimit(kind, "infinite", None, False)
        if len(r2) >= 2:
            if _modulus(r2[-1] - r2[-2]) <= tol * max(1.0, _modulus(r2[-1])):
                agree += 1
                if agree >= 2:
                    return PathLimit(kind, "finite", r2[-1], True)
            else:
                agree = 0
    if not r2:
        return PathLimit(kind, "dne", None, False)
    tail = r2[-5:]
    scale = max(1.0, max(_modulus(v) for v in tail))
    spread = (max(v.real for v in tail) - min(v.real for v in tail)) + (
        max(v.imag for v in tail) - min(v.imag for v in tail)
    )
    if spread <= SPREAD_TOL * scale:
        return PathLimit(kind, "finite", r2[-1], False)
    return PathLimit(kind, "dne", None, False)


def bits(v):
    """A float or complex number's bits, for comparisons in which NaN equals
    NaN and -0.0 differs from 0.0."""
    if v is None:
        return None
    if isinstance(v, complex):
        return ("c", v.real.hex(), v.imag.hex())
    return ("f", float(v).hex())


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
    """Determinant of an exact square matrix by Gaussian elimination over
    Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


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


def probe_set(n, exact):
    """The probe set at n on one lane: ``grid_system`` drawn from
    ``random.Random(1000 n + s)`` for s in {0, 1, 2}, each with the four
    ``lane_parameters``; 12 (system, phi) pairs and 12 n node checks."""
    systems = [grid_system(random.Random(1000 * n + s), n, exact) for s in range(3)]
    return [(sys_, phi) for sys_ in systems for phi in lane_parameters(exact)]


def degenerate_parameter_system(rng, n, exact=False):
    """(system, phi): n nodes of the 1/3-grid, only the first regular, and
    phi = eta_1 + tau_1 (z - x_1) with tau_1 = -p~_11 / te_1^2 > 0, a
    Nevanlinna parameter that sends the transform to the constant infinity.

    A singular node has E_i = 0, so Theta's second row has residues only at
    the regular nodes, and with one of them the parameter -Theta22 / Theta21
    that makes the denominator Theta21 phi + Theta22 vanish is linear; it is
    this phi.  Both lanes draw the same numbers from the same rng.
    """
    def third(nonzero=False):
        while True:
            p = rng.randint(-30, 30)
            if p or not nonzero:
                return Fraction(p, 3) if exact else p / 3

    while True:
        data = b.InterpolationData(
            nodes=tuple(x if exact else float(x) for x in rng.sample(THIRDS_GRID, n)),
            values=(third(),),
            derivative_bounds=(third(),),
            residues=tuple(third(nonzero=True) for _ in range(n - 1)),
        )
        sys_ = b.build_system(data)
        if sys_.invertible and sys_.tilde_e[0] and sys_.tilde_p_diag[0] < 0:
            break
    eta, tau = sys_.eta[0], -sys_.tilde_p_diag[0] / sys_.tilde_e[0] ** 2
    return sys_, b.Parameter.rational(rf((eta - tau * sys_.X[0], tau)))


def random_singular_data(rng, n_max=5):
    """Random data whose Pick matrix is exactly singular.

    The determinant is affine in the first derivative bound, so solving one
    linear equation pins it to a singular value.
    """
    while True:
        data = random_data(rng, n_max=n_max, n_min=2)
        if data.ell == 0:
            continue  # all-singular data has diagonal P, always invertible
        data = _singular_in_gamma1(data)
        if data is None:
            continue
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


def _singular_in_gamma1(data):
    """data with the first derivative bound solved from det P = 0, which is
    affine in it; None when the determinant does not depend on it."""
    b0 = exact_det(b.build_pick(_with_gamma1(data, Fraction(0))).rows)
    a = exact_det(b.build_pick(_with_gamma1(data, Fraction(1))).rows) - b0
    return _with_gamma1(data, -b0 / a) if a else None


def singular_probe(n, s, exact=True):
    """The singular probe at n: the data of ``grid_system(random.Random(77 n
    + s), n, exact=True)`` with the first derivative bound solved from
    det P = 0; the float system rounds the same data."""
    data = _singular_in_gamma1(grid_system(random.Random(77 * n + s), n, exact=True).data)
    assert data is not None
    if not exact:
        data = b.InterpolationData(*(tuple(map(float, v)) for v in (
            data.nodes, data.values, data.derivative_bounds, data.residues)))
    return b.build_system(data)


def degree_sample(rng, d):
    """(data, w): w = a z + c + sum_k r_k / (z - p_k), of degree d + 1,
    sampled at d + 2 regular nodes and its d poles of the 1/3-grid.  The
    Pick matrix of such data has rank at most d + 1 < 2 d + 2 = n, and w
    is the unique solution."""
    def third(nonzero=False):
        while True:
            p = rng.randint(-30, 30)
            if p or not nonzero:
                return Fraction(p, 3)

    points = rng.sample(THIRDS_GRID, 2 * d + 2)
    poles, regular = points[:d], points[d:]
    a, c = third(nonzero=True), third()
    residues = [third(nonzero=True) for _ in range(d)]
    w = rf((c, a))
    for r, p in zip(residues, poles):
        w = w + rf((r,), (-p, 1))
    dw = w.derivative()
    data = b.InterpolationData(
        nodes=tuple(regular) + tuple(poles),
        values=tuple(w.eval(x) for x in regular),
        derivative_bounds=tuple(dw.eval(x) for x in regular),
        residues=tuple(residues),
    )
    return data, w

"""The 2x2 rational resolvent of an invertible Pick system.

With P invertible, the resolvent

    Theta(z) = I_2 - i [C; E] (zI - X)^(-1) P^(-1) [C* E*] J

is J-unitary on the real line and its kernel has exactly kappa negative
squares on the upper half-plane.  Expanding over the simple poles gives the
residue form actually materialized here,

    Theta(z) = I_2 + sum_i [C e_i; E e_i] [te_i, -tc_i] / (z - x_i),

whose entries are real rational functions; golden displays compare by exact
coefficient equality.  The factorization splits Theta across a leading block
of P with matching negative-squares split.

On the exact lane every residue form (Theta, both factors of the
factorization, the inverse from system data) is built in canonical form
without a gcd.  Entry (a, b) is delta_ab + sum_i r_i / (z - x_i); over the
product of the nodes its numerator takes the value r_i prod_{j != i}
(x_i - x_j) at x_i, nonzero exactly when r_i != 0 since the nodes are
distinct.  Over the product of the nodes with r_i != 0 numerator and
denominator are therefore coprime, and only the integer scaling of the
canonical form is left to apply.

J-unitarity is certified through the determinant: for any 2x2 matrix A,
A J A^T = det(A) J, because J = i [[0, -1], [1, 0]] is a multiple of the
symplectic form.  So Theta J Theta^T == J holds identically exactly when
det Theta == 1, which on the exact lane is one polynomial identity over the
entries' own denominators, with no gcd.  Float samples of Theta come from
entry samplers compiled once per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._sections import DEFAULT_GRID, GridConfig, negative_count, span_of, upper_half_grid
from .algebra import (
    HermitianMatrix,
    Polynomial,
    RationalFunction,
    RationalSampler,
    _integer_form,
    hermitian_inertia,
    matrix_inverse,
)
from .errors import SingularMatrixError, SingularPickError, SplitNotAdmissibleError
from .problem import PickSystem

_J_NUMPY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
KERNEL_AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class RationalMatrix2x2:
    """2x2 matrix of rational functions with simple poles on the node set."""

    entries: tuple
    kappa: int | None = None
    poles: tuple = ()

    def entry(self, i, j) -> RationalFunction:
        return self.entries[i][j]

    @staticmethod
    def identity() -> "RationalMatrix2x2":
        one = RationalFunction.constant(1)
        zero = RationalFunction(Polynomial(()))
        return RationalMatrix2x2(((one, zero), (zero, one)), kappa=0)

    @staticmethod
    def from_entries(entries, kappa=None) -> "RationalMatrix2x2":
        entries = tuple(tuple(e for e in row) for row in entries)
        poles = _shared_real_poles(entries)
        return RationalMatrix2x2(entries, kappa=kappa, poles=poles)

    def det(self) -> RationalFunction:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def __matmul__(self, other: "RationalMatrix2x2") -> "RationalMatrix2x2":
        a, b = self.entries, other.entries
        prod = tuple(
            tuple(
                a[i][0] * b[0][j] + a[i][1] * b[1][j]
                for j in range(2)
            )
            for i in range(2)
        )
        return RationalMatrix2x2.from_entries(prod)

    @cached_property
    def _samplers(self) -> tuple:
        return tuple(tuple(RationalSampler(e) for e in row) for row in self.entries)

    def eval(self, z) -> np.ndarray:
        """Float value of the matrix at z from the compiled entry samplers."""
        return np.array([[sample(z) for sample in row] for row in self._samplers])

    def eval_exact(self, z):
        return [[self.entries[i][j].eval(z) for j in range(2)] for i in range(2)]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix2x2):
            return NotImplemented
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(2)
            for j in range(2)
        )

    def __hash__(self):
        return hash(self.entries)

    def to_json(self) -> dict:
        return {
            "entries": [[self.entries[i][j].to_json() for j in range(2)] for i in range(2)],
            "kappa": self.kappa,
            "poles": [float(p) for p in self.poles],
        }


def _shared_real_poles(entries) -> tuple:
    poles = set()
    for row in entries:
        for e in row:
            poles.update(round(p, 12) for p in e.real_poles())
    return tuple(sorted(poles))


def _residue_matrix_form(nodes, left_cols, right_rows, kappa) -> RationalMatrix2x2:
    """I_2 + sum_i (left col_i) (right row_i) / (z - x_i) in canonical form.

    Entry (a, b) is delta_ab + sum_i r_i / (z - x_i) with residues
    r_i = left_i[a] right_i[b].  On the exact lane it is built coprime by
    construction: over the full node product its numerator takes the value
    r_i prod_{j != i} (x_i - x_j) at x_i, which is nonzero exactly when
    r_i != 0 because the nodes are distinct.  So dropping the nodes with a
    zero residue leaves a numerator coprime to the product over the kept
    nodes, and only the integer scaling of the canonical form remains; no
    gcd is taken.  The float lane expands over the full node product and
    reduces as before.
    """
    factors = [*left_cols, *right_rows]
    if all(isinstance(v, (int, Fraction)) for v in [*nodes, *(v for f in factors for v in f)]):
        entries = _exact_residue_entries(nodes, left_cols, right_rows)
    else:
        entries = _float_residue_entries(nodes, left_cols, right_rows)
    return RationalMatrix2x2.from_entries(entries, kappa=kappa)


def _exact_residue_entries(nodes, left_cols, right_rows) -> tuple:
    """Canonical exact entries from plain Fraction coefficient lists.

    The node product of each distinct kept set is built once, and its
    partial products (one node left out) come from it by synthetic division,
    so an entry costs O(n^2) Fraction operations.
    """
    products = {}

    def node_product(kept):
        if kept not in products:
            full = [Fraction(1)]
            for i in kept:
                full = _times_linear(full, nodes[i])
            products[kept] = full, [_deflate(full, nodes[i]) for i in kept]
        return products[kept]

    entries = []
    for a in range(2):
        row = []
        for b in range(2):
            residues = [left[a] * right[b] for left, right in zip(left_cols, right_rows)]
            kept = tuple(i for i, r in enumerate(residues) if r)
            full, partials = node_product(kept)
            num = list(full) if a == b else [0] * len(full)
            for i, partial in zip(kept, partials):
                r = residues[i]
                for k, c in enumerate(partial):
                    num[k] += r * c
            row.append(RationalFunction(*_integer_form(num, full), reduce=False))
        entries.append(tuple(row))
    return tuple(entries)


def _times_linear(coeffs, x) -> list:
    """Ascending coefficients of p(z) (z - x)."""
    out = [0] + coeffs
    for k, c in enumerate(coeffs):
        out[k] -= x * c
    return out


def _deflate(coeffs, x) -> list:
    """Ascending coefficients of p(z) / (z - x) for a root x of p (synthetic division)."""
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + x * carry
        quotient[k - 1] = carry
    return quotient


def _float_residue_entries(nodes, left_cols, right_rows) -> tuple:
    """Entries expanded over the full node product, reduced by RationalFunction."""
    n = len(nodes)
    full = Polynomial.from_real_roots(nodes)
    partial = [
        Polynomial.from_real_roots([x for j, x in enumerate(nodes) if j != i])
        for i in range(n)
    ]
    entries = []
    for a in range(2):
        row = []
        for b in range(2):
            num = full if a == b else Polynomial(())
            for i in range(n):
                num = num + partial[i].scale(left_cols[i][a] * right_rows[i][b])
            row.append(RationalFunction(num, full))
        entries.append(tuple(row))
    return tuple(entries)


def build_theta(sys: PickSystem) -> RationalMatrix2x2:
    """Resolvent of an invertible Pick system in canonical rational form."""
    if not sys.invertible:
        raise SingularPickError("Pick matrix is singular; use the degenerate solver")
    left = [(sys.C[i], sys.E[i]) for i in range(sys.n)]
    right = [(sys.tilde_e[i], -sys.tilde_c[i]) for i in range(sys.n)]
    return _residue_matrix_form(list(sys.X), left, right, sys.kappa)


def theta_inverse(
    theta: RationalMatrix2x2, sys: PickSystem | None = None
) -> RationalMatrix2x2:
    """Inverse resolvent.

    With system data the reflection form I_2 + i [C; E] P^(-1) (zI-X)^(-1)
    [C* E*] J is materialized directly; otherwise the adjugate over the
    determinant is used (rejecting identically singular input).
    """
    if sys is not None:
        left = [(sys.tilde_c[i], sys.tilde_e[i]) for i in range(sys.n)]
        right = [(-sys.E[i], sys.C[i]) for i in range(sys.n)]
        return _residue_matrix_form(list(sys.X), left, right, sys.kappa)
    det = theta.det()
    if det.is_zero:
        raise SingularMatrixError("identically singular rational matrix")
    e = theta.entries
    inv = (
        (e[1][1] / det, -e[0][1] / det),
        (-e[1][0] / det, e[0][0] / det),
    )
    return RationalMatrix2x2.from_entries(inv, kappa=theta.kappa)


@dataclass(frozen=True)
class JUnitarityReport:
    """Outcome of the J-unitarity certificate Theta(x) J Theta(x)* = J."""

    symbolic_zero: bool | None
    max_residual: float
    samples_used: int
    skipped: tuple = ()


def _symbolic_j_unitary(theta: RationalMatrix2x2) -> bool:
    """Theta(z) J Theta(z)^T == J as the identity det Theta == 1.

    With entries n_ij / d_ij the determinant identity is cleared of the
    entries' own denominators:

        n00 n11 d01 d10 - n01 n10 d00 d11 == d00 d01 d10 d11,

    compared as exact polynomials.  For real-coefficient entries this is the
    real-line J-unitarity statement continued off the axis.
    """
    (a, b), (c, d) = theta.entries
    lhs = a.num * d.num * b.den * c.den - b.num * c.num * a.den * d.den
    return lhs == a.den * b.den * c.den * d.den


def check_j_unitarity(theta: RationalMatrix2x2, sample_points=None) -> JUnitarityReport:
    """Certify J-unitarity symbolically (exact entries) and by sampling.

    The symbolic part checks det Theta == 1 as one cross-multiplied
    polynomial identity, which holds exactly when Theta J Theta^T == J (see
    the module docstring); it builds no rational function and takes no gcd.
    The sampled part reports the largest entry of Theta(x) J Theta(x)* - J
    over real points, 100 of them spread over the poles' span by default.
    Real sample points landing on poles are skipped and reported.
    """
    exact = all(theta.entries[i][j].exact for i in range(2) for j in range(2))
    symbolic = _symbolic_j_unitary(theta) if exact else None
    if sample_points is None:
        lo = min(theta.poles, default=0.0) - 1.5
        hi = max(theta.poles, default=0.0) + 1.5
        sample_points = [lo + (hi - lo) * k / 99.0 for k in range(100)]
    worst = 0.0
    used = 0
    skipped = []
    for x in sample_points:
        if any(abs(float(x) - p) < 1e-9 for p in theta.poles):
            skipped.append(float(x))
            continue
        try:
            m = theta.eval(complex(float(x), 0.0))
        except Exception:
            skipped.append(float(x))
            continue
        res = m @ _J_NUMPY @ m.conj().T - _J_NUMPY
        worst = max(worst, float(np.abs(res).max()))
        used += 1
    return JUnitarityReport(
        symbolic_zero=symbolic,
        max_residual=worst,
        samples_used=used,
        skipped=tuple(skipped),
    )


def _resolvent_columns(sys: PickSystem, z: complex) -> np.ndarray:
    """2 x n array [C; E] (zI - X)^(-1)."""
    x = np.array([float(v) for v in sys.X])
    c = np.array([float(v) for v in sys.C])
    e = np.array([float(v) for v in sys.E])
    d = 1.0 / (z - x)
    return np.vstack([c * d, e * d])


def kernel_theta_sample(sys: PickSystem, theta: RationalMatrix2x2, points) -> np.ndarray:
    """Sampled Hermitian kernel (J - Theta(z) J Theta(w)*) / (-i (z - conj(w))).

    Cross-checked against the state-space form
    [C; E](zI-X)^(-1) P^(-1) (conj(w) I - X)^(-1) [C* E*].
    """
    m = len(points)
    p_inv = np.array([[float(v) for v in row] for row in sys.p_inv])
    theta_vals = [theta.eval(z) for z in points]
    cols = [_resolvent_columns(sys, z) for z in points]
    direct = np.zeros((2 * m, 2 * m), dtype=complex)
    realized = np.zeros((2 * m, 2 * m), dtype=complex)
    for a in range(m):
        for b in range(m):
            z, w = points[a], points[b]
            block = (_J_NUMPY - theta_vals[a] @ _J_NUMPY @ theta_vals[b].conj().T) / (
                -1j * (z - np.conj(w))
            )
            direct[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = block
            realized[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = (
                cols[a] @ p_inv @ cols[b].conj().T
            )
    scale = max(1.0, float(np.abs(direct).max()))
    if float(np.abs(direct - realized).max()) > KERNEL_AGREEMENT_TOL * scale:
        raise ArithmeticError("resolvent kernel disagrees with its state-space form")
    return (direct + direct.conj().T) / 2.0


def kernel_theta_negative_squares(
    sys: PickSystem,
    theta: RationalMatrix2x2,
    config: GridConfig = DEFAULT_GRID,
) -> int:
    """Sampled negative-squares lower bound of the resolvent kernel.

    The kernel is sampled at the m points of the ``config`` grid over the
    node span.  The count is the number of eigenvalues of the whole sampled
    2m x 2m kernel below -config.eig_tol * max(1, max|lambda|).  By Cauchy
    interlacing no subset of the sample points shows more negative
    eigenvalues, and the kernel's negative squares (kappa for the resolvent
    of an invertible Pick system) are at least this many.
    """
    grid = upper_half_grid(span_of(sys.X), config, avoid=[complex(p) for p in theta.poles])
    return negative_count(kernel_theta_sample(sys, theta, grid), config.eig_tol)


def factorize(sys: PickSystem, k: int, order=None):
    """Split the resolvent across a leading k x k block of P.

    ``order`` optionally permutes the nodes first (the resolvent itself is
    permutation invariant, but the split blocks are not).  Returns
    (Theta1, Theta2t) with Theta1 built from the truncated data and Theta2t
    from the trailing block of P^(-1); their product reproduces the full
    resolvent and the negative squares add up.
    """
    if not sys.invertible:
        raise SingularPickError("Pick matrix is singular")
    n = sys.n
    if not 1 <= k <= n:
        raise ValueError(f"split index must be in 1..{n}")
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the node indices")
    if k == n:
        return build_theta(sys), RationalMatrix2x2.identity()
    from .problem import _real_part as real

    x = [sys.X[i] for i in order]
    e = [sys.E[i] for i in order]
    c = [sys.C[i] for i in order]
    p_rows = [[sys.P.entry(i, j) for j in order] for i in order]
    p_inv = [[sys.p_inv[i][j] for j in order] for i in order]
    tilde_e = [sys.tilde_e[i] for i in order]
    tilde_c = [sys.tilde_c[i] for i in order]

    head = list(range(k))
    tail = list(range(k, n))
    p11 = HermitianMatrix([[p_rows[i][j] for j in head] for i in head])
    inertia1 = hermitian_inertia(p11, sys.rank_tol)
    if inertia1.zeros:
        raise SplitNotAdmissibleError(f"leading {k}x{k} block of P is singular")
    try:
        p11_inv = matrix_inverse(p11)
    except SingularMatrixError as exc:
        raise SplitNotAdmissibleError(str(exc)) from exc

    te1 = [sum(e[i] * real(p11_inv[i][j]) for i in range(k)) for j in range(k)]
    tc1 = [sum(c[i] * real(p11_inv[i][j]) for i in range(k)) for j in range(k)]
    theta1 = _residue_matrix_form(
        [x[i] for i in head],
        [(c[i], e[i]) for i in head],
        [(te1[i], -tc1[i]) for i in head],
        inertia1.negatives,
    )

    p22t = [[p_inv[i][j] for j in tail] for i in tail]
    inertia2 = hermitian_inertia(HermitianMatrix(p22t), sys.rank_tol)
    p22t_inv = matrix_inverse(p22t)
    m = n - k
    tc2 = [tilde_c[i] for i in tail]
    te2 = [tilde_e[i] for i in tail]
    left = [
        (
            sum(tc2[r] * real(p22t_inv[r][j]) for r in range(m)),
            sum(te2[r] * real(p22t_inv[r][j]) for r in range(m)),
        )
        for j in range(m)
    ]
    theta2t = _residue_matrix_form(
        [x[i] for i in tail],
        left,
        [(te2[j], -tc2[j]) for j in range(m)],
        inertia2.negatives,
    )
    return theta1, theta2t

"""The 2x2 rational resolvent of an invertible Pick system.

With P invertible, the resolvent

    Theta(z) = I_2 - i [C; E] (zI - X)^(-1) P^(-1) [C* E*] J

is J-unitary on the real line and its kernel has exactly kappa negative
squares on the upper half-plane.  Expanding over the simple poles gives its
residue form

    Theta(z) = I_2 + sum_i [C e_i; E e_i] [te_i, -tc_i] / (z - x_i),

which is the one representation of a 2x2 rational matrix here: the
resolvent, its inverse, both factors of its factorization and products of
them are held so, on both lanes.  A residue form is evaluated from
that sum (the stable partial-fraction form, where expanded monomial
coefficients lose the float lane at n of about 20), its poles are exactly
the nodes with a nonzero residue, and its entries -- real rational
functions whose golden displays compare by exact coefficient equality --
are expanded from the same form only when they are asked for.  A float
matrix is written as its residue form, and an exact one as its entries.
The same form with constant term 0 in place of I_2 realizes the degenerate
solver's unique solution, and one routine (``_expansion``) expands the
transform of any such realization, on both lanes.

J-unitarity is certified through the determinant: for any 2x2 matrix A,
A J A^T = det(A) J, because J = i [[0, -1], [1, 0]] is a multiple of the
symplectic form.  So Theta J Theta^T == J holds identically exactly when
det Theta == 1.  On the exact lane that is decided from the residues: near
x_i, Theta = A_i / (z - x_i) + H_i(z) with A_i = [a; b] [c, d] of rank one,
so det Theta = det H_i + [b, -a] H_i(z) [d; -c] / (z - x_i) has at most
simple poles, and as Theta(oo) = I it is 1 exactly when every residue
[b, -a] H_i(x_i) [d; -c] vanishes -- O(n^2) exact scalar operations, with no
entry expanded.  Every residue form built here is a product of resolvents
and their inverses, so det == 1 by construction and its inverse is its
adjugate, again a residue form on the same nodes.  The factorization splits
Theta across a leading block of P into the leading nodes' resolvent and
that resolvent's adjugate times Theta.  A product of residue forms is
composed as one: at a node of one factor only, the residue is l_i r_i
times the other factor's value there, on the right or on the left, so a
factor pair on disjoint nodes recomposes in O(k (n - k)) exact scalar
operations, with no entry expanded and no gcd.

Sampled certificates evaluate Theta at all their points in one batched
``eval``: the J-unitarity residual at its real points, and the 2m x 2m
resolvent kernel with its state-space cross-check on the grid.

``solve`` is the pipeline's entry: the resolvent of an invertible Pick
system, or the degenerate solver's unique solution of a singular one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from ._sections import (
    DEFAULT_GRID,
    VERIFY_TOL,
    GridConfig,
    negative_count,
    upper_half_grid,
)
from .algebra import (
    RANK_TOL,
    Polynomial,
    RationalFunction,
    _cleared_integers,
    _deflate,
    _float_normal_form,
    _integer_form,
    _node_products,
    _node_sum,
    scalar_from_json,
    scalar_to_json,
)
from .errors import (
    DegenerateTransformError,
    FloatRangeError,
    PoleError,
    SingularMatrixError,
    SingularPickError,
    SplitNotAdmissibleError,
)
from .problem import InterpolationData, PickSystem, build_system

if TYPE_CHECKING:
    import numpy as np

KERNEL_AGREEMENT_TOL = 1e-8
_DEGENERATE = "parameter sends the transform to the constant infinity"


_IDENTITY = ((1, 0), (0, 1))


@dataclass(frozen=True)
class RationalMatrix2x2:
    """2x2 matrix of rational functions held as a residue form.

    The residue form K + sum_i l_i r_i / (z - x_i) keeps the nodes x_i and
    their left columns l_i and right rows r_i, and its constant term K, I
    for every matrix built from resolvents and 0 for the degenerate
    solution's realization (``solver.solve_degenerate``).  It is evaluated
    from them (``eval``, ``residue_jets``, ``_expansion``), its poles are the
    nodes with a nonzero residue, and its entries are expanded from them
    when first asked for.  Products of resolvent forms are composed into
    residue forms (``@``), and as they have det == 1 their inverse is the
    adjugate; no realization is given to either.
    """

    kappa: int | None = None
    nodes: tuple = ()
    left: tuple = ()
    right: tuple = ()
    constant: tuple = _IDENTITY

    def entry(self, i, j) -> RationalFunction:
        return self.entries[i][j]

    @staticmethod
    def identity() -> "RationalMatrix2x2":
        return RationalMatrix2x2(kappa=0)

    @cached_property
    def exact(self) -> bool:
        """Whether the matrix lives on the exact lane."""
        return all(isinstance(v, (int, Fraction)) for v in self._scalars())

    def _scalars(self):
        return (*self.nodes, *(v for f in (*self.left, *self.right, *self.constant) for v in f))

    @cached_property
    def poles(self) -> tuple:
        """The nodes with a nonzero residue, sorted."""
        return tuple(sorted(x for x, l, r in zip(self.nodes, self.left, self.right)
                            if any(l) and any(r)))

    @cached_property
    def entries(self) -> tuple:
        """The four entries in canonical form.

        Entry (a, b) is K_ab + sum_i r_i / (z - x_i) with r_i = l_i[a] r_i[b],
        a node sum over the product D of the nodes with r_i != 0
        (``_numerators``).  Its numerator takes the value
        r_i prod_{j != i} (x_i - x_j) at x_i, nonzero because the nodes are
        distinct, so numerator and denominator are coprime by construction
        and no gcd is taken: the exact lane applies only the integer scaling
        of the canonical form, and the float lane keeps the monic node
        product as denominator.
        """
        rows = []
        for a in range(2):
            row = []
            for b in range(2):
                kept = tuple(i for i, (l, r) in enumerate(zip(self.left, self.right))
                             if l[a] * r[b])
                numerators, den = self._numerators(kept)
                num = numerators[a][b]
                pair = _integer_form(num, den) if self.exact else (Polynomial(num), Polynomial(den))
                row.append(RationalFunction(*pair, reduce=False))
            rows.append(tuple(row))
        return tuple(rows)

    def _numerators(self, kept: tuple) -> tuple:
        """(N, D): D = prod_kept (z - x_i) and the node sums N_ab of
        D (K + sum_kept l_i r_i / (z - x_i))_ab, ascending, in the matrix's
        own scalars; kept once per index tuple ``kept`` (``entries``,
        ``_expansion``)."""
        table = vars(self).setdefault("_numerator_table", {})  # as cached_property stores
        if kept not in table:
            full, partials = _node_products([self.nodes[i] for i in kept])
            table[kept] = [[_node_sum([self.left[i][a] * self.right[i][b] for i in kept], partials,
                                      [self.constant[a][b] * c for c in full]) for b in range(2)]
                           for a in range(2)], full
        return table[kept]

    def det(self) -> RationalFunction:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def _row_at(self, r, x) -> tuple:
        """r H(x), H the matrix without its term at x when x is a node."""
        u, v = r
        for y, (a, b), (c, d) in zip(self.nodes, self.left, self.right):
            if y != x:
                t = (r[0] * a + r[1] * b) / (x - y)
                u, v = u + t * c, v + t * d
        return u, v

    def _column_at(self, l, x) -> tuple:
        """H(x) l, H the matrix without its term at x when x is a node."""
        u, v = l
        for y, (a, b), (c, d) in zip(self.nodes, self.left, self.right):
            if y != x:
                t = (c * l[0] + d * l[1]) / (x - y)
                u, v = u + t * a, v + t * b
        return u, v

    def __matmul__(self, other: "RationalMatrix2x2") -> "RationalMatrix2x2":
        """The product as a residue form, composed from the two residue forms.

        With self = H_1 + l r / (z - x) and other = H_2 + l' r' / (z - x)
        near x (a missing term being zero), the product has the double-pole
        coefficient (r . l') l r', which must vanish, and the residue
        R = l (r H_2(x)) + (H_1(x) l') r', which must have rank at most one;
        either failure raises ``ValueError``.  For det-one factors det R = 0
        follows from det(product) == 1.  A zero residue drops its node, so a
        matrix times its inverse is the identity with no nodes.  The exact
        lane compares exactly.  On the float lane r . l', each entry of R and
        det R count as zero within JET_ZERO_TOL of their modulus scales, the
        same sums over the moduli of their terms (``_modulus_at``).  Factors
        on disjoint nodes compose with no test.  The product's ``kappa`` is
        None.  Both factors must have the constant term I, as the terms
        above assume; any other is a ``ValueError`` that names it.
        """
        _require_unit_constant(self, "a product of residue forms")
        _require_unit_constant(other, "a product of residue forms")
        exact = self.exact and other.exact
        tol = 0
        if not exact:
            from .boundary import JET_ZERO_TOL as tol
        theirs = dict(zip(other.nodes, zip(other.left, other.right)))
        nodes, left, right = [], [], []
        for x, l, r in zip(self.nodes, self.left, self.right):
            row = other._row_at(r, x)
            if x in theirs:
                l2, r2 = theirs.pop(x)
                dot = r[0] * l2[0] + r[1] * l2[1]
                if abs(dot) > tol * (abs(r[0] * l2[0]) + abs(r[1] * l2[1])) and any(l) and any(r2):
                    raise ValueError(f"the product has a double pole at {x}")
                col = self._column_at(l2, x)
                residue = [[l[a] * row[b] + col[a] * r2[b] for b in range(2)] for a in range(2)]
                if exact:
                    scale = residue  # any scale: tol is 0
                else:
                    # the moduli of l (r H_2(x)) + (H_1(x) l') r', term by term
                    row_scale = [abs(v) for v in r] @ other._modulus_at(x)
                    col_scale = self._modulus_at(x) @ [abs(v) for v in l2]
                    scale = [[abs(l[a]) * row_scale[b] + col_scale[a] * abs(r2[b])
                              for b in range(2)] for a in range(2)]
                if all(abs(residue[a][b]) <= tol * scale[a][b] for a in range(2) for b in range(2)):
                    l, row = (0, 0), (0, 0)
                else:
                    det = residue[0][0] * residue[1][1] - residue[0][1] * residue[1][0]
                    det_scale = scale[0][0] * scale[1][1] + scale[0][1] * scale[1][0]
                    if abs(det) > tol * det_scale:
                        raise ValueError(f"the product's residue at {x} has rank two")
                    l, row = _rank_one_factors(residue)
            nodes.append(x)
            left.append(l)
            right.append(row)
        for y, (l2, r2) in theirs.items():
            nodes.append(y)
            left.append(self._column_at(l2, y))
            right.append(r2)
        return _residue_matrix_form(nodes, left, right, None)

    def _modulus_at(self, x) -> np.ndarray:
        """I + sum_{x_j != x} |l_j| |r_j| / |x - x_j| in float64: the matrix
        whose products with |r| and |l| are the sums ``_row_at`` and
        ``_column_at`` form, with every term replaced by its modulus."""
        import numpy as np

        nodes, left, right, _ = self._samplers
        gap = np.abs(float(x) - nodes)
        inv = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0)
        return np.eye(2) + (np.abs(left) * inv) @ np.abs(right)

    @cached_property
    def _samplers(self):
        """The float nodes, 2 x n left columns, n x 2 right rows and 2 x 2
        constant term.  An exact value beyond the float range raises
        ``FloatRangeError``, which names its size."""
        import numpy as np

        try:
            return (
                np.array(self.nodes, dtype=float),
                np.array(self.left, dtype=float).reshape(-1, 2).T,
                np.array(self.right, dtype=float).reshape(-1, 2),
                np.array(self.constant, dtype=float),
            )
        except OverflowError:
            bits = max(int(abs(v)).bit_length() for v in self._scalars())
            raise FloatRangeError(
                f"a residue-form entry of {bits} bits exceeds the float range (1024 bits); "
                "the matrix cannot be sampled in floats"
            ) from None

    def _grid_table(self, span, config: GridConfig) -> tuple:
        """(z, values): the points of ``upper_half_grid(span, config)`` as a
        complex array and the matrix's values there from one ``eval``,
        shape (m, 2, 2), both read-only; kept for the last (span, config)."""
        key = (float(span[0]), float(span[1]), config)
        held = vars(self).get("_grid")
        if held is None or held[0] != key:
            import numpy as np

            z = np.array(upper_half_grid(span, config), dtype=complex)
            values = self.eval(z)
            z.flags.writeable = values.flags.writeable = False
            held = vars(self)["_grid"] = key, (z, values)  # as cached_property stores
        return held[1]

    @cached_property
    def _node_table(self) -> "_NodeTable":
        """The ``_NodeTable`` at the matrix's own nodes, built once."""
        import numpy as np

        from .boundary import JET_ORDERS

        nodes, left, right, _ = self._samplers
        gap = nodes[:, np.newaxis] - nodes
        own = gap == 0
        inv = np.divide(1.0, gap, out=np.zeros_like(gap), where=~own)
        weights = np.empty((JET_ORDERS,) + gap.shape)
        weights[0] = own
        for m in range(1, JET_ORDERS):
            weights[m] = inv if m == 1 else weights[m - 1] * -inv
        table = _NodeTable(weights, np.abs(weights), np.abs(left), np.abs(right).sum(axis=1))
        for array in table:
            array.flags.writeable = False
        return table

    def residue_jets(self, v: np.ndarray) -> tuple:
        """Taylor coefficients in t of u(t) = (z - x) Theta(z) v(z), z = x + t,
        at every node x at once, in float64.

        ``v`` holds the first K <= JET_ORDERS Taylor coefficients of the
        2-vector v at the n nodes, shape (K, 2, n).  At x_i,
        (z - x_i) / (z - x_j) is 1 for j = i and
        sum_{m >= 1} (-1)^(m-1) t^m / (x_i - x_j)^m otherwise, so with W_m
        those weights (W_0 the identity)

            u_k = K v_(k-1) + sum_{m=0..k} sum_j l_j W_m[i, j] (r_j . v_(k-m)),

        K the constant term: u_0 = l_i (r_i . v_0) and u_1 = K v_0 + l_i (r_i . v_1)
        + sum_{j != i} l_j (r_j . v_0) / (x_i - x_j).  The weights and what
        else depends only on the nodes are the node table (``_node_table``),
        built once.  Returns (u, scale): u and the same sums with every
        factor replaced by its modulus and each r_j . v by |r_j| |v|
        (1-norms), both of shape (K, 2, n); the scale bounds the rounding of
        the sums and the error that float residue data carry.
        """
        import numpy as np

        _, left, right, constant = self._samplers
        table = self._node_table
        count = len(v)
        # r_j . v_b at each node, shape (K, n, n), and its scale |r_j| |v_b|
        # in 1-norms, as the float lane's rows r_j carry a float inverse's error
        moduli = np.abs(v)
        dots = v.transpose(0, 2, 1) @ right.T
        sizes = moduli.sum(axis=1)[:, :, np.newaxis] * table.right_sizes
        # K v and |K| |v|, which are v and |v| when K = I, as on every resolvent
        shift, abs_shift = ((v, moduli) if self.constant == _IDENTITY
                            else (constant @ v, abs(constant) @ moduli))
        out = []
        for w, l, d, shift in ((table.weights, left, dots, shift),
                               (table.abs_weights, table.abs_left, sizes, abs_shift)):
            terms = w[0] * d
            for m in range(1, count):
                terms[m:] += w[m] * d[: count - m]
            u = (terms @ l.T).transpose(0, 2, 1)
            u[1:] += shift[:-1]
            out.append(u)
        return tuple(out)

    def eval(self, z) -> np.ndarray:
        """Float value K + L diag(1/(z - x)) R of the matrix at z.

        An array of K points gives the K x 2 x 2 stack of the values at each
        point, evaluated at once.  ``PoleError`` is raised when any point is
        a pole.
        """
        import numpy as np

        if np.ndim(z) == 0:
            return self.eval(np.array([complex(z)]))[0]
        points = np.asarray(z, dtype=complex).reshape(-1)
        x, left, right, constant = self._samplers
        gap = points[:, np.newaxis] - x
        on_pole = ~gap.all(axis=1)
        if on_pole.any():
            raise PoleError(complex(points[on_pole][0]))
        return constant + (left / gap[:, np.newaxis, :]) @ right

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
        """An exact matrix's canonical entries, and a float matrix's residue
        form (``residue_json``), which is what it is evaluated from: its
        expanded float entries lose accuracy from n of about 16, where their
        values were off by up to 2e2 relative on the probe systems of
        tests/conftest.py."""
        if not self.exact:
            return self.residue_json()
        return {
            "entries": [[self.entries[i][j].to_json() for j in range(2)] for i in range(2)],
            "kappa": self.kappa,
            "poles": [float(p) for p in self.poles],
        }

    def residue_json(self) -> dict:
        """The residue form as a document, which ``from_json`` reads back:
        the nodes, the left columns and the right rows, in the nodes' order,
        the constant term's rows, ``kappa`` and the sorted poles."""
        return {
            "nodes": [scalar_to_json(x) for x in self.nodes],
            "left": [[scalar_to_json(v) for v in l] for l in self.left],
            "right": [[scalar_to_json(v) for v in r] for r in self.right],
            "constant": [[scalar_to_json(v) for v in row] for row in self.constant],
            "kappa": self.kappa,
            "poles": [float(p) for p in self.poles],
        }

    @staticmethod
    def from_json(doc) -> "RationalMatrix2x2":
        """The matrix of a ``residue_json`` document, every node kept, with
        the values its scalars give (``scalar_from_json``) and K = I where it
        has none.  Unequal counts of nodes, left columns and right rows, a
        column, row or K that is not pairs, repeated nodes, a non-integer
        ``kappa`` and a non-finite or malformed number are each a
        ``ValueError`` or ``TypeError``; a missing field is a ``KeyError``."""
        nodes = [scalar_from_json(x) for x in doc["nodes"]]
        left, right = ([tuple(map(scalar_from_json, f)) for f in doc[key]]
                       for key in ("left", "right"))
        constant = [tuple(map(scalar_from_json, f)) for f in doc.get("constant", _IDENTITY)]
        if not len(nodes) == len(left) == len(right):
            raise ValueError("a residue form needs one left column and one right row per node")
        if len(constant) != 2 or any(len(f) != 2 for f in (*left, *right, *constant)):
            raise ValueError("a residue form's columns, rows and two constant rows are pairs")
        if len(set(nodes)) != len(nodes):
            raise ValueError("the nodes of a residue form must be distinct")
        kappa = doc.get("kappa")
        if kappa is not None and type(kappa) is not int:
            raise TypeError(f"kappa must be an integer, not {kappa!r}")
        return RationalMatrix2x2(kappa, tuple(nodes), tuple(left), tuple(right), tuple(constant))


class _NodeTable(NamedTuple):
    """What a residue form's node pass reads at its own nodes, apart from
    the parameter: ``residue_jets``' weights W_m (shape (JET_ORDERS, n, n),
    row i for the node x_i) and their moduli, |l_j| (2 x n) and the 1-norms
    of the rows r_j, which ``boundary.node_zero_test`` reads too."""

    weights: np.ndarray
    abs_weights: np.ndarray
    abs_left: np.ndarray
    right_sizes: np.ndarray


def _require_unit_constant(form: RationalMatrix2x2, what: str) -> None:
    """Raise ``ValueError`` naming the constant term of a residue form
    whose constant term is not I, which ``what`` assumes."""
    if form.constant != _IDENTITY:
        rows = ", ".join(f"[{', '.join(map(str, row))}]" for row in form.constant)
        raise ValueError(f"{what} needs the constant term I, not K = [{rows}]")


def _rank_one_factors(residue) -> tuple:
    """A column l and a row r with l r equal to a 2x2 matrix of rank one,
    pivoting on its entry of largest modulus."""
    a, b = max(((0, 0), (0, 1), (1, 0), (1, 1)), key=lambda ab: abs(residue[ab[0]][ab[1]]))
    pivot = residue[a][b]
    return (residue[0][b], residue[1][b]), (residue[a][0] / pivot, residue[a][1] / pivot)


def _residue_matrix_form(nodes, left_cols, right_rows, kappa) -> RationalMatrix2x2:
    """I_2 + sum_i (left col_i) (right row_i) / (z - x_i) as a residue form.

    The nodes whose rank-one residue vanishes (a zero left column or right
    row) are dropped; the rest are kept with their factors.
    """
    kept = [i for i, (l, r) in enumerate(zip(left_cols, right_rows)) if any(l) and any(r)]
    return RationalMatrix2x2(
        kappa=kappa,
        nodes=tuple(nodes[i] for i in kept),
        left=tuple(tuple(left_cols[i]) for i in kept),
        right=tuple(tuple(right_rows[i]) for i in kept),
    )


def build_theta(sys: PickSystem) -> RationalMatrix2x2:
    """Resolvent of an invertible Pick system in residue form.

    The system is frozen, so its resolvent is built once: later calls on the
    same system return the same object, with whatever it has cached.
    """
    theta = vars(sys).get("_theta")
    if theta is None:
        if not sys.invertible:
            raise SingularPickError("Pick matrix is singular; use the degenerate solver")
        left = [(sys.C[i], sys.E[i]) for i in range(sys.n)]
        right = [(sys.tilde_e[i], -sys.tilde_c[i]) for i in range(sys.n)]
        theta = _residue_matrix_form(list(sys.X), left, right, sys.kappa)
        vars(sys)["_theta"] = theta  # as functools.cached_property stores
    return theta


@dataclass(frozen=True)
class SolutionBundle:
    """Either the resolvent parameterization or the unique degenerate solution."""

    kind: str  # "parameterized" | "unique"
    kappa: int
    theta: RationalMatrix2x2 | None = None
    w: RationalFunction | None = None
    verification: dict | None = None

    def to_json(self) -> dict:
        """The ``solve`` document, which ``json.dumps`` writes as it is: a
        verification is written by ``solver._verification_json``."""
        doc = {"kind": self.kind, "kappa": self.kappa}
        if self.theta is not None:
            doc["theta"] = self.theta.to_json()
        if self.w is not None:
            doc["w"] = self.w.to_json()
        if self.verification is not None:
            from .solver import _verification_json

            doc["verification"] = _verification_json(self.verification)
        return doc


def solve(
    data: InterpolationData,
    rank_tol: float = RANK_TOL,
    config: GridConfig = DEFAULT_GRID,
    tol: float = VERIFY_TOL,
) -> SolutionBundle:
    """Full pipeline: build the system, branch on invertibility.

    Invertible P yields the resolvent whose transform parameterizes all
    solutions; singular P yields the unique closed-form solution together
    with a numerical verification report (boundary limits at every node,
    judged within ``tol``, and the sampled bordered-kernel count, which must
    equal kappa).  Only the singular branch loads the degenerate solver and
    its sampled certificates.
    """
    sys = build_system(data, rank_tol)
    if sys.invertible:
        return SolutionBundle(kind="parameterized", kappa=sys.kappa, theta=build_theta(sys))
    from .solver import solve_degenerate, verify_candidate

    w = solve_degenerate(sys)
    verification = verify_candidate(sys, w, tol=tol, config=config)
    return SolutionBundle(kind="unique", kappa=sys.kappa, w=w, verification=verification)


def theta_inverse(theta: RationalMatrix2x2) -> RationalMatrix2x2:
    """Inverse of a residue form with det == 1, such as a resolvent.

    The inverse is the adjugate.  The adjugate is linear on 2x2 matrices and
    maps the rank-one residue [a; b] [c, d] to [-d; c] [-b, a], so the
    inverse is again a residue form on the same nodes, with K = I.  So Theta
    must have the constant term I; any other is a ``ValueError`` that names
    it.
    """
    _require_unit_constant(theta, "the inverse of a residue form")
    left = [(-r[1], r[0]) for r in theta.right]
    right = [(-l[1], l[0]) for l in theta.left]
    return _residue_matrix_form(list(theta.nodes), left, right, theta.kappa)


def _expansion(form: RationalMatrix2x2, p: Polynomial, q: Polynomial, zeros=None) -> tuple:
    """(num, den) in canonical form of w = u_0 / u_1, u = form(z) (p; q):
    the one expansion of a realization, on both lanes, for any constant K.

    u = K v + sum_i l_i s_i / (z - x_i), s_i = r_i . v.  ``zeros`` flags the
    nodes with s_i(x_i) = 0 (``boundary._exact_node_zeros`` or, at
    JET_ZERO_TOL, ``node_zero_test`` when not given), where s_i / (z - x_i)
    is a polynomial; with D over the unflagged nodes, D u is a pair of node
    sums, D K v + sum_unflagged l_i s_i D / (z - x_i) + sum_flagged
    l_i (s_i / (z - x_i)) D.  An unflagged x_i shares no factor: both take
    l_i s_i(x_i) prod_{j != i} (x_i - x_j) there.  At a flagged node both
    are divided by z - x_i once more where both vanish there, and never
    twice: with x_i left out of D, z - x_i divides both at most once, for
    Theta phi (``transform.apply_lft``) and for the degenerate solution
    (``solver.solve_degenerate``), and no other common factor exists.  So a
    float value that reads small only by cancellation deflates nothing
    further.  The lanes differ only in scalar type and
    normal form: ``Fraction``s and the canonical integer form, or floats, a
    monic den and a value vanishing within JET_ZERO_TOL of the sum of the
    moduli of its terms.  A zero den raises ``DegenerateTransformError``.
    """
    from .boundary import JET_ZERO_TOL, _exact_node_zeros, node_zero_test

    exact = form.exact and p.exact and q.exact
    if zeros is None:
        zeros = _exact_node_zeros(form, p, q) if exact else node_zero_test(form, p, q)[0]
    tol = 0 if exact else JET_ZERO_TOL
    numerators, full = form._numerators(tuple(i for i, zero in enumerate(zeros) if not zero))
    (n00, n01), (n10, n11) = [[Polynomial(c) for c in row] for row in numerators]
    full = Polynomial(full)
    num, den = n00 * p + n01 * q, n10 * p + n11 * q
    flagged = [i for i, zero in enumerate(zeros) if zero]
    for i in flagged:
        (a, b), (c, d) = form.left[i], form.right[i]
        # l_i (s_i / (z - x_i)) D, s_i = r_i . v
        term = Polynomial(_deflate((p.scale(c) + q.scale(d)).coeffs, form.nodes[i])) * full
        num, den = num + term.scale(a), den + term.scale(b)
    if den.is_zero:
        raise DegenerateTransformError(_DEGENERATE)
    for x in (form.nodes[i] for i in flagged):
        if _vanishes(num, x, tol) and _vanishes(den, x, tol):
            num, den = Polynomial(_deflate(num.coeffs, x)), Polynomial(_deflate(den.coeffs, x))
    if exact:
        return _integer_form(num.coeffs, den.coeffs)
    return _float_normal_form(num, den)


def _vanishes(f: Polynomial, x, tol) -> bool:
    """f(x) = 0: exactly where ``tol`` is 0, and otherwise |f(x)| within
    ``tol`` times the sum of the moduli of its terms."""
    value = scale = 0
    for c in reversed(f.coeffs):
        value = value * x + c
        scale = scale * abs(x) + abs(c)
    return abs(value) <= tol * scale


@dataclass(frozen=True)
class JUnitarityReport:
    """Outcome of the J-unitarity certificate Theta(x) J Theta(x)* = J.

    ``worst_scale`` is max|Theta(x)|^2 at ``worst_point``, the sample with
    the largest residual; rounding alone leaves about eps * worst_scale.
    """

    symbolic_zero: bool | None
    max_residual: float
    samples_used: int
    skipped: tuple = ()
    worst_point: float | None = None
    worst_scale: float = 0.0


def _symbolic_j_unitary(theta: RationalMatrix2x2) -> bool:
    """Theta(z) J Theta(z)^T == J as the identity det Theta == 1, tested at
    the residues.

    Near the node x_i, Theta = A_i / (z - x_i) + H_i(z) with
    A_i = [a; b] [c, d] and H_i analytic at x_i.  Because det A_i = 0 and
    adj A_i = [d; -c] [b, -a],

        det Theta = det H_i + [b, -a] H_i(z) [d; -c] / (z - x_i),

    so det Theta has at most simple poles, with residue
    [b, -a] H_i(x_i) [d; -c] at x_i, where
    H_i(x_i) = I + sum_{j != i} l_j r_j / (x_i - x_j).  As Theta(oo) = I,
    det Theta - 1 vanishes at infinity, and it is identically zero exactly
    when every such residue is: O(n^2) exact scalar operations, with no
    entry expanded.  For real-coefficient entries this is the real-line
    J-unitarity statement continued off the axis.
    """
    return all(not residue for residue in _det_residues(theta))


def _det_residues(theta: RationalMatrix2x2) -> list:
    """The residues of det Theta at the nodes of a residue form, each up to
    a nonzero factor.

    With x = X / N, l = A / L and r = B / R cleared to integers, L^2 R^2
    times the residue at x_i is L R (A_i . B_i) + N sum_{j != i} u_ij v_ij
    / (X_i - X_j), with u_ij = [b_i, -a_i] . A_j and v_ij = B_j . [d_i; -c_i];
    the sum is kept as one integer fraction num / den, and L R (A_i . B_i)
    den + N num is returned, in Python ints with no gcd.
    """
    n = len(theta.nodes)
    xs, big_n = _cleared_integers(theta.nodes)
    lefts, big_l = _cleared_integers([v for col in theta.left for v in col])
    rights, big_r = _cleared_integers([v for row in theta.right for v in row])
    residues = []
    for i in range(n):
        a, b, c, d = lefts[2 * i], lefts[2 * i + 1], rights[2 * i], rights[2 * i + 1]
        num, den = 0, 1
        for j in range(n):
            if j != i:
                gap = xs[i] - xs[j]
                u = b * lefts[2 * j] - a * lefts[2 * j + 1]
                v = rights[2 * j] * d - rights[2 * j + 1] * c
                num, den = num * gap + u * v * den, den * gap
        residues.append(big_l * big_r * (a * c + b * d) * den + big_n * num)
    return residues


# A real sample point within J_POLE_SKIP of a pole is skipped.  At a distance
# d from a node x_i, |Theta| is about |l_i| |r_i| / d, and the residual of a
# correct Theta is rounding, about eps |Theta|^2 with eps = 2.2e-16: at
# d = 1e-9 that is 220 |l_i r_i|^2, beyond any tolerance the report is read
# against, so a sample that close shows only where it was placed.  The
# default points lo + (hi - lo) k / 99 meet a node in exact arithmetic when
# the node lies on their lattice, and then miss it in floats by a few ulps
# (an ulp is 3.6e-15 at |x| = 16), which 1e-9 skips with six orders of
# margin.
J_POLE_SKIP = 1e-9


def check_j_unitarity(theta: RationalMatrix2x2, sample_points=None) -> JUnitarityReport:
    """Certify J-unitarity symbolically (exact entries) and by sampling.

    The symbolic part checks det Theta == 1, which holds exactly when
    Theta J Theta^T == J (see the module docstring), from the residues; it
    builds no rational function and takes no gcd.  The sampled
    part reports the largest entry of Theta(x) J Theta(x)* - J over real
    points, 100 of them spread evenly over the poles' span widened by 1.5
    on each side by default (built as one array), with the point where it
    is largest and the scale |Theta|^2 there.  Real sample points within
    J_POLE_SKIP of a pole are skipped and reported; the others are
    evaluated in one batch.  ``poles`` and ``eval`` read the same float
    nodes, so no point that is kept is a pole.  The symbolic part reads
    det Theta(oo) = 1, so it is None for a float matrix and for a constant
    term other than I, whose residual is only sampled.
    """
    import numpy as np

    symbolic = (_symbolic_j_unitary(theta) if theta.exact and theta.constant == _IDENTITY
                else None)
    if sample_points is None:
        lo = min(theta.poles, default=0.0) - 1.5
        hi = max(theta.poles, default=0.0) + 1.5
        xs = lo + (hi - lo) * np.arange(100) / 99.0
    else:
        xs = np.array([float(x) for x in sample_points], dtype=float)
    poles = np.array(theta.poles, dtype=float)
    used = np.flatnonzero(~(np.abs(xs[:, np.newaxis] - poles) < J_POLE_SKIP).any(axis=1))
    if used.size:
        values = theta.eval(xs[used].astype(complex))
    skipped = np.ones(len(xs), dtype=bool)
    skipped[used] = False
    worst, worst_point, worst_scale = 0.0, None, 0.0
    if used.size:
        j = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        residuals = np.abs(values @ j @ values.conj().transpose(0, 2, 1) - j).max(axis=(1, 2))
        k = int(np.argmax(residuals))
        worst, worst_point = float(residuals[k]), float(xs[used[k]])
        worst_scale = float(np.abs(values[k]).max()) ** 2
    return JUnitarityReport(
        symbolic_zero=symbolic,
        max_residual=worst,
        samples_used=int(used.size),
        skipped=tuple(float(x) for x in xs[skipped]),
        worst_point=worst_point,
        worst_scale=worst_scale,
    )


def kernel_theta_sample(sys: PickSystem, points, values) -> np.ndarray:
    """Sampled Hermitian kernel (J - Theta(z) J Theta(w)*) / (-i (z - conj(w))).

    ``values`` holds Theta at the m ``points``, shape (m, 2, 2), as its grid
    table keeps them.  The kernel is cross-checked against the state-space
    form [C; E](zI-X)^(-1) P^(-1) (conj(w) I - X)^(-1) [C* E*].  Both
    2m x 2m matrices are built from stacks: the m values of Theta, and the
    2 x n blocks [C; E](z I - X)^(-1) of all points.
    """
    import numpy as np

    j = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    z = np.asarray(points, dtype=complex).reshape(-1)
    m = len(z)
    rows = (values @ j).reshape(2 * m, 2)
    cols = values.reshape(2 * m, 2).conj().T
    gaps = np.repeat(np.repeat(-1j * (z[:, np.newaxis] - z.conj()), 2, axis=0), 2, axis=1)
    direct = (np.tile(j, (m, m)) - rows @ cols) / gaps

    x, c, e = (np.array(v, dtype=float) for v in (sys.X, sys.C, sys.E))
    resolvent = 1.0 / (z[:, np.newaxis] - x)
    state = np.stack([c * resolvent, e * resolvent], axis=1).reshape(2 * m, -1)
    p_inv = np.array(sys.p_inv, dtype=float)
    realized = state @ p_inv @ state.conj().T

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
    node span, from Theta's grid table for that span and config: the same
    points and values of Theta that the certify count of every parameter
    reads (``_sections.pole_free_grid``), evaluated once per Theta.  The
    count is the number of eigenvalues of the whole sampled 2m x 2m kernel
    below -config.eig_tol * max(1, max|lambda|).  By Cauchy interlacing no
    subset of the sample points shows more negative eigenvalues, and the
    kernel's negative squares (kappa for the resolvent of an invertible Pick
    system) are at least this many.

    The grid is taken as it is: Theta's poles are the real nodes, and every
    grid line lies above the real axis, as a ``GridConfig`` holds only
    positive levels.
    """
    points, values = theta._grid_table(sys.floats.span, config)
    return negative_count(kernel_theta_sample(sys, points, values), config.eig_tol)


def factorize(sys: PickSystem, k: int, order=None):
    """Split the resolvent across a leading k x k block of P.

    ``order`` optionally permutes the nodes first (the resolvent itself is
    permutation invariant, but the split blocks are not).  Returns
    (Theta1, Theta2): Theta1 is the resolvent of the data on the first k
    nodes, whose block of P must be invertible, and Theta2 = Theta1^(-1)
    Theta has poles only at the other nodes x_j, with residue
    Theta1^(-1)(x_j) [C_j; E_j] [te_j, -tc_j], where Theta1^(-1) is Theta1's
    adjugate.  By Haynsworth's inertia additivity the negative squares of
    the Schur complement, and so of Theta2, are kappa minus those of Theta1.
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

    data, ell = sys.data, sys.ell
    head = sorted(order[:k], key=lambda i: i >= ell)
    sub_data = InterpolationData(
        nodes=tuple(data.nodes[i] for i in head),
        values=tuple(data.values[i] for i in head if i < ell),
        derivative_bounds=tuple(data.derivative_bounds[i] for i in head if i < ell),
        residues=tuple(data.residues[i - ell] for i in head if i >= ell),
    )
    try:
        sub = build_system(sub_data, sys.rank_tol)
        if not sub.invertible:
            raise SplitNotAdmissibleError(f"leading {k}x{k} block of P is singular")
        theta1 = build_theta(sub)
    except SingularMatrixError as exc:
        raise SplitNotAdmissibleError(str(exc)) from exc

    inverse = theta_inverse(theta1)
    tail = order[k:]
    theta2 = _residue_matrix_form(
        [sys.X[j] for j in tail],
        [inverse._column_at((sys.C[j], sys.E[j]), sys.X[j]) for j in tail],
        [(sys.tilde_e[j], -sys.tilde_c[j]) for j in tail],
        sys.kappa - sub.kappa,
    )
    return theta1, theta2

"""Interpolation data and the structured Pick system built from it.

The data set prescribes, at distinct real nodes, either a target value and a
derivative bound (regular nodes) or a residue (singular nodes).  The
associated Pick matrix P collects divided differences, derivative bounds and
residues in a fixed block layout with the regular nodes first; together with
the node diagonal X and the rows E and C it satisfies the Lyapunov identity

    P X - X P = E* C - C* E

exactly on the exact backend.  The count of negative eigenvalues of P is the
index of the generalized Nevanlinna class in which solutions live.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .algebra import (
    RANK_TOL,
    HermitianMatrix,
    Inertia,
    _conditioned_inverse,
    _spectral_inertia,
    scalar_from_json,
    scalar_to_json,
    symmetric_elimination,
)
from .errors import FloatRangeError, InvalidDataError


class _Infinity:
    """Tagged extended-real infinity; deliberately not a float."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


def is_infinite(value) -> bool:
    return value is INFINITY


def _real_scalars(values, to_float: bool, name: str) -> tuple:
    """The entries of the data field ``name`` as Fractions, or as floats
    where ``to_float``; an exact entry beyond the float range that is to be
    a float is an ``InvalidDataError`` that names it, ``name[k]``."""
    out = []
    for k, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise InvalidDataError(f"expected a real number, got {value!r}")
        if not to_float:
            out.append(Fraction(value) if not isinstance(value, float) else value)
            continue
        try:
            out.append(float(value))
        except OverflowError:
            bits = abs(value.numerator).bit_length() - value.denominator.bit_length()
            raise InvalidDataError(f"{name}[{k}], of about 2^{bits}, exceeds the float range "
                                   "of float data") from None
    return tuple(out)


@dataclass(frozen=True)
class InterpolationData:
    """Nodes with targets, derivative bounds and residues, regular first.

    ``nodes`` holds all n nodes with the ``ell`` regular ones leading;
    ``values`` and ``derivative_bounds`` have length ell, ``residues`` length
    n - ell.  Exact (Fraction) and float data never mix: one float anywhere
    switches the whole instance to the float backend.
    """

    nodes: tuple
    values: tuple
    derivative_bounds: tuple
    residues: tuple

    def __post_init__(self):
        raw = (
            list(self.nodes)
            + list(self.values)
            + list(self.derivative_bounds)
            + list(self.residues)
        )
        to_float = any(isinstance(v, float) for v in raw)
        for f in fields(self):
            object.__setattr__(self, f.name, _real_scalars(getattr(self, f.name), to_float, f.name))
        if len(self.values) != len(self.derivative_bounds):
            raise InvalidDataError("values and derivative bounds must pair up")
        if len(self.values) + len(self.residues) != len(self.nodes):
            raise InvalidDataError("node count must equal regular + singular count")
        if len(set(self.nodes)) != len(self.nodes):
            raise InvalidDataError("interpolation nodes must be pairwise distinct")
        if any(not xi for xi in self.residues):
            raise InvalidDataError("residues must be nonzero")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def ell(self) -> int:
        return len(self.values)

    @property
    def exact(self) -> bool:
        return not any(isinstance(v, float) for v in self.nodes)

    def is_regular(self, i: int) -> bool:
        return i < self.ell

    @staticmethod
    def from_json(obj) -> "InterpolationData":
        for key in ("regular", "singular", "nodes"):
            if not isinstance(obj.get(key, []), list):
                raise InvalidDataError(f"problem '{key}' must be a list")
        try:
            regular = obj.get("regular", [])
            singular = obj.get("singular", [])
            nodes = [scalar_from_json(r["x"]) for r in regular]
            nodes += [scalar_from_json(s["x"]) for s in singular]
            values = [scalar_from_json(r["w"]) for r in regular]
            bounds = [scalar_from_json(r["gamma"]) for r in regular]
            residues = [scalar_from_json(s["xi"]) for s in singular]
            listed = [scalar_from_json(x) for x in obj.get("nodes", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"malformed problem document: {exc}") from exc
        if "nodes" in obj:
            if sorted(listed) != sorted(nodes):
                raise InvalidDataError("'nodes' does not match regular/singular entries")
        return InterpolationData(
            nodes=tuple(nodes),
            values=tuple(values),
            derivative_bounds=tuple(bounds),
            residues=tuple(residues),
        )

    def to_json(self) -> dict:
        return {
            "regular": [
                {
                    "x": scalar_to_json(self.nodes[i]),
                    "w": scalar_to_json(self.values[i]),
                    "gamma": scalar_to_json(self.derivative_bounds[i]),
                }
                for i in range(self.ell)
            ],
            "singular": [
                {
                    "x": scalar_to_json(self.nodes[self.ell + k]),
                    "xi": scalar_to_json(self.residues[k]),
                }
                for k in range(self.n - self.ell)
            ],
        }


def build_pick(data: InterpolationData) -> HermitianMatrix:
    """Pick matrix of the data: divided differences over the regular block,
    coupling entries xi_j / (x_j - x_i), and -xi on the singular diagonal.

    The float lane builds it as one array, each entry by the same IEEE
    operations as the exact lane's formulas (so 0 * xi_k is -0.0 for a
    negative residue); an entry or a node difference x_j - x_i beyond the
    float range raises ``FloatRangeError``."""
    n, ell = data.n, data.ell
    x, w, gamma, xi = data.nodes, data.values, data.derivative_bounds, data.residues
    if not data.exact:
        import numpy as np

        x, w, xi = (np.array(v, dtype=float) for v in (x, w, xi))
        rows = np.empty((n, n))
        # the regular diagonal's 0/0 is overwritten below; off it, numpy
        # overflows to inf as quietly as Python floats do, which is checked
        with np.errstate(all="ignore"):
            gaps = x - x[:, None]
            rows[:ell, :ell] = (w - w[:, None]) / gaps[:ell, :ell]
            rows[:ell, ell:] = xi / gaps[:ell, ell:]
        rows[ell:, :ell] = rows[:ell, ell:].T
        rows[ell:, ell:] = 0.0 * xi[:, None]
        diagonal = np.arange(n)
        rows[diagonal, diagonal] = np.concatenate([np.array(gamma, dtype=float), -xi])
        if not (np.isfinite(rows).all() and np.isfinite(gaps).all()):
            raise FloatRangeError("an entry of the Pick matrix or a node difference "
                                  "exceeds the float range")
        return HermitianMatrix(rows)
    rows = [[None] * n for _ in range(n)]
    for i in range(ell):
        for j in range(ell):
            rows[i][j] = gamma[i] if i == j else (w[j] - w[i]) / (x[j] - x[i])
    for i in range(ell):
        for k in range(n - ell):
            j = ell + k
            val = xi[k] / (x[j] - x[i])
            rows[i][j] = val
            rows[j][i] = val
    for k in range(n - ell):
        for m in range(n - ell):
            rows[ell + k][ell + m] = -xi[k] if k == m else 0 * xi[k]
    return HermitianMatrix(rows)


@dataclass(frozen=True)
class PickSystem:
    """Pick matrix with its companion matrices and derived quantities.

    The derived block (inverse, tilde rows, eta, diagonal of the inverse) is
    present exactly when P is invertible at the declared rank tolerance; a
    singular P is a legitimate state handled by the degenerate solver, and
    ``kernel`` holds a basis of ker P, ``inertia.zeros`` vectors taken from
    the decomposition that counted the inertia (``()`` for an invertible P).
    """

    data: InterpolationData
    P: HermitianMatrix
    X: tuple
    E: tuple
    C: tuple
    inertia: Inertia
    kappa: int
    rank_tol: float
    kernel: tuple = ()
    p_inv: tuple | None = None
    tilde_e: tuple | None = None
    tilde_c: tuple | None = None
    eta: tuple | None = None
    tilde_p_diag: tuple | None = None

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def ell(self) -> int:
        return self.data.ell

    @property
    def exact(self) -> bool:
        return self.data.exact

    @property
    def invertible(self) -> bool:
        return self.inertia.zeros == 0

    @cached_property
    def floats(self) -> "SystemFloats":
        """The span of the nodes, the node data and eta as floats, converted
        once per system: every certify op of the system reads them, and the
        ``float`` of a ``Fraction`` goes through the ``numbers`` ABCs."""
        from ._sections import span_of

        data = self.data
        targets = [*zip(map(float, data.values), map(float, data.derivative_bounds)),
                   *((float(xi),) for xi in data.residues)]
        eta = tuple(None if is_infinite(v) else float(v) for v in self.eta or ())
        return SystemFloats(span_of(self.X), tuple(targets), eta)


class SystemFloats(NamedTuple):
    """``PickSystem.floats``: ``_sections.span_of`` the nodes, each node's
    data ((w_i, gamma_i) at a regular node, (xi_i,) at a singular one) and
    each eta_i (None where infinite; none for a singular P), as floats."""

    span: tuple
    data: tuple
    eta: tuple


# An entry y_i of a float kernel vector is 0 when |y_i| <= KERNEL_ENTRY_FACTOR
# eps (s_max / s_gap) max|y|, s_gap the least singular value kept out of the
# kernel: the SVD is backward stable, so its kernel vectors err by about
# eps s_max / s_gap (Davis and Kahan), and a rounding residue kept as y_i
# would give the degenerate solution the datum C_i / E_i as its limit at x_i.
# On nodes (0, 1, 2), values (3, 3, 5), bounds (0, 0, 1), with unique
# solution 3 and kernel (-2, 1, 0), the SVD vector ends in -2.1e-17 and w(2)
# read 5; on nodes clustered at spacing 1e-9 to 1e-5 the residues read 0.02
# to 0.2 of eps s_max / s_gap max|y|.  10 leaves a margin of 50 over them,
# and an entry below the cut is within ten times the SVD's error, not told
# from rounding.
KERNEL_ENTRY_FACTOR = 10


def build_system(data: InterpolationData, rank_tol: float = RANK_TOL) -> PickSystem:
    """Assemble P, X, E, C and, when P is invertible, the derived block;
    when it is singular, ker P.

    On the exact lane one ``symmetric_elimination`` of [P | I | E^T | C^T]
    gives the inertia and, when P is invertible, P^(-1) with the rows
    E P^(-1) and C P^(-1) as its last two columns (P is symmetric), or else
    its kernel basis.  The float lane counts the spectrum and inverts with
    numpy, on P's one array: one ``eigvalsh`` gives the inertia (the rule of
    ``hermitian_inertia``) and the conditioning gate (the singular values
    of a Hermitian matrix are its |lambda|), then one ``np.linalg.inv``.
    A singular float P's kernel is its right singular vectors at its
    ``inertia.zeros`` least singular values, with every entry within the
    SVD's error of 0 (KERNEL_ENTRY_FACTOR) set to 0.
    """
    P = build_pick(data)
    n, ell = data.n, data.ell
    one = Fraction(1) if data.exact else 1.0
    zero = Fraction(0) if data.exact else 0.0
    E = tuple(one if i < ell else zero for i in range(n))
    C = tuple(data.values[i] if i < ell else data.residues[i - ell] for i in range(n))
    p_inv, kernel = None, ()
    if data.exact:
        rhs = [[int(i == j) for j in range(n)] + [E[i], C[i]] for i in range(n)]
        elimination = symmetric_elimination(P.rows, rhs)
        inertia = elimination.inertia
        if elimination.solution is not None:
            p_inv = tuple(tuple(row[:n]) for row in elimination.solution)
            tilde_e = tuple(row[n] for row in elimination.solution)
            tilde_c = tuple(row[n + 1] for row in elimination.solution)
        kernel = tuple(map(tuple, elimination.kernel))
    else:
        import numpy as np

        array = P.to_numpy()
        eigs = np.linalg.eigvalsh(array)
        inertia = _spectral_inertia(eigs, rank_tol)
        if inertia.zeros == 0:
            inverse = _conditioned_inverse(array, abs(eigs)).real
            p_inv = tuple(map(tuple, inverse.tolist()))
            # E P^(-1) and C P^(-1) summed row by row from +0.0, in order.
            # Rows off E's support add +-0.0 to E P^(-1), which changes no
            # sum that starts at +0.0
            terms = np.zeros((2, n + 1, n))
            terms[:, 1:] = np.array([E, C])[:, :, None] * inverse
            tilde_e, tilde_c = map(tuple, np.add.accumulate(terms, axis=1)[:, -1].tolist())
        else:
            _, s, vh = np.linalg.svd(array.real)
            kept = n - inertia.zeros  # s_gap = s[kept - 1]
            cut = KERNEL_ENTRY_FACTOR * np.finfo(float).eps * (s[0] / s[kept - 1] if kept else 1.0)
            kernel = tuple(tuple(np.where(np.abs(v) <= cut * np.abs(v).max(), 0.0, v).tolist())
                           for v in vh[kept:])
    system = dict(
        data=data,
        P=P,
        X=tuple(data.nodes),
        E=E,
        C=C,
        inertia=inertia,
        kappa=inertia.negatives,
        rank_tol=rank_tol,
        kernel=kernel,
    )
    if p_inv is not None:
        eta = tuple(
            (tilde_c[i] / tilde_e[i]) if tilde_e[i] else INFINITY for i in range(n)
        )
        system.update(
            p_inv=p_inv,
            tilde_e=tilde_e,
            tilde_c=tilde_c,
            eta=eta,
            tilde_p_diag=tuple(p_inv[i][i] for i in range(n)),
        )
    return PickSystem(**system)


@dataclass(frozen=True)
class LyapunovReport:
    """Entrywise residual of P X - X P - (E* C - C* E)."""

    max_abs: object
    location: tuple | None
    is_zero: bool
    exact: bool

    def to_json(self):
        return {
            "max_abs": scalar_to_json(self.max_abs),
            "location": list(self.location) if self.location else None,
            "is_zero": self.is_zero,
        }


def check_lyapunov(sys: PickSystem) -> LyapunovReport:
    """Residual of the Lyapunov identity; exact zero on the exact backend.

    The worst entry is the first largest in row-major order.  The float
    lane computes every entry in one array expression.  The exact residual
    is antisymmetric with a zero diagonal (P is symmetric), and (i, j) comes
    before (j, i) in row-major order, so the exact lane visits i < j only.
    """
    n = sys.n
    x, e, c = sys.X, sys.E, sys.C
    if sys.exact:
        rows = sys.P.rows
        worst, location = (Fraction(0) if n else 0), None
        for i in range(n):
            for j in range(i + 1, n):
                res = rows[i][j].real * (x[j] - x[i]) - (e[i] * c[j] - c[i] * e[j])
                mag = abs(res)
                if mag > worst:
                    worst, location = mag, (i, j)
    else:
        import numpy as np

        x, e, c = (np.array(v, dtype=float) for v in (x, e, c))
        res = sys.P.to_numpy().real * (x - x[:, None]) - (e[:, None] * c - c[:, None] * e)
        mag = abs(res)
        k = int(mag.argmax())
        worst, location = float(mag.flat[k]), divmod(k, n)
    is_zero = not worst
    return LyapunovReport(
        max_abs=worst,
        location=location if not is_zero else None,
        is_zero=is_zero,
        exact=sys.exact,
    )

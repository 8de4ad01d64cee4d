"""Scalar, polynomial, rational-function and small Hermitian-matrix arithmetic.

Two numeric backends coexist.  The exact backend carries real
arbitrary-precision rationals: ``int`` and ``fractions.Fraction`` values,
which every polynomial holds as ``Fraction`` coefficients.  Every exact datum
of the boundary problem is real, so arithmetic on them is closed, associative
and free of rounding, and golden results compare by exact equality.  An
exact matrix is real symmetric, and its inertia, its inverse or solution
against right-hand sides, and its kernel come from one fraction-free
elimination, ``symmetric_elimination``.  The float backend carries ordinary
``complex`` / ``float`` values and is used for float boundary jets, kernel
sampling and any data that is not rational to begin with.  Mixing the
two promotes to float.

Infinity is never a scalar here: extended values live at the parameter and
limit-estimate level of the higher modules.
"""

from __future__ import annotations

import abc
import math
import numbers
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import FloatRangeError, PoleError, SingularMatrixError

if TYPE_CHECKING:
    import numpy as np


class _Inexact(abc.ABC):
    """The number types of the float lane besides float and complex: a
    ``numbers.Complex`` that is not a ``numbers.Rational``, such as numpy's
    float32 or complex64, recognised without importing numpy."""

    @classmethod
    def __subclasshook__(cls, sub):
        return issubclass(sub, numbers.Complex) and not issubclass(sub, numbers.Rational)


# float and complex come first, so that the common checks never reach the ABC
_FLOAT_TYPES = (float, complex, _Inexact)


# Tolerances of the float lane (the exact lane never uses any).
POLE_TOL = 1e-13         # |den(z)| below this scale counts as a pole
HERMITIAN_TOL = 1e-12    # relative Hermitian-symmetry slack
RCOND_MIN = 1e-14        # reciprocal condition number cutoff for inversion
TRIM_TOL = 1e-12         # relative size under which float coefficients vanish
# Default rank_tol: |lambda| <= RANK_TOL max(1, spectral radius) is zero, as
# eigvalsh errs by about n u times the radius, below 1e-13 here.
RANK_TOL = 1e-9
# |Im| <= SCALAR_IMAG_TOL max(1, |z|) is complex arithmetic's residue on real
# data, dropped in JSON; a larger imaginary part raises.
SCALAR_IMAG_TOL = 1e-9


class GaussianRational(Fraction):
    """A ``Fraction`` that also answers ``re`` (itself) and ``im`` (zero): the
    type of the entries of an exact ``HermitianMatrix`` and of nothing else.

    The benchmark harness reads ``.re`` on the entries of an exact P
    (``perfbench/gen.py:68``) and names this class (``perfbench/gen.py:182``,
    ``perfbench/layers.py:88``).  ROADMAP item 6's benchmark change reads
    those values as ``Fraction(v)``, and then this class and its one use go.
    Arithmetic on it gives plain ``Fraction`` values.
    """

    __slots__ = ()

    @property
    def re(self) -> Fraction:
        return self

    @property
    def im(self) -> int:
        return 0


def is_exact(value) -> bool:
    """True when ``value`` belongs to the exact backend."""
    return isinstance(value, (int, Fraction))


def scalar_from_json(value):
    """Parse a JSON number: int / 'p/q' stay exact, floats go to the float lane.

    Anything else, a string with a zero denominator or a non-finite float
    (JSON's ``NaN`` and ``Infinity``) included, is a ``TypeError`` or
    ``ValueError`` that quotes the value.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r}")
        return value
    raise TypeError(f"cannot parse scalar from {value!r}")


def scalar_to_json(value):
    """Serialize an exact or float scalar: ints as ints, fractions as 'p/q'."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, int):
        return value
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        value = complex(value)
        if abs(value.imag) > SCALAR_IMAG_TOL * max(1.0, abs(value)):
            raise TypeError("complex float scalars have no JSON form")
        return float(value.real)
    return float(value)


class Polynomial:
    """Dense univariate polynomial with ascending coefficients.

    The zero polynomial has an empty coefficient list and degree ``-1``.
    A polynomial is either fully exact (``Fraction`` coefficients) or fully
    float (complex); mixing promotes everything to complex.
    """

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs=()):
        canon = []
        exact = True
        rational = False  # some coefficient was taken as a Fraction
        for c in coeffs:
            # the exact types first: isinstance on Fraction or _Inexact goes
            # through the numbers ABCs, which cost most of a float product
            kind = type(c)
            if kind is complex:
                canon.append(c)
                exact = False
            elif kind is float:
                canon.append(complex(c))
                exact = False
            elif kind is Fraction:
                canon.append(c)
                rational = True
            elif isinstance(c, (int, Fraction, str)):
                canon.append(Fraction(c))
                rational = True
            elif isinstance(c, _FLOAT_TYPES):
                canon.append(complex(c))
                exact = False
            else:
                raise TypeError(f"bad coefficient {c!r}")
        if not exact:
            if rational:
                canon = [complex(c) for c in canon]
            tol = TRIM_TOL * max(map(abs, canon))
            canon = [0.0 if abs(c) <= tol else c for c in canon]
        while canon and not canon[-1]:
            canon.pop()
        object.__setattr__(self, "coeffs", tuple(canon))
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial((c,))

    @staticmethod
    def from_real_roots(roots, lead=1) -> "Polynomial":
        p = Polynomial.constant(lead)
        for r in roots:
            p = p * Polynomial((-r, 1))
        return p

    # -- queries ------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_real(self) -> bool:
        if self.exact:
            return True
        tol = TRIM_TOL * max(1.0, max(map(abs, self.coeffs), default=0.0))
        return all(abs(c.imag) <= tol for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            negative = c < 0 if self.exact else c.imag == 0 and c.real < 0
            mag = -c if negative else c
            if isinstance(mag, complex) and mag.imag == 0:
                mag = mag.real
            if k == 0:
                body = f"{mag}"
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        if self.is_zero or other.is_zero:
            return Polynomial(())
        left, right = self.coeffs, other.coeffs
        # a product across lanes is complex: convert the exact factor once,
        # as Fraction's operators would at every product (through the ABCs)
        if self.exact and not other.exact:
            left = [complex(c) for c in left]
        elif other.exact and not self.exact:
            right = [complex(c) for c in right]
        out = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "Polynomial":
        return Polynomial([c * factor for c in self.coeffs])

    def divmod(self, other: "Polynomial"):
        """Euclidean division; coefficients live in a field on both lanes."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d) and any(bool(c) for c in rem):
            # strip a numerically dead leading term before dividing by it
            if not rem[-1]:
                rem.pop()
                continue
            k = len(rem) - len(d)
            q = rem[-1] / d[-1]
            quo[k] = q
            for i, c in enumerate(d):
                rem[k + i] = rem[k + i] - q * c
            rem.pop()
        return Polynomial(quo), Polynomial(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.lead)

    def derivative(self) -> "Polynomial":
        return Polynomial([c * k for k, c in enumerate(self.coeffs)][1:])

    def eval(self, z):
        """Horner evaluation; exact when both operands are exact."""
        acc = 0 if (self.exact and is_exact(z)) else 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    __call__ = eval

    def to_complex_array(self) -> np.ndarray:
        import numpy as np

        return np.array([complex(c) for c in self.coeffs], dtype=complex)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd on the exact lane via the Euclidean algorithm."""
    if not (a.exact and b.exact):
        raise TypeError("exact gcd requires exact polynomials")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def _float_normal_form(num: Polynomial, den: Polynomial) -> tuple:
    """A float quotient in canonical form, with no cancellation: both divided
    by den's leading coefficient, and real where both are; zero is 0/1."""
    if num.is_zero:
        return num, Polynomial((1.0,))
    inv = 1.0 / complex(den.lead)
    num, den = num.scale(inv), den.scale(inv)
    if num.is_real() and den.is_real():
        num = Polynomial([c.real for c in num.coeffs])
        den = Polynomial([c.real for c in den.coeffs])
    return num, den


class RationalFunction:
    """Quotient of two polynomials, normalized to a canonical form.

    On the exact lane canonical means: numerator and denominator are
    coprime (``polynomial_gcd``), with coprime integer coefficients and a
    positive leading denominator coefficient -- this reproduces textbook
    displays like (2z+1)/(2z-1) verbatim.  A float quotient is kept as built,
    with no cancellation: both polynomials are divided by the denominator's
    leading coefficient, so the denominator is monic, and made real where
    both are real (``_float_normal_form``).  The one float function whose
    common factors matter, w, is cancelled at its realization's nodes when
    its numerator and denominator are formed (``resolvent._expansion``).

    A w built by ``transform.apply_lft``, or a float degenerate solution,
    keeps the realization (Theta, phi) it came from as ``_origin`` (None for
    every other function), w = u_0 / u_1 for u = Theta (p; q), and nothing
    else: its jets (each read takes w's whole node pass), grid values,
    values at float points and, on the float lane, document (``to_json``)
    are read from the origin.
    Its numerator and denominator are formed from it when first read
    (``__getattr__``), so a certify op, which reads neither, forms none.
    The origin is not part of the value: ``==``, ``hash`` and ``str`` read
    the canonical numerator and denominator, and arithmetic on w gives a
    function without one.  A float w's expansion is unreliable from n of
    about 16, which is why no certificate and no document reads it.
    """

    __slots__ = ("num", "den", "exact", "_origin")

    def __init__(self, num, den=Polynomial((1,)), reduce=True):
        if not isinstance(num, Polynomial):
            num = Polynomial(num)
        if not isinstance(den, Polynomial):
            den = Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        exact = num.exact and den.exact
        # a float Polynomial is already in this form: the conversion is idempotent
        if not exact and num.exact:
            num = Polynomial(num.to_complex_array())
        if not exact and den.exact:
            den = Polynomial(den.to_complex_array())
        if reduce:
            num, den = self._reduce(num, den, exact)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_origin", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __getattr__(self, name):
        """num and den of a w with an origin that left them unset, formed
        from the origin by ``resolvent._expansion`` on the first read of
        either: Python calls this only where a lookup fails, so no other
        function pays for it.  The expansion is deterministic, so it is the
        one the transform would have formed."""
        if name not in ("num", "den") or self._origin is None:
            raise AttributeError(f"'RationalFunction' object has no attribute {name!r}")
        from .resolvent import _expansion

        theta, phi = self._origin
        num, den = _expansion(theta, *phi.pair())
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return num if name == "num" else den

    @staticmethod
    def _reduce(num, den, exact):
        if exact:
            if num.degree >= 1 and den.degree >= 1:
                g = polynomial_gcd(num, den)
                if g.degree >= 1:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
            return _integer_form(num.coeffs, den.coeffs)
        return _float_normal_form(num, den)

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(c) -> "RationalFunction":
        # a float c / 1 is already canonical; an exact one takes integer form
        return RationalFunction(Polynomial((c,)), reduce=not isinstance(c, _FLOAT_TYPES))

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x())

    @staticmethod
    def from_json(obj) -> "RationalFunction":
        num = [scalar_from_json(c) for c in obj["num"]]
        den = [scalar_from_json(c) for c in obj["den"]]
        return RationalFunction(Polynomial(num), Polynomial(den))

    def to_json(self) -> dict:
        """{"num": [...], "den": [...]}, ascending; a float function with an
        origin is written as it, {"theta": <residue form>, "phi": <phi>}."""
        if self._origin is not None and not self.exact:
            theta, phi = self._origin
            return {"theta": theta.residue_json(), "phi": phi.to_json()}

        def dump(p):
            return [scalar_to_json(c) for c in p.coeffs]

        return {"num": dump(self.num), "den": dump(self.den)}

    # -- queries ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_real(self) -> bool:
        return self.num.is_real() and self.den.is_real()

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.degree == 0 and self.den.eval(0) == 1:
            return str(self.num) if self.num.degree < 1 else f"{self.num}"
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction.constant(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if self.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction.constant(other) / self

    def eval(self, z):
        """Evaluate at z, raising ``PoleError`` on (near-)pole hits.

        Exact entries at an exact point give an exact value.  Otherwise a w
        with an origin (Theta, phi), on either lane, is evaluated through it,
        as its grid is sampled: u = Theta(z) (p(z); q(z)), w = u_0 / u_1,
        with the pole rule of ``_sections.origin_values``; Theta's nodes are
        poles of that evaluation (w's boundary values there are limits,
        ``nt_limit``).  Anything else is sampled by ``_quotient``.
        """
        if self.exact and is_exact(z):
            den_val = self.den.eval(z)
            if not den_val:
                raise PoleError(z)
            return self.num.eval(z) / den_val
        if self._origin is not None:
            import numpy as np

            from ._sections import origin_values

            point = np.array([complex(z)])
            u, kept = origin_values(self._origin, point, self._origin[0].eval(point))
            if not kept[0]:
                raise PoleError(z)
            return complex(u[0, 0]) / complex(u[1, 0])
        return _quotient(_compiled(self.num), _compiled(self.den), z)

    __call__ = eval

    def derivative(self) -> "RationalFunction":
        """Quotient-rule derivative in canonical form."""
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)


def _compiled(p: Polynomial) -> tuple:
    """Coefficients of p in floating point, highest degree first, for Horner.

    An exact coefficient is converted as one correctly rounded integer
    division, the float of the exact value.  A value beyond the float range
    raises ``FloatRangeError``, which names its size.
    """
    if not p.exact:
        return tuple(reversed(p.coeffs))
    try:
        return tuple(complex(c.numerator / c.denominator) for c in reversed(p.coeffs))
    except OverflowError:
        bits = max(int(abs(c)).bit_length() for c in p.coeffs)
        raise FloatRangeError(
            f"a polynomial coefficient of {bits} bits exceeds the float range (1024 bits); "
            "the function cannot be sampled in floats"
        ) from None


def _horner(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _quotient(num, den, z) -> complex:
    """num(z) / den(z) for coefficient tuples from ``_compiled``, by Horner
    in Python complex arithmetic: the float sample of a rational function.

    ``Fraction.__radd__`` with a complex operand computes
    ``complex(acc) + complex(c)``, the same IEEE operation, so a sample is
    bit-identical to evaluating the exact polynomials at the same float
    point.  A point is a pole (``PoleError``) when
    |den(z)| < POLE_TOL * max(1, |num(z)|).
    """
    n, d = _horner(num, z), _horner(den, z)
    if abs(d) < POLE_TOL * max(1.0, abs(n)):
        raise PoleError(z)
    return n / d


def _cleared_integers(values) -> tuple:
    """Integers m_k and the lcm D of the denominators of the rationals v_k
    (ints or ``Fraction`` values), with v_k = m_k / D."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _scaled_value(coeffs, a, b) -> int:
    """b^d f(a/b) for f of degree d with ascending integer coefficients."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * power
        power *= b
    return acc


def _deflate(coeffs, x) -> list:
    """Ascending coefficients of p(z) / (z - x) for a root x of p (synthetic
    division; the remainder is dropped)."""
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + x * carry
        quotient[k - 1] = carry
    return quotient


def _node_products(nodes) -> tuple:
    """Ascending coefficients of D = prod_i (z - x_i) over ``nodes`` and of
    each partial product D / (z - x_i) (``_deflate``), O(n^2) in all: the
    node products over which a residue form's entries and the expansion of
    a realization are node sums (``_node_sum``)."""
    full = [1]
    for x in nodes:
        times = [0] + full
        for k, c in enumerate(full):
            times[k] -= x * c
        full = times
    return full, [_deflate(full, x) for x in nodes]


def _node_sum(weights, partials, base) -> list:
    """Ascending coefficients of base + sum_i c_i D / (z - x_i), for weights
    c_i, the partial products of ``_node_products`` and a coefficient list
    ``base`` at least as long as they are."""
    out = list(base)
    for c, partial in zip(weights, partials):
        for k, p in enumerate(partial):
            out[k] += c * p
    return out


def _integer_form(num, den) -> tuple:
    """Canonical scaling of a real-rational quotient num/den.

    ``num`` and ``den`` are ascending ``Fraction`` coefficient lists of a
    coprime pair (``den`` nonzero), or of zero over any ``den``, which is
    0/1.  Both are scaled by one rational factor so that all coefficients
    are integers with no common divisor and the leading denominator
    coefficient is positive; the result is the pair of ``Polynomial``
    values.  This is the one definition of the exact real canonical form.
    """
    if not any(num):
        return Polynomial(()), Polynomial.one()
    ints, _ = _cleared_integers([*num, *den])
    num_ints, den_ints = ints[: len(num)], ints[len(num) :]
    g = 0
    for v in num_ints:
        g = math.gcd(g, v)
    for v in den_ints:
        g = math.gcd(g, v)
    if den_ints[-1] < 0:
        g = -g
    return (
        Polynomial([v // g for v in num_ints]),
        Polynomial([v // g for v in den_ints]),
    )


# ---------------------------------------------------------------------------
# Symmetric matrices: inertia, inverse and kernel (one exact elimination).
# ---------------------------------------------------------------------------


class Inertia(NamedTuple):
    """Eigenvalue sign counts (negatives, zeros, positives)."""

    negatives: int
    zeros: int
    positives: int

    def astuple(self):
        return tuple(self)

    def __repr__(self):
        return f"Inertia(neg={self.negatives}, zero={self.zeros}, pos={self.positives})"


def _rows_are_exact(rows) -> bool:
    return all(is_exact(x) for row in rows for x in row)


class HermitianMatrix:
    """Square matrix with entry(i,j) == conj(entry(j,i)).

    Exact entries must be symmetric identically: every exact matrix the
    library builds is a Pick matrix or a block of its inverse.  They are
    held as ``GaussianRational`` values.  Float entries may be complex and
    are allowed a relative slack of ``HERMITIAN_TOL``.  A float matrix keeps
    the complex array it was built from, which ``to_numpy`` copies and
    ``hermitian_inertia`` and ``matrix_inverse`` read directly; it can be
    built from an ndarray, with no entry converted in Python.  ``rows``
    holds Python ``complex`` values on the float lane either way.
    """

    __slots__ = ("rows", "n", "exact", "_array")

    def __init__(self, rows):
        array = None
        if hasattr(rows, "dtype"):  # an ndarray: the float lane
            import numpy as np

            array = np.array(rows, dtype=complex)
            if array.ndim != 2 or array.shape[0] != array.shape[1]:
                raise ValueError("matrix is not square")
        else:
            rows = tuple(tuple(row) for row in rows)
            if any(len(row) != len(rows) for row in rows):
                raise ValueError("matrix is not square")
        n = len(rows)
        exact = array is None and _rows_are_exact(rows)
        if exact:
            rows = tuple(tuple(GaussianRational(x) for x in row) for row in rows)
            for i in range(n):
                for j in range(i + 1, n):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(f"not symmetric at ({i},{j})")
        else:
            import numpy as np

            if array is None:
                array = np.array([[complex(x) for x in row] for row in rows], dtype=complex)
            scale = max(1.0, float(np.abs(array).max(initial=0.0)))
            if np.abs(array - array.conj().T).max(initial=0.0) > HERMITIAN_TOL * scale:
                raise ValueError("not Hermitian within float tolerance")
            array.flags.writeable = False
            rows = tuple(map(tuple, array.tolist()))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_array", array)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def entry(self, i, j):
        return self.rows[i][j]

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        if self._array is not None:
            return self._array.copy()
        return np.array([[complex(x) for x in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"HermitianMatrix({[list(r) for r in self.rows]})"


def _spectral_inertia(eigs, rank_tol: float) -> Inertia:
    """Sign counts of a float spectrum (an ndarray), with
    |lambda| <= rank_tol * max(1, spectral radius) counted as zero; a
    negative ``rank_tol`` is a ``ValueError``."""
    if rank_tol < 0:
        raise ValueError(f"rank_tol must be >= 0, not {rank_tol!r}")
    tol = rank_tol * max(1.0, float(abs(eigs).max(initial=0.0)))
    neg = int((eigs < -tol).sum())
    pos = int((eigs > tol).sum())
    return Inertia(neg, len(eigs) - neg - pos, pos)


def _conditioned_inverse(array, magnitudes):
    """``np.linalg.inv(array)``, or ``SingularMatrixError`` when the least of
    ``magnitudes`` (the singular values of ``array``, or the |lambda| of a
    Hermitian one, which are the same numbers) falls below ``RCOND_MIN``
    times the largest."""
    import numpy as np

    top = magnitudes.max()
    if top == 0 or magnitudes.min() / top < RCOND_MIN:
        raise SingularMatrixError("reciprocal condition number below cutoff")
    return np.linalg.inv(array)


def hermitian_inertia(matrix, rank_tol: float = RANK_TOL) -> Inertia:
    """Eigenvalue sign counts of a Hermitian matrix.

    Exact (real symmetric) entries are counted by ``symmetric_elimination``,
    with no tolerance involved.  Float entries are counted from the
    spectrum of the matrix's kept array, with
    |lambda| <= rank_tol * max(1, spectral radius) treated as zero; a
    negative ``rank_tol`` is a ``ValueError`` there.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(matrix)
    if matrix.n == 0:
        return Inertia(0, 0, 0)
    if matrix.exact:
        return symmetric_elimination(matrix.rows).inertia
    import numpy as np

    return _spectral_inertia(np.linalg.eigvalsh(matrix._array), rank_tol)


def matrix_inverse(rows):
    """Inverse of a square matrix given as lists (or HermitianMatrix).

    Exact entries must form a real symmetric matrix (a ``ValueError``
    otherwise), since the library inverts nothing else; they are inverted
    by ``symmetric_elimination`` against the identity, the entries come back
    as ``Fraction`` values, and an exactly singular input raises
    ``SingularMatrixError``.  Float entries use numpy, rejecting reciprocal
    condition numbers (from the singular values) below ``RCOND_MIN``; a
    float ``HermitianMatrix`` is inverted from its kept array.
    """
    if not isinstance(rows, HermitianMatrix) and _rows_are_exact(rows):
        rows = HermitianMatrix(rows)
    if isinstance(rows, HermitianMatrix) and rows.exact:
        n = rows.n
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        inverse = symmetric_elimination(rows.rows, identity).solution
        if inverse is None:
            raise SingularMatrixError("exactly singular matrix")
        return inverse
    import numpy as np

    if isinstance(rows, HermitianMatrix):
        array = rows._array
    else:
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix is not square")
        array = np.array([[complex(x) for x in row] for row in rows])
    sv = np.linalg.svd(array, compute_uv=False)
    return _conditioned_inverse(array, sv).tolist()


class Elimination(NamedTuple):
    """What ``symmetric_elimination`` reads off a real symmetric P."""

    inertia: Inertia
    solution: list | None  # rows of P^(-1) B (Fractions); None when P is singular
    kernel: list  # a basis of ker P (Fraction vectors); empty when P is invertible
    negative: list | None  # a v with v^T P v < 0 (Fractions); None when P has no such v


def symmetric_elimination(rows, rhs=None) -> Elimination:
    """Inertia of a real symmetric exact matrix P, with P^(-1) B or ker P.

    One fraction-free Gauss-Jordan pass over [P | B] (Bareiss, Math. Comp.
    22, 1968).  Each row is scaled by the lcm of its denominators, so
    A = D [P | B] is an integer matrix for a positive diagonal D.  A step
    with pivot entry p = a_rc replaces every other row i by
    (p row_i - a_ic row_r) / p', where p' is the previous pivot (1 at the
    first step).  Each division is exact, since every entry stays a minor
    of A.

    The pivots are symmetric.  The next one is the first remaining diagonal
    entry that is nonzero; its sign against p' is the sign of the next
    diagonal entry of an LDL^T factorization of P (Sylvester), as the
    scales in D are positive.  When every remaining diagonal entry vanishes
    but a remaining entry (i, j) does not, the pivots (i, j) and then (j, i)
    eliminate a 2x2 block [[0, a], [a, 0]] of the Schur complement, which
    has one eigenvalue of each sign.  The sign test stays valid afterwards:
    later pivots and p' are minors over the same transposed columns.  When
    every remaining entry vanishes, the remaining indices count the zero
    eigenvalues and, as free columns, give the kernel basis that is 1 at one
    of them and 0 at the others.  Otherwise row r of the pivot (r, c) holds
    p e_c and p times row c of P^(-1) B.

    Over the pivots S taken so far, u_f = e_f - P_SS^(-1) P_Sf (``lifted``)
    has u_f^T P u_f = the Schur complement's (f, f) entry, and the kernel
    basis is u_f at the free columns.  The first negative pivot m gives
    ``negative`` = u_m; a first 2x2 block (i, j) gives u_i -+ u_j, whose
    form is -2 times the block's |a|.

    ``rows`` are the rows of P (ints or Fractions); ``rhs`` the rows of B,
    with no columns by default.
    """
    n = len(rows)
    rhs = rhs or [()] * n
    a = [
        _cleared_integers([*row, *extra])[0]
        for row, extra in zip(rows, rhs)
    ]
    remaining = list(range(n))
    pivot_rows = {}  # pivot column -> its row
    neg = pos = 0
    prev = 1
    negative = None

    def lifted(f):
        vec = [Fraction(int(k == f)) for k in range(n)]
        for c, r in pivot_rows.items():
            vec[c] = Fraction(-a[r][f], prev)
        return vec

    def step(r, c):
        nonlocal prev
        top, p = a[r], a[r][c]
        for i in range(n):
            if i != r:
                row, f = a[i], a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivot_rows[c] = r
        prev = p

    while remaining:
        m = next((m for m in remaining if a[m][m]), None)
        if m is not None:
            if (a[m][m] > 0) == (prev > 0):
                pos += 1
            else:
                neg += 1
                negative = negative or lifted(m)
            step(m, m)
            remaining.remove(m)
            continue
        pair = next(
            ((i, j) for k, i in enumerate(remaining) for j in remaining[k + 1 :] if a[i][j]),
            None,
        )
        if pair is None:
            break
        i, j = pair
        if negative is None:
            sign = 1 if (a[i][j] > 0) == (prev > 0) else -1
            negative = [x - sign * y for x, y in zip(lifted(i), lifted(j))]
        step(i, j)
        step(j, i)
        neg += 1
        pos += 1
        remaining.remove(i)
        remaining.remove(j)
    inertia = Inertia(neg, len(remaining), pos)
    if remaining:
        return Elimination(inertia, None, [lifted(f) for f in remaining], negative)
    solution = [[Fraction(x, prev) for x in a[pivot_rows[c]][n:]] for c in range(n)]
    return Elimination(inertia, solution, [], negative)

"""Scalar, polynomial, rational-function and small Hermitian-matrix arithmetic.

Two numeric backends coexist.  The exact backend carries arbitrary-precision
rationals (``Fraction`` values, held in polynomials and matrices as
``GaussianRational`` scalars whose imaginary part is zero for every datum the
library builds); all arithmetic on it is closed, associative and free of
rounding, so golden results compare by exact equality.  Exact linear algebra
is real: an exact matrix is real symmetric, and its inertia, its inverse or
solution against right-hand sides, and its kernel come from one fraction-free
elimination, ``symmetric_elimination``.  The float backend carries ordinary
``complex`` / ``float`` values and is used for boundary-limit extrapolation,
kernel sampling and any data that is not rational to begin with.  Mixing the
two promotes to float.

Infinity is never a scalar here: extended values live at the parameter and
limit-estimate level of the higher modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import PoleError, SingularMatrixError

_FLOAT_TYPES = (float, complex, np.floating, np.complexfloating)

# Tolerances of the float lane (the exact lane never uses any).
CANCEL_TOL = 1e-8        # root clustering distance for float gcd
POLE_TOL = 1e-13         # |den(z)| below this scale counts as a pole
HERMITIAN_TOL = 1e-12    # relative Hermitian-symmetry slack
RCOND_MIN = 1e-14        # reciprocal condition number cutoff for inversion
TRIM_TOL = 1e-12         # relative size under which float coefficients vanish


class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts.

    Every exact-lane datum is real, so arithmetic has a real fast path: when
    both operands of ``+``, ``-``, ``*`` or ``/`` are real (a
    ``GaussianRational`` with ``im == 0``, an ``int`` or a ``Fraction``), the
    result is one ``Fraction`` operation, stored without re-coercion and with
    the shared zero as its imaginary part.  The values are those of the
    complex formulas; complex operands take the general path.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def coerce(value) -> "GaussianRational":
        """Coerce an exact-compatible value; floats are rejected."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        if isinstance(value, str):
            return GaussianRational(Fraction(value))
        raise TypeError(f"not an exact scalar: {value!r}")

    # -- queries ------------------------------------------------------
    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError(f"{self!r} has a nonzero imaginary part")
        return float(self.re)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __abs__(self) -> float:
        return abs(complex(self))

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    # -- arithmetic ---------------------------------------------------
    def _binary(self, other, exact_op, float_op):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return exact_op(GaussianRational.coerce(other))
        if isinstance(other, _FLOAT_TYPES):
            return float_op(complex(other))
        return NotImplemented

    def __add__(self, other):
        if not self.im:
            o = _real_value(other)
            if o is not None:
                return _real(self.re + o)
        return self._binary(
            other,
            lambda o: GaussianRational(self.re + o.re, self.im + o.im),
            lambda o: complex(self) + o,
        )

    __radd__ = __add__

    def __neg__(self):
        if not self.im:
            return _real(-self.re)
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if not self.im:
            o = _real_value(other)
            if o is not None:
                return _real(self.re - o)
        return self._binary(
            other,
            lambda o: GaussianRational(self.re - o.re, self.im - o.im),
            lambda o: complex(self) - o,
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not self.im:
            o = _real_value(other)
            if o is not None:
                return _real(self.re * o)
        return self._binary(
            other,
            lambda o: GaussianRational(
                self.re * o.re - self.im * o.im,
                self.re * o.im + self.im * o.re,
            ),
            lambda o: complex(self) * o,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not self.im:
            o = _real_value(other)
            if o is not None:
                return _real(self.re / o)

        def exact(o):
            d = o.abs2()
            if d == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            return self * GaussianRational(o.re / d, -o.im / d)

        return self._binary(other, exact, lambda o: complex(self) / o)

    def __rtruediv__(self, other):
        if not self.im:
            o = _real_value(other)
            if o is not None:
                return _real(o / self.re)
        d = self.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        inv = GaussianRational(self.re / d, -self.im / d)
        return inv * other

    def __eq__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            o = GaussianRational.coerce(other)
            return self.re == o.re and self.im == o.im
        if isinstance(other, _FLOAT_TYPES):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


_FRACTION_ZERO = Fraction(0)
_new_scalar = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _real(value: Fraction) -> GaussianRational:
    """The real scalar ``value`` (already a Fraction), built without coercion."""
    out = _new_scalar(GaussianRational)
    _set_re(out, value)
    _set_im(out, _FRACTION_ZERO)
    return out


def _real_value(x):
    """The rational value of a real exact operand, or None for any other operand."""
    kind = type(x)
    if kind is GaussianRational:
        return None if x.im else x.re
    if kind is Fraction or kind is int:
        return x
    return None


EXACT_ZERO = GaussianRational(0)
EXACT_ONE = GaussianRational(1)


def is_exact(value) -> bool:
    """True when ``value`` belongs to the exact backend."""
    return isinstance(value, (GaussianRational, int, Fraction))


def scalar_from_json(value):
    """Parse a JSON number: int / 'p/q' stay exact, floats go to the float lane."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise TypeError(f"cannot parse scalar from {value!r}")


def scalar_to_json(value):
    """Serialize an exact or float scalar: ints as ints, fractions as 'p/q'."""
    if isinstance(value, GaussianRational):
        if not value.is_real:
            raise TypeError("complex exact scalars have no JSON form")
        value = value.re
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, int):
        return value
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
            raise TypeError("complex float scalars have no JSON form")
        return float(value.real)
    return float(value)


class Polynomial:
    """Dense univariate polynomial with ascending coefficients.

    The zero polynomial has an empty coefficient list and degree ``-1``.
    A polynomial is either fully exact (GaussianRational coefficients) or
    fully float (complex); mixing promotes everything to complex.
    """

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs=()):
        canon = []
        exact = True
        for c in coeffs:
            if is_exact(c):
                canon.append(GaussianRational.coerce(c))
            elif isinstance(c, str):
                canon.append(GaussianRational(Fraction(c)))
            elif isinstance(c, _FLOAT_TYPES):
                canon.append(complex(c))
                exact = False
            else:
                raise TypeError(f"bad coefficient {c!r}")
        if not exact:
            canon = [complex(c) for c in canon]
            scale = max((abs(c) for c in canon), default=0.0)
            canon = [0.0 if abs(c) <= TRIM_TOL * scale else c for c in canon]
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
            return all(c.is_real for c in self.coeffs)
        scale = max((abs(c) for c in self.coeffs), default=0.0)
        return all(abs(c.imag) <= TRIM_TOL * max(1.0, scale) for c in self.coeffs)

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
            negative = (c.re < 0 if isinstance(c, GaussianRational) and c.is_real
                        else isinstance(c, (int, float)) and c < 0
                        or isinstance(c, complex) and c.imag == 0 and c.real < 0)
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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        inv = EXACT_ONE / self.lead if self.exact else 1.0 / self.lead
        return self.scale(inv)

    def derivative(self) -> "Polynomial":
        return Polynomial([c * k for k, c in enumerate(self.coeffs)][1:])

    def eval(self, z):
        """Horner evaluation; exact when both operands are exact."""
        acc = EXACT_ZERO if (self.exact and is_exact(z)) else 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    __call__ = eval

    def compose_rational(self, num: "Polynomial", den: "Polynomial") -> "Polynomial":
        """Numerator of self(num/den) after clearing den**degree."""
        if self.is_zero:
            return Polynomial(())
        d = self.degree
        out = Polynomial(())
        for k, c in enumerate(self.coeffs):
            out = out + (num ** k) * (den ** (d - k)).scale(c)
        return out

    def to_complex_array(self) -> np.ndarray:
        return np.array([complex(c) for c in self.coeffs], dtype=complex)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd on the exact lane via the Euclidean algorithm."""
    if not (a.exact and b.exact):
        raise TypeError("exact gcd requires exact polynomials")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def _float_cancel(num: Polynomial, den: Polynomial):
    """Cancel root pairs of num/den closer than CANCEL_TOL (conservative)."""
    if num.is_zero or den.degree < 1:
        return num, den
    nroots = list(np.roots(num.to_complex_array()[::-1])) if num.degree >= 1 else []
    droots = list(np.roots(den.to_complex_array()[::-1]))
    keep_n = nroots[:]
    keep_d = []
    for r in droots:
        hit = None
        for i, s in enumerate(keep_n):
            if abs(r - s) < CANCEL_TOL:
                hit = i
                break
        if hit is None:
            keep_d.append(r)
        else:
            keep_n.pop(hit)
    if len(keep_d) == len(droots):
        return num, den
    lead_n = complex(num.lead)
    lead_d = complex(den.lead)
    new_num = Polynomial(np.poly(keep_n)[::-1] * lead_n if keep_n else [lead_n])
    new_den = Polynomial(np.poly(keep_d)[::-1] * lead_d if keep_d else [lead_d])
    return new_num, new_den


class RationalFunction:
    """Quotient of two polynomials, normalized to a canonical form.

    Canonical means: numerator and denominator are coprime, and the
    denominator is scaled so that (a) real exact entries have coprime integer
    coefficients with a positive leading coefficient -- this reproduces
    textbook displays like (2z+1)/(2z-1) verbatim -- (b) complex exact or
    float entries have a monic denominator.
    """

    __slots__ = ("num", "den", "exact", "_sampler")

    def __init__(self, num, den=Polynomial((1,)), reduce=True):
        if not isinstance(num, Polynomial):
            num = Polynomial(num)
        if not isinstance(den, Polynomial):
            den = Polynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        exact = num.exact and den.exact
        if not exact:
            num = Polynomial(num.to_complex_array())
            den = Polynomial(den.to_complex_array())
        if reduce:
            num, den = self._reduce(num, den, exact)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_sampler", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def sampler(self) -> "RationalSampler":
        """The function's float sampler, compiled on first use and kept.

        A cache, not part of the value: ``==`` and ``hash`` read only the
        numerator and denominator.
        """
        if self._sampler is None:
            object.__setattr__(self, "_sampler", RationalSampler(self))
        return self._sampler

    @staticmethod
    def _reduce(num, den, exact):
        if exact:
            if num.is_zero:
                return num, Polynomial.one()
            if num.degree >= 1 and den.degree >= 1:
                g = polynomial_gcd(num, den)
                if g.degree >= 1:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
            if num.is_real() and den.is_real():
                num, den = _integer_form(
                    [c.re for c in num.coeffs], [c.re for c in den.coeffs]
                )
            else:
                inv = EXACT_ONE / den.lead
                num, den = num.scale(inv), den.scale(inv)
            return num, den
        if num.is_zero:
            return num, Polynomial((1.0,))
        num, den = _float_cancel(num, den)
        inv = 1.0 / complex(den.lead)
        num, den = num.scale(inv), den.scale(inv)
        if num.is_real() and den.is_real():
            num = Polynomial([c.real for c in num.coeffs])
            den = Polynomial([c.real for c in den.coeffs])
        return num, den

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction(Polynomial((c,)))

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x())

    @staticmethod
    def from_json(obj) -> "RationalFunction":
        num = [scalar_from_json(c) for c in obj["num"]]
        den = [scalar_from_json(c) for c in obj["den"]]
        return RationalFunction(Polynomial(num), Polynomial(den))

    def to_json(self) -> dict:
        def dump(p):
            return [scalar_to_json(c) for c in p.coeffs]

        return {"num": dump(self.num), "den": dump(self.den)}

    # -- queries ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        if self.is_zero:
            return EXACT_ZERO if self.exact else 0j
        return self.num.coeffs[0] / self.den.coeffs[0]

    def is_real(self) -> bool:
        return self.num.is_real() and self.den.is_real()

    def real_poles(self) -> list:
        """Real roots of the canonical denominator (float values)."""
        return sorted(r.real for r in self.sampler.poles if abs(r.imag) < 1e-9)

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

    def isclose(self, other: "RationalFunction", tol=1e-9) -> bool:
        """Cross-multiplied coefficient comparison with relative tolerance."""
        lhs = (self.num * other.den).to_complex_array()
        rhs = (other.num * self.den).to_complex_array()
        n = max(len(lhs), len(rhs))
        lhs = np.pad(lhs, (0, n - len(lhs)))
        rhs = np.pad(rhs, (0, n - len(rhs)))
        scale = max(1.0, np.abs(lhs).max(initial=0.0), np.abs(rhs).max(initial=0.0))
        return bool(np.all(np.abs(lhs - rhs) <= tol * scale))

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

        Exact entries at an exact point give an exact value; anything else is
        sampled in floating point by ``RationalSampler``.
        """
        if self.exact and is_exact(z):
            den_val = self.den.eval(z)
            if not den_val:
                raise PoleError(z)
            return self.num.eval(z) / den_val
        return self.sampler(z)

    __call__ = eval

    def derivative(self) -> "RationalFunction":
        """Quotient-rule derivative in canonical form."""
        n, d = self.num, self.den
        return RationalFunction(n.derivative() * d - n * d.derivative(), d * d)

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """self(inner(z)) as a canonical rational function."""
        p, q = self.num, self.den
        n, d = inner.num, inner.den
        dp, dq = max(p.degree, 0), max(q.degree, 0)
        top = p.compose_rational(n, d)
        bot = q.compose_rational(n, d)
        if dp > dq:
            bot = bot * d ** (dp - dq)
        elif dq > dp:
            top = top * d ** (dq - dp)
        return RationalFunction(top, bot)


def _compiled(p: Polynomial, slope: bool = False) -> tuple:
    """Coefficients of p, or of p' when ``slope``, in floating point, highest
    degree first, for Horner.

    An exact coefficient k c (k = 1, or the power for p') is converted part
    by part as one correctly rounded integer division: the float of the
    exact value, as ``complex(k * c)`` gives, without forming k c.
    """
    if not p.exact:
        return tuple(reversed((p.derivative() if slope else p).coeffs))
    terms = list(enumerate(p.coeffs))[1:] if slope else [(1, c) for c in p.coeffs]
    return tuple(
        complex((k * c.re.numerator) / c.re.denominator, (k * c.im.numerator) / c.im.denominator)
        for k, c in reversed(terms)
    )


def _horner(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


class RationalSampler:
    """Floating-point sampler of a rational function, compiled once.

    The numerator and denominator are converted to float coefficient lists
    when the sampler is built, so each sample is plain Horner arithmetic with
    no per-coefficient ``GaussianRational`` dispatch.  ``complex(c) + acc``
    is the same IEEE operation ``GaussianRational.__radd__`` performs, so the
    samples are bit-identical to evaluating the exact polynomials at the same
    float point.  A point is a pole when |den| < POLE_TOL * max(1, |num|).
    Each function keeps one sampler (``RationalFunction.sampler``).

    ``split_samples`` takes many points in one pass of float64 array
    arithmetic and gives the same bits as the one-point call at each of them.
    """

    __slots__ = ("_polys", "_num", "_den", "_coeffs", "_poles")

    def __init__(self, func: RationalFunction):
        # the polynomials, not func: a cached sampler makes no reference cycle
        self._polys = func.num, func.den
        self._num = _compiled(func.num)
        self._den = _compiled(func.den)
        self._coeffs = None
        self._poles = None

    @property
    def poles(self) -> np.ndarray:
        """The roots of the denominator (``np.roots``), found on first use;
        the real poles and the grid's nudging both read them."""
        if self._poles is None:
            den = self._polys[1]
            self._poles = np.roots(den.to_complex_array()[::-1]) if den.degree >= 1 else ()
        return self._poles

    def _parts(self, z):
        num, den = _horner(self._num, z), _horner(self._den, z)
        if abs(den) < POLE_TOL * max(1.0, abs(num)):
            raise PoleError(z)
        return num, den

    def __call__(self, z) -> complex:
        num, den = self._parts(z)
        return num / den

    def _coefficients(self, derivative: bool) -> np.ndarray:
        """Coefficients of num and den, then of num' and den' when ``derivative``,
        as an array of shape (degree + 1, 2, polynomials, 1): highest degree
        first, real and imaginary parts on axis 1.

        Shorter polynomials are padded with leading zeros.  That padding is
        exact: from acc = 0 a step acc * z + 0 gives +0 + 0i again at every
        finite z, so the first true coefficient meets the same zero
        accumulator as in the one-polynomial Horner.  n' and d' are compiled
        on first use and have no more coefficients than n or d.
        """
        if self._coeffs is None or (derivative and self._coeffs.shape[2] == 2):
            polys = [self._num, self._den]
            if derivative:
                polys += [_compiled(p, slope=True) for p in self._polys]
            width = max(len(c) for c in polys)
            coeffs = np.zeros((width, len(polys), 1), dtype=complex)
            for j, c in enumerate(polys):
                coeffs[width - len(c) :, j, 0] = c
            self._coeffs = np.stack([coeffs.real, coeffs.imag], axis=1)
        return self._coeffs if derivative else self._coeffs[:, :, :2]

    def split_samples(self, z, derivative: bool = False) -> tuple:
        """f at the points z, and f' too when ``derivative``, in one pass of
        float64 array arithmetic.

        ``z`` and the values returned hold complex numbers as real and
        imaginary parts stacked on axis 0: z has shape (2, points).  Returns
        (values, pole): values of shape (2, 1, points) holding f, or (2, 2,
        points) holding f and f', and where the pole rule holds (the values
        are meaningless there).  f' is the quotient rule (n'd - nd')/d^2
        from the compiled n' and d'; it is never formed as a rational
        function.  Every complex operation is CPython's, written out in real
        arithmetic (``split_product``, ``split_quotient``, C ``hypot`` for
        the modulus), so each value has the bits of the one-point
        evaluation; numpy's complex128 operations do not promise that.
        Points near a pole overflow, so callers that keep warnings quiet
        wrap the call in ``np.errstate``.
        """
        coeffs = self._coefficients(derivative)
        # acc * z + c is split_product(acc, z) + c for every polynomial at
        # once, with z's signed imaginary rows formed once
        zr, zs = z[0], (z[1] * _SIGNS[:, np.newaxis])[:, np.newaxis]
        acc = np.zeros((2, coeffs.shape[2], z.shape[1]))
        for c in coeffs:
            acc = acc * zr + acc[::-1] * zs
            acc += c
        both = np.hypot(acc[0, :2], acc[1, :2])
        # fmax(|n|, 1) is Python's max(1.0, |n|), NaN included
        pole = both[1] < POLE_TOL * np.fmax(both[0], 1.0)
        if derivative:
            # n'd, nd' and d^2 in one product; f' = (n'd - nd') / d^2
            terms = split_product(acc[:, [2, 0, 1]], acc[:, [1, 3, 1]])
            acc[:, 2] = terms[:, 0] - terms[:, 1]
            acc[:, 3] = terms[:, 2]
            return split_quotient(acc[:, 0::2], acc[:, 1::2]), pole
        return split_quotient(acc[:, :1], acc[:, 1:]), pole


_SIGNS = np.array([-1.0, 1.0])
_ROTATE = np.array([1.0, -1.0])


def _axis0(pair, ndim: int) -> np.ndarray:
    """A two-entry vector shaped to broadcast along axis 0 of an ndim array."""
    return pair.reshape((2,) + (1,) * (ndim - 1))


def split_product(a, b):
    """a * b for complex arrays stored as real and imaginary parts stacked
    on axis 0, as CPython's ``_Py_c_prod`` computes it: (a0 b0 - a1 b1,
    a1 b0 + a0 b1).  a * b0 + swap(a) * (-b1, b1) is that term for term:
    negating a product is exact, and so is swapping the terms of a sum."""
    return a * b[0] + a[::-1] * (b[1] * _axis0(_SIGNS, np.ndim(b)))


def split_quotient(a, b):
    """a / b for stacked complex arrays (see ``split_product``), as CPython's
    ``_Py_c_quot`` computes it: Smith's method, dividing through by the
    larger part of the divisor; a NaN in the divisor gives NaN.  CPython
    raises on a zero divisor where this gives NaN.

    Where |Im b| > |Re b|, Smith's second branch is the first branch applied
    to a (-i) / b (-i): the rotation swaps the parts and negates one, which
    is exact, and the branch's formulas then match term for term.
    """
    first = np.abs(b[0]) >= np.abs(b[1])
    if np.count_nonzero(first) < first.size:  # some divisor needs the second branch
        rotate = _axis0(_ROTATE, a.ndim)
        top, bottom = a[::-1] * rotate, b[::-1] * rotate
        np.copyto(top, a, where=first)
        np.copyto(bottom, b, where=first)
        a, b = top, bottom
    ratio = b[1] / b[0]
    denom = b[0] + b[1] * ratio
    out = np.empty_like(a)
    np.divide(a[0] + a[1] * ratio, denom, out=out[0])
    np.divide(a[1] - a[0] * ratio, denom, out=out[1])
    return out


def _cleared_integers(values) -> tuple:
    """Integers m_k and the lcm D of the denominators of the rationals v_k
    (ints or ``Fraction`` values), with v_k = m_k / D."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _integer_form(num, den) -> tuple:
    """Canonical scaling of a real-rational quotient num/den.

    ``num`` and ``den`` are ascending ``Fraction`` coefficient lists of a
    coprime pair (``den`` nonzero).  Both are scaled by one rational factor
    so that all coefficients are integers with no common divisor and the
    leading denominator coefficient is positive; the result is the pair of
    ``Polynomial`` values.  This is the one definition of the exact real
    canonical form.
    """
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


class Inertia:
    """Eigenvalue sign counts (negatives, zeros, positives)."""

    __slots__ = ("negatives", "zeros", "positives")

    def __init__(self, negatives, zeros, positives):
        object.__setattr__(self, "negatives", negatives)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "positives", positives)

    def __setattr__(self, name, value):
        raise AttributeError("Inertia is immutable")

    def astuple(self):
        return (self.negatives, self.zeros, self.positives)

    def __eq__(self, other):
        if isinstance(other, tuple):
            return self.astuple() == other
        if isinstance(other, Inertia):
            return self.astuple() == other.astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self.astuple())

    def __repr__(self):
        return f"Inertia(neg={self.negatives}, zero={self.zeros}, pos={self.positives})"


def _rows_are_exact(rows) -> bool:
    return all(is_exact(x) for row in rows for x in row)


class HermitianMatrix:
    """Square matrix with entry(i,j) == conj(entry(j,i)).

    Exact entries must be real and symmetric identically: every exact
    matrix the library builds is a Pick matrix or a block of its inverse.
    Float entries may be complex and are allowed a relative slack of
    ``HERMITIAN_TOL``.
    """

    __slots__ = ("rows", "n", "exact")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")
        exact = _rows_are_exact(rows)
        if exact:
            rows = tuple(
                tuple(GaussianRational.coerce(x) for x in row) for row in rows
            )
            for i in range(n):
                for j in range(i, n):
                    if rows[i][j].im:
                        raise ValueError(f"exact entry ({i},{j}) is not real")
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(f"not symmetric at ({i},{j})")
        else:
            arr = np.array([[complex(x) for x in row] for row in rows])
            scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
            if np.abs(arr - arr.conj().T).max(initial=0.0) > HERMITIAN_TOL * scale:
                raise ValueError("not Hermitian within float tolerance")
            rows = tuple(tuple(row) for row in arr.tolist())
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def entry(self, i, j):
        return self.rows[i][j]

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(x) for x in row] for row in self.rows])

    def to_lists(self):
        return [list(row) for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"HermitianMatrix({[list(r) for r in self.rows]})"


def hermitian_inertia(matrix, rank_tol: float = 1e-9) -> Inertia:
    """Eigenvalue sign counts of a Hermitian matrix.

    Exact (real symmetric) entries are counted by ``symmetric_elimination``,
    with no tolerance involved.  Float entries are counted from the
    spectrum, with |lambda| <= rank_tol * max(1, spectral radius) treated as
    zero.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(matrix)
    if matrix.n == 0:
        return Inertia(0, 0, 0)
    if matrix.exact:
        return symmetric_elimination(matrix.rows).inertia
    eigs = np.linalg.eigvalsh(matrix.to_numpy())
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    tol = rank_tol * scale
    neg = int(np.sum(eigs < -tol))
    pos = int(np.sum(eigs > tol))
    return Inertia(neg, matrix.n - neg - pos, pos)


def matrix_inverse(rows):
    """Inverse of a square matrix given as lists (or HermitianMatrix).

    Exact entries must form a real symmetric matrix (a ``ValueError``
    otherwise), since the library inverts nothing else; they are inverted
    by ``symmetric_elimination`` against the identity, the entries come back
    as ``Fraction`` values, and an exactly singular input raises
    ``SingularMatrixError``.  Float entries use numpy, rejecting reciprocal
    condition numbers below ``RCOND_MIN``.
    """
    if not isinstance(rows, HermitianMatrix) and _rows_are_exact(rows):
        rows = HermitianMatrix(rows)
    if isinstance(rows, HermitianMatrix):
        if rows.exact:
            n = rows.n
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            inverse = symmetric_elimination(rows.rows, identity).solution
            if inverse is None:
                raise SingularMatrixError("exactly singular matrix")
            return inverse
        rows = rows.to_lists()
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    arr = np.array([[complex(x) for x in row] for row in rows])
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < RCOND_MIN:
        raise SingularMatrixError("reciprocal condition number below cutoff")
    return np.linalg.inv(arr).tolist()


class Elimination(NamedTuple):
    """What ``symmetric_elimination`` reads off a real symmetric P."""

    inertia: Inertia
    solution: list | None  # rows of P^(-1) B (Fractions); None when P is singular
    kernel: list  # a basis of ker P (Fraction vectors); empty when P is invertible


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

    ``rows`` are the rows of P (ints, Fractions or real ``GaussianRational``
    values); ``rhs`` the rows of B, with no columns by default.
    """
    n = len(rows)
    rhs = rhs or [()] * n
    a = [
        _cleared_integers([_real_value(x) for x in (*row, *extra)])[0]
        for row, extra in zip(rows, rhs)
    ]
    remaining = list(range(n))
    pivot_rows = {}  # pivot column -> its row
    neg = pos = 0
    prev = 1

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
        step(i, j)
        step(j, i)
        neg += 1
        pos += 1
        remaining.remove(i)
        remaining.remove(j)
    inertia = Inertia(neg, len(remaining), pos)
    if remaining:
        kernel = []
        for f in remaining:
            vec = [Fraction(int(k == f)) for k in range(n)]
            for c, r in pivot_rows.items():
                vec[c] = Fraction(-a[r][f], prev)
            kernel.append(vec)
        return Elimination(inertia, None, kernel)
    solution = [[Fraction(x, prev) for x in a[pivot_rows[c]][n:]] for c in range(n)]
    return Elimination(inertia, solution, [])

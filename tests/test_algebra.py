import math
import random
from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick.algebra import (
    EXACT_ZERO,
    POLE_TOL,
    GaussianRational,
    RationalSampler,
    _compiled,
    split_product,
    split_quotient,
    symmetric_elimination,
)

from conftest import (
    bits,
    exact_det,
    gauss_jordan_inverse,
    pointwise_derivative,
    random_fraction,
    rf,
    schur_inertia,
)

F = Fraction
GR = GaussianRational


class TestGaussianRational:
    def test_exact_field_ops(self):
        a = GR(F(1, 3), F(1, 2))
        c = GR(F(-2, 5), F(4))
        assert (a + c) - c == a
        assert (a * c) / c == a
        assert a * (c + 1) == a * c + a
        assert a.conjugate().conjugate() == a

    def test_mixed_promotes_to_complex(self):
        a = GR(F(1, 3))
        out = a + 0.5
        assert isinstance(out, complex)
        assert abs(out - (1 / 3 + 0.5)) < 1e-15

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR(1) / GR(0)

    OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y, "/": lambda x, y: x / y}

    @staticmethod
    def general(op, a, c):
        """The complex formulas, applied to real and imaginary parts."""
        a, c = GR.coerce(a), GR.coerce(c)
        if op == "+":
            return GR(a.re + c.re, a.im + c.im)
        if op == "-":
            return GR(a.re - c.re, a.im - c.im)
        if op == "*":
            return GR(a.re * c.re - a.im * c.im, a.re * c.im + a.im * c.re)
        d = c.re * c.re + c.im * c.im
        return GR((a.re * c.re + a.im * c.im) / d, (a.im * c.re - a.re * c.im) / d)

    def check_ops(self, x, y):
        for op, f in self.OPS.items():
            if op == "/" and not y:
                continue
            out, expected = f(x, y), self.general(op, x, y)
            assert isinstance(out, GR) and out == expected
            assert type(out.re) is Fraction and type(out.im) is Fraction
            assert hash(out) == hash(expected) and repr(out) == repr(expected)

    def test_real_operands_match_the_complex_formulas(self):
        rng = random.Random(5)
        for _ in range(50):
            a = GR(random_fraction(rng))
            c = random_fraction(rng)
            for other in (GR(c), c, c.numerator):
                self.check_ops(a, other)
                self.check_ops(other, a)
            assert -a == GR(-a.re) and a.conjugate() == a

    def test_complex_operands_keep_the_general_path(self):
        rng = random.Random(6)
        for _ in range(50):
            a = GR(random_fraction(rng), random_fraction(rng, nonzero=True))
            c = random_fraction(rng)
            d = GR(random_fraction(rng), random_fraction(rng))
            for other in (d, GR(c), c, c.numerator):
                self.check_ops(a, other)
                self.check_ops(other, a)

    def test_real_division_by_zero(self):
        for zero in (GR(0), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                GR(F(3, 2)) / zero
        for x in (GR(F(3, 2)), 3, Fraction(3, 2)):
            with pytest.raises(ZeroDivisionError):
                x / GR(0)


def exact_zero_seeded(u, v):
    """u + v and u * v with every list seeded by EXACT_ZERO."""
    n = max(len(u.coeffs), len(v.coeffs))
    a = list(u.coeffs) + [EXACT_ZERO] * (n - len(u.coeffs))
    c = list(v.coeffs) + [EXACT_ZERO] * (n - len(v.coeffs))
    total = b.Polynomial([x + y for x, y in zip(a, c)])
    if u.is_zero or v.is_zero:
        return total, b.Polynomial(())
    out = [EXACT_ZERO] * (len(u.coeffs) + len(v.coeffs) - 1)
    for i, x in enumerate(u.coeffs):
        for j, y in enumerate(v.coeffs):
            out[i + j] = out[i + j] + x * y
    return total, b.Polynomial(out)


def exact_zero_seeded_divmod(u, v):
    """Euclidean division of u by v with the quotient seeded by EXACT_ZERO."""
    rem = list(u.coeffs)
    quo = [EXACT_ZERO] * max(0, len(rem) - len(v.coeffs) + 1)
    d = v.coeffs
    while len(rem) >= len(d) and any(bool(c) for c in rem):
        if not rem[-1]:
            rem.pop()
            continue
        k = len(rem) - len(d)
        q = rem[-1] / d[-1]
        quo[k] = q
        for i, c in enumerate(d):
            rem[k + i] = rem[k + i] - q * c
        rem.pop()
    return b.Polynomial(quo), b.Polynomial(rem)


class TestPolynomial:
    def test_zero_polynomial_flagged(self):
        z = b.Polynomial(())
        assert z.is_zero and z.degree == -1
        assert b.Polynomial((0, 0)).is_zero

    def test_divmod_roundtrip(self):
        rng = random.Random(11)
        for _ in range(25):
            a = b.Polynomial([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))])
            d = b.Polynomial([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
            if d.is_zero:
                continue
            q, r = a.divmod(d)
            assert q * d + r == a
            assert r.is_zero or r.degree < d.degree

    def test_derivative(self):
        p = b.Polynomial((1, 2, 3))  # 1 + 2z + 3z^2
        assert p.derivative() == b.Polynomial((2, 6))

    def test_int_zero_seeds_are_bit_identical(self):
        # sums, products and quotients seed their lists with the int 0; the
        # reference seeds them with the exact zero, which on the float lane
        # dispatches through GaussianRational before reaching complex
        rng = random.Random(97)

        def draw(exact):
            size = rng.randint(1, 6)
            if exact:
                return b.Polynomial([random_fraction(rng) for _ in range(size)])
            return b.Polynomial([rng.choice((0.0, -0.0, rng.uniform(-9, 9))) for _ in range(size)])

        def bits(p):
            if p.exact:
                return p.coeffs
            return tuple((type(c), complex(c).real.hex(), complex(c).imag.hex()) for c in p.coeffs)

        for lanes in [(True, True), (False, False), (True, False), (False, True)] * 25:
            u, v = draw(lanes[0]), draw(lanes[1])
            got = [u + v, u * v]
            want = list(exact_zero_seeded(u, v))
            if not v.is_zero:
                got += list(u.divmod(v))
                want += list(exact_zero_seeded_divmod(u, v))
            assert [bits(p) for p in got] == [bits(p) for p in want]

    def test_mixed_coefficients_promote(self):
        p = b.Polynomial((F(1, 2), 0.25))
        assert not p.exact


def random_symmetric(rng, n, kind):
    """A random exact symmetric matrix of one of four kinds: "general",
    "zero_lead" (zero leading diagonal entries, so the elimination must
    pivot symmetrically), "zero_diagonal" (every diagonal entry zero, so it
    must take 2x2 pivots) and "singular" (rank below n by construction)."""
    if kind == "singular":
        rank = rng.randint(0, n - 1)
        t = [[random_fraction(rng, span=3, den=2) for _ in range(n)] for _ in range(rank)]
        d = [rng.choice((-1, 1)) * random_fraction(rng, nonzero=True) for _ in range(rank)]
        return [
            [sum((t[k][i] * d[k] * t[k][j] for k in range(rank)), F(0)) for j in range(n)]
            for i in range(n)
        ]
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = random_fraction(rng, span=5, den=7)
    if kind == "zero_lead":
        for i in range(rng.randint(1, n)):
            m[i][i] = F(0)
    elif kind == "zero_diagonal":
        for i in range(n):
            m[i][i] = F(0)
    return m


class TestHermitianInertia:
    def test_golden_pick_matrix(self):
        m = b.HermitianMatrix([[-1, 1], [1, 1]])
        assert b.hermitian_inertia(m) == (1, 0, 1)

    def test_singular_pick_matrix(self):
        m = b.HermitianMatrix([[-1, 1], [1, -1]])
        assert b.hermitian_inertia(m) == (1, 1, 0)

    def test_identity(self):
        assert b.hermitian_inertia(b.HermitianMatrix([[1, 0], [0, 1]])) == (0, 0, 2)

    def test_zero_diagonal_block(self):
        m = b.HermitianMatrix([[0, 2], [2, 0]])
        assert b.hermitian_inertia(m) == (1, 0, 1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            b.HermitianMatrix([[0, 1], [2, 0]])

    def test_non_real_exact_rejected(self):
        with pytest.raises(ValueError, match="not real"):
            b.HermitianMatrix([[1, GR(0, 1)], [GR(0, -1), 1]])

    def test_exact_matches_float_spectrum(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 6)
            raw = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
            exact = b.hermitian_inertia(b.HermitianMatrix(sym))
            floats = b.hermitian_inertia(
                b.HermitianMatrix([[float(v) for v in row] for row in sym]), rank_tol=1e-12
            )
            assert exact == floats

    def test_congruence_invariance(self):
        # inertia is preserved under T* M T for invertible T
        rng = random.Random(7)
        done = 0
        while done < 20:
            n = rng.randint(2, 6)
            raw = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
            t = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
            if not exact_det(t):
                continue
            prod = [
                [
                    sum(t[k][i] * sym[k][m] * t[m][j] for k in range(n) for m in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert b.hermitian_inertia(b.HermitianMatrix(prod)) == b.hermitian_inertia(
                b.HermitianMatrix(sym)
            )
            done += 1


class TestMatrixInverse:
    def test_golden_inverse(self):
        inv = b.matrix_inverse([[F(-1), F(1)], [F(1), F(1)]])
        expected = [[F(-1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
        assert all(inv[i][j] == expected[i][j] for i in range(2) for j in range(2))

    def test_identity(self):
        inv = b.matrix_inverse([[F(1), F(0)], [F(0), F(1)]])
        assert inv[0][0] == 1 and inv[1][1] == 1 and not inv[0][1] and not inv[1][0]

    def test_singular_rejected(self):
        with pytest.raises(b.SingularMatrixError):
            b.matrix_inverse([[F(-1), F(1)], [F(1), F(-1)]])

    def test_float_ill_conditioned_rejected(self):
        with pytest.raises(b.SingularMatrixError):
            b.matrix_inverse([[1.0, 1.0], [1.0, 1.0 + 1e-16]])

    def test_non_symmetric_exact_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            b.matrix_inverse([[F(1), F(2)], [F(3), F(4)]])

    def test_exact_round_trip(self):
        rng = random.Random(3)
        kinds = ("general", "zero_lead", "zero_diagonal", "singular")
        seen = dict.fromkeys(kinds, 0)
        for draw in range(80):
            kind = kinds[draw % 4]
            m = random_symmetric(rng, rng.randint(1, 10), kind)
            n = len(m)
            reference = gauss_jordan_inverse(m)
            if reference is None:
                with pytest.raises(b.SingularMatrixError):
                    b.matrix_inverse(m)
                continue
            inv = b.matrix_inverse(m)
            assert all(type(v) is F for row in inv for v in row)
            assert inv == reference
            for i in range(n):
                for j in range(n):
                    entry = sum(m[i][k] * inv[k][j] for k in range(n))
                    assert entry == (1 if i == j else 0)
            seen[kind] += 1
        assert seen["general"] >= 15 and seen["zero_lead"] >= 15
        assert seen["zero_diagonal"] >= 5 and seen["singular"] == 0

    def test_kernel_basis(self):
        kernel = symmetric_elimination([[F(-1), F(1)], [F(1), F(-1)]]).kernel
        assert len(kernel) == 1
        y = kernel[0]
        assert -y[0] + y[1] == 0 and y[0] - y[1] == 0
        assert any(bool(v) for v in y)


class TestSymmetricElimination:
    """The one exact elimination against independent references: Schur
    updates for the inertia, Gauss-Jordan for the solution, P V = 0 for the
    kernel."""

    def test_matches_references(self):
        rng = random.Random(41)
        kinds = ("general", "zero_lead", "zero_diagonal", "singular")
        zeros_seen = two_by_two = 0
        for draw in range(240):
            kind = kinds[draw % 4]
            n = rng.randint(1, 10)
            m = random_symmetric(rng, n, kind)
            width = rng.randint(0, 3)
            rhs = [[random_fraction(rng) for _ in range(width)] for _ in range(n)]
            out = symmetric_elimination(m, rhs)
            assert out.inertia == schur_inertia(m)
            zeros = out.inertia.zeros
            assert len(out.kernel) == zeros
            if zeros:
                zeros_seen += 1
                assert out.solution is None
                for v in out.kernel:
                    assert all(type(x) is F for x in v)
                    assert all(sum(m[i][k] * v[k] for k in range(n)) == 0 for i in range(n))
                gram = [[sum(u[k] * v[k] for k in range(n)) for v in out.kernel] for u in out.kernel]
                assert exact_det(gram) != 0  # the kernel vectors are independent
                continue
            inverse = gauss_jordan_inverse(m)
            expected = [
                [sum(inverse[i][k] * rhs[k][j] for k in range(n)) for j in range(width)]
                for i in range(n)
            ]
            assert out.solution == expected
            two_by_two += kind == "zero_diagonal"
        assert zeros_seen >= 60 and two_by_two >= 40

    def test_empty_and_zero_matrices(self):
        assert symmetric_elimination([]) == ((0, 0, 0), [], [])
        out = symmetric_elimination([[0, 0], [0, 0]])
        assert out.inertia == (0, 2, 0) and out.solution is None
        assert out.kernel == [[1, 0], [0, 1]]

    def test_accepts_gaussian_rational_rows(self):
        rows = b.HermitianMatrix([[F(1, 2), F(-3)], [F(-3), 0]]).rows
        out = symmetric_elimination(rows, [[1, 0], [0, 1]])
        assert out.inertia == (1, 0, 1)
        assert out.solution == gauss_jordan_inverse([[F(1, 2), F(-3)], [F(-3), F(0)]])


class TestRationalSimplify:
    def test_common_linear_factor(self):
        r = b.RationalFunction(b.Polynomial((0, 1)), b.Polynomial((0, 1)), reduce=False)
        assert b.RationalFunction(r.num, r.den) == rf((1,))

    def test_gcd_cancellation(self):
        # oracle by construction: multiply (2z^2-1) and (2z-1)^2 by the factor z
        core_num = b.Polynomial((-1, 0, 2))
        core_den = b.Polynomial((1, -4, 4))
        factor = b.Polynomial((0, 1))
        r = b.RationalFunction(core_num * factor, core_den * factor, reduce=False)
        simplified = b.RationalFunction(r.num, r.den)
        assert simplified.num == core_num and simplified.den == core_den

    def test_already_coprime_unchanged(self):
        r = rf((1, 2), (-1, 2))
        s = b.RationalFunction(r.num, r.den)
        assert s.num.coeffs == r.num.coeffs and s.den.coeffs == r.den.coeffs

    def test_simplify_preserves_values(self):
        rng = random.Random(13)
        for _ in range(10):
            num = b.Polynomial([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            den = b.Polynomial([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
            common = b.Polynomial([F(rng.randint(-3, 3)), F(rng.randint(1, 3))])
            if num.is_zero or den.is_zero:
                continue
            raw = b.RationalFunction(num * common, den * common, reduce=False)
            slim = b.RationalFunction(raw.num, raw.den)
            checked = 0
            while checked < 50:
                z = GR(F(rng.randint(-40, 40), rng.randint(1, 7)))
                try:
                    lhs = slim.eval(z)
                    rhs_num = (num * common).eval(z)
                    rhs_den = (den * common).eval(z)
                    if not rhs_den:
                        continue
                    assert lhs == rhs_num / rhs_den
                except b.PoleError:
                    continue
                checked += 1

    def test_float_clustering_is_conservative(self):
        # roots 1e-3 apart are kept; roots 1e-12 apart cancel
        near = b.RationalFunction(
            b.Polynomial((-1.0, 1.0)), b.Polynomial((-(1.0 + 1e-3), 1.0)), reduce=False
        )
        kept = b.RationalFunction(near.num, near.den)
        assert kept.num.degree == 1 and kept.den.degree == 1
        close = b.RationalFunction(
            b.Polynomial((-1.0, 1.0)), b.Polynomial((-(1.0 + 1e-12), 1.0)), reduce=False
        )
        cancelled = b.RationalFunction(close.num, close.den)
        assert cancelled.num.degree == 0 and cancelled.den.degree == 0


class TestRationalEval:
    def test_float_samples_match_exact_horner(self):
        # reference: Polynomial.eval at a complex point, which adds each exact
        # coefficient through GaussianRational.__radd__
        rng = random.Random(29)
        for _ in range(200):
            num = b.Polynomial([random_fraction(rng, 9, 7) for _ in range(rng.randint(1, 9))])
            den = b.Polynomial([random_fraction(rng, 9, 7) for _ in range(rng.randint(1, 9))])
            if den.is_zero:
                continue
            exact = b.RationalFunction(num, den)
            lifted = b.RationalFunction(num.to_complex_array(), den.to_complex_array())
            z = complex(rng.uniform(-5, 5), rng.choice([0.0, rng.uniform(-2, 2)]))
            for f in (exact, lifted):
                n_val, d_val = f.num.eval(z), f.den.eval(z)
                if abs(d_val) < POLE_TOL * max(1.0, abs(n_val)):
                    with pytest.raises(b.PoleError):
                        f.eval(z)
                    continue
                expected = n_val / d_val
                assert f.eval(z) == expected
                assert RationalSampler(f)(z) == expected

    def test_split_samples_match_one_point_calls(self):
        # every value, derivative and pole flag of the array pass has the bits
        # of the one-point Python evaluation, on both lanes and with complex
        # coefficients
        rng = random.Random(31)
        checked = poles = 0
        for _ in range(60):
            num = b.Polynomial([random_fraction(rng, 9, 7) for _ in range(rng.randint(1, 9))])
            den = b.Polynomial([random_fraction(rng, 9, 7) for _ in range(rng.randint(1, 9))])
            if den.is_zero:
                continue
            exact = b.RationalFunction(num, den)
            twisted = b.RationalFunction(
                [complex(c) * complex(1, rng.uniform(-1, 1)) for c in num.coeffs],
                den.to_complex_array(),
            )
            for f in (exact, twisted):
                roots = np.roots(f.den.to_complex_array()[::-1]) if f.den.degree >= 1 else []
                points = [complex(rng.uniform(-6, 6), rng.uniform(1e-9, 3)) for _ in range(20)]
                points += [complex(r) + complex(0, 2.0 ** -rng.randint(0, 40)) for r in roots]
                z = np.array([[q.real for q in points], [q.imag for q in points]])
                with np.errstate(all="ignore"):
                    values, pole = f.sampler.split_samples(z, derivative=True)
                slope = pointwise_derivative(f)
                for j, q in enumerate(points):
                    try:
                        expected = (f.sampler(q), slope(q))
                    except b.PoleError:
                        assert pole[j]
                        poles += 1
                        continue
                    assert not pole[j]
                    for k in range(2):
                        got = complex(values[0, k, j], values[1, k, j])
                        assert bits(got) == bits(expected[k])
                    checked += 1
        assert checked > 1000 and poles > 0

    def test_split_arithmetic_is_cpython_complex_arithmetic(self):
        # numpy's complex128 multiply, divide and abs round differently on
        # many operands; the split forms must not, specials included
        rng = np.random.default_rng(37)
        scale = 10.0 ** rng.uniform(-300, 300, size=(4, 20000))
        parts = rng.standard_normal((4, 20000)) * scale
        specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e-320]
        grid = np.array([(a, b_, c, d) for a in specials for b_ in specials
                         for c in specials[:6] for d in specials[:6]]).T
        parts = np.concatenate([parts, grid], axis=1)
        a, c = parts[:2], parts[2:]
        with np.errstate(all="ignore"):
            product = split_product(a, c)
            quotient = split_quotient(a, c)
            modulus = np.hypot(a[0], a[1])
        for j in range(parts.shape[1]):
            x, y = complex(a[0, j], a[1, j]), complex(c[0, j], c[1, j])
            assert bits(complex(product[0, j], product[1, j])) == bits(x * y)
            if y:
                assert bits(complex(quotient[0, j], quotient[1, j])) == bits(x / y)
            try:
                expected = abs(x)
            except OverflowError:
                expected = math.inf
            assert bits(float(modulus[j])) == bits(expected)

    def test_compiled_slope_is_the_compiled_derivative(self):
        rng = random.Random(41)
        for _ in range(50):
            p = b.Polynomial([random_fraction(rng, 99, 97) for _ in range(rng.randint(1, 9))])
            for q in (p, b.Polynomial(p.to_complex_array())):
                for got, poly in ((_compiled(q, slope=True), q.derivative()), (_compiled(q), q)):
                    expected = [bits(complex(c)) for c in reversed(poly.coeffs)]
                    assert [bits(complex(v)) for v in got] == expected

    def test_one_cached_sampler_outside_the_value(self):
        f, g = rf((1, 2), (-1, 2)), rf((1, 2), (-1, 2))
        assert f.sampler is f.sampler
        assert f.eval(0.25j) == f.sampler(0.25j)
        assert f == g and hash(f) == hash(g)  # g has compiled nothing
        for name in ("num", "_sampler"):
            with pytest.raises(AttributeError):
                setattr(f, name, None)

    def test_direct_substitution(self):
        assert rf((1, 2), (-1, 2)).eval(F(0)) == -1

    def test_pole_reported_with_location(self):
        with pytest.raises(b.PoleError) as err:
            rf((1, 2), (-1, 2)).eval(F(1, 2))
        assert err.value.location == F(1, 2)

    def test_complex_division(self):
        got = rf((1, 2), (-1, 2)).eval(GR(0, 1))
        # oracle: plain complex division
        expected = (1 + 2j) / (-1 + 2j)
        assert abs(complex(got) - expected) < 1e-15
        assert got == GR(F(3, 5), F(-4, 5))


class TestRationalDerivative:
    def test_constant(self):
        assert rf((5,)).derivative().is_zero

    def test_quotient_rule_golden(self):
        # oracle: (2(2z-1) - 2(2z+1)) / (2z-1)^2 = -4/(2z-1)^2
        got = rf((1, 2), (-1, 2)).derivative()
        assert got == rf((-4,), (1, -4, 4))

    def test_monomial(self):
        assert rf((0, 0, 1)).derivative() == rf((0, 2))

    def test_against_central_differences(self):
        rng = random.Random(17)
        for _ in range(10):
            num = b.Polynomial([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            den = b.Polynomial([F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3)])
            if num.is_zero or den.is_zero:
                continue
            r = b.RationalFunction(num, den)
            deriv = r.derivative()
            z = 0.3 + rng.random()
            try:
                third = r.derivative().derivative().derivative().eval(z)
            except b.PoleError:
                continue
            bound = abs(complex(third)) / 6.0 + 1.0
            for h in (1e-3, 1e-4):
                approx = (complex(r.eval(z + h)) - complex(r.eval(z - h))) / (2 * h)
                err = abs(complex(deriv.eval(z)) - approx)
                assert err <= 2.0 * bound * h * h + 1e-11


class TestSerialization:
    def test_integer_and_fraction_round_trip(self):
        r = rf((F(1, 2), 1), (-1, 2))
        doc = b.RationalFunction.from_json(r.to_json())
        assert doc == r

    def test_exact_strings(self):
        r = b.RationalFunction.from_json({"num": ["1/2", 1], "den": [2]})
        assert r == rf((F(1, 4), F(1, 2)))

    def test_float_round_trip(self):
        r = b.RationalFunction(b.Polynomial((0.25, 1.0)), b.Polynomial((1.0, 2.0)))
        doc = b.RationalFunction.from_json(r.to_json())
        assert doc.isclose(r)

    def test_canonical_display_matches_integer_form(self):
        # (2z+1)/(2z-1) keeps its textbook integer coefficients
        assert rf((1, 2), (-1, 2)).to_json() == {"num": [1, 2], "den": [-1, 2]}

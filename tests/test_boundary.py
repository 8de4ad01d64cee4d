import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick._sections import (
    negative_count,
    nevanlinna_kernel,
    pole_free_grid,
    span_of,
    upper_half_grid,
)
from bnpick.boundary import LimitKind

from conftest import (
    DENSE_GRID,
    bits,
    grid_system,
    lane_parameters,
    loop_kernel,
    probe_set,
    random_fraction,
    real_poles,
    reference_nt_limit,
    rf,
    unique_solution,
)

F = Fraction


class TestNtLimit:
    def test_value_at_regular_point(self):
        est = b.nt_limit(unique_solution(), -0.5, LimitKind.VALUE)
        assert est.is_finite and abs(est.value) < 1e-9

    def test_derivative(self):
        est = b.nt_limit(unique_solution(), -0.5, LimitKind.DERIVATIVE)
        assert est.is_finite and abs(est.value - (-1.0)) < 1e-9

    def test_residual_at_pole(self):
        est = b.nt_limit(unique_solution(), 0.5, LimitKind.RESIDUAL)
        assert est.is_finite and abs(est.value - 1.0) < 1e-9

    def test_kernel_diagonal_of_identity(self):
        est = b.nt_limit(rf((0, 1)), 3.0, LimitKind.KERNEL_DIAGONAL)
        assert est.is_finite and abs(est.value - 1.0) < 1e-9

    def test_value_blowup_is_infinite(self):
        est = b.nt_limit(rf((1,), (0, 1)), 0.0, LimitKind.VALUE)
        assert est.is_infinite

    def test_double_pole_kernel_diagonal_infinite(self):
        est = b.nt_limit(rf((-1,), (0, 1)), 0.0, LimitKind.KERNEL_DIAGONAL)
        assert est.is_infinite

    def test_richardson_matches_exact_evaluation(self):
        rng = random.Random(43)
        done = 0
        while done < 20:
            num = b.Polynomial([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
            den = b.Polynomial([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
            if num.is_zero or den.is_zero:
                continue
            f = b.RationalFunction(num, den)
            x0 = F(rng.randint(-6, 6), 2)
            try:
                expected = complex(f.eval(x0))
            except b.PoleError:
                continue
            est = b.nt_limit(f, x0, LimitKind.VALUE)
            assert est.is_finite
            assert abs(est.value - expected) <= 1e-9 * max(1.0, abs(expected))
            done += 1

    def test_pointwise_derivative_matches_exact_derivative(self):
        rng = random.Random(47)
        done = 0
        while done < 40:
            num = b.Polynomial([random_fraction(rng) for _ in range(rng.randint(1, 9))])
            den = b.Polynomial([random_fraction(rng) for _ in range(rng.randint(1, 9))])
            if den.is_zero:
                continue
            f = b.RationalFunction(num, den)
            x0 = random_fraction(rng)
            if not f.den.eval(x0):
                continue
            expected = complex(f.derivative().eval(F(x0)))
            est = b.nt_limit(f, x0, LimitKind.DERIVATIVE)
            assert est.is_finite
            assert abs(est.value - expected) <= 1e-9 * max(1.0, abs(expected))
            done += 1



class TestDivergence:
    """Where a limit settles or diverges: ``nt_limit``'s jets against the
    one-point path oracle, and on w across the two lanes."""

    def test_nt_limit_paths_of_random_functions(self):
        # the path oracle's verdict holds wherever it is decided: a converged
        # path limit is the jet's value, a divergent one an infinite jet
        rng = random.Random(127)
        statuses = set()
        for _ in range(40):
            roots = [F(rng.randint(-8, 8), 2) for _ in range(rng.randint(1, 3))]
            num = b.Polynomial(tuple(random_fraction(rng) for _ in range(rng.randint(1, 4))))
            if num.is_zero:
                continue
            f = b.RationalFunction(num, b.Polynomial.from_real_roots(roots))
            for x0 in {*roots, F(rng.randint(-16, 16), 4)}:
                for kind in LimitKind:
                    est, ref = b.nt_limit(f, x0, kind), reference_nt_limit(f, x0, kind)
                    if ref.is_finite and ref.converged:
                        assert est.is_finite
                        assert abs(est.value - ref.value.real) <= 1e-6 * max(1.0, abs(ref.value))
                    elif ref.is_infinite:
                        assert est.is_infinite, (f, x0, kind)
                    statuses.add(est.status)
        assert {"finite", "infinite"} <= statuses

    def test_grid_systems_on_both_lanes(self):
        # w read through its origin: the float lane's limits are the exact
        # lane's, status for status, at n = 32 too, where the exact w's
        # coefficients exceed the float range
        statuses = set()
        for n in (8, 16, 32):
            systems = [grid_system(random.Random(n), n, exact=exact) for exact in (True, False)]
            thetas = [b.build_theta(sys_) for sys_ in systems]
            for phis in zip(lane_parameters(True), lane_parameters(False)):
                exact_w, float_w = map(b.apply_lft, thetas, phis)
                for x, kind in itertools.product(systems[0].X, LimitKind):
                    want, got = b.nt_limit(exact_w, x, kind), b.nt_limit(float_w, float(x), kind)
                    assert got.status == want.status, (n, phis, x, kind)
                    assert not got.is_finite or abs(got.value - want.value) <= 1e-6 * max(
                        1.0, abs(want.value))
                    statuses.add(want.status)
        assert statuses == {"finite", "infinite"}


def point_by_point_grid(f, span, config):
    """``pole_free_grid`` sampling one grid point at a time by ``f.eval``
    (the reference)."""
    points, values = [], []
    for z in upper_half_grid(span, config):
        try:
            values.append(f.eval(z))
        except b.PoleError:
            continue
        points.append(z)
    return points, values


class TestPoleFreeGrid:
    def test_batched_grid_matches_point_by_point(self):
        rng = random.Random(131)
        functions = [unique_solution(), rf((0, 1)), rf((-1,), (0, 1)),
                     # |n| large against |d| away from z = 1: those points are poles
                     b.RationalFunction(b.Polynomial((-1e14, 1e14)), b.Polynomial((1.0,)))]
        for _ in range(30):
            num = b.Polynomial([random_fraction(rng) for _ in range(rng.randint(1, 6))])
            den = b.Polynomial([random_fraction(rng) for _ in range(rng.randint(1, 6))])
            if not num.is_zero and not den.is_zero:
                functions.append(b.RationalFunction(num, den))
                functions.append(b.RationalFunction(
                    [complex(c) * (1 + 0.5j) for c in num.coeffs], den.to_complex_array()))
        skipped = 0
        for f in functions:
            for config in (b.DEFAULT_GRID, DENSE_GRID):
                span = span_of(real_poles(f))
                points, values = pole_free_grid(f, span, config)
                ref_points, ref_values = point_by_point_grid(f, span, config)
                assert points == ref_points
                assert [bits(v) for v in values] == [bits(v) for v in ref_values]
                skipped += len(upper_half_grid(span, config)) - len(points)
        assert skipped > 0

    def test_point_on_an_upper_pole_is_skipped_not_moved(self):
        # 1/((z - 0.4)^2 + 0.09) has its pole 0.4 + 0.3i on the default grid
        # over (-1, 1), to rounding: that point is dropped and none is moved,
        # exactly or in floats, and the count reads the other points
        grid = upper_half_grid((-1.0, 1.0), b.DEFAULT_GRID)
        on_pole = [z for z in grid if abs(z - (0.4 + 0.3j)) < 1e-12]
        assert len(on_pole) == 1
        for f in (rf((20,), (5, -16, 20)), rf((1.0,), (0.25, -0.8, 1.0))):
            assert real_poles(f) == []
            points, values = pole_free_grid(f, (-1.0, 1.0), b.DEFAULT_GRID)
            assert points == [z for z in grid if z not in on_pole]
            kernel = nevanlinna_kernel(points, values)
            count = b.kernel_negative_squares(f, span=(-1.0, 1.0))
            assert count == negative_count(kernel, b.DEFAULT_GRID.eig_tol)

    def test_w_is_sampled_through_its_origin(self):
        # apply_lft's w is sampled through Theta's residue form on Theta's
        # grid table: the values of the exact w at those points, to rounding
        for sys_, phi in probe_set(8, True):
            w = b.apply_lft(b.build_theta(sys_), phi)
            plain = b.RationalFunction(w.num, w.den, reduce=False)
            assert w._origin is not None and plain._origin is None and plain == w
            points, values = pole_free_grid(w, span_of(sys_.X), b.DEFAULT_GRID)
            assert isinstance(points, np.ndarray) and len(points) == 12
            want = np.array([plain.eval(complex(z)) for z in points])
            assert np.abs(values - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


class TestCaratheodoryJulia:
    """For a rational function every route to the boundary derivative reads
    one Laurent jet, so the Caratheodory-Julia routes agree identically:
    at a regular point the kernel-diagonal limit is the derivative limit and
    the difference quotient's value, and at a pole the residual of f is
    -1 over the kernel-diagonal limit of -1/f and the value of
    -(z - x)^2 f'."""

    @staticmethod
    def bounded_routes(f, x):
        value = b.nt_limit(f, x, LimitKind.VALUE).value.real
        quotient = (f - value) / rf((-x, 1))
        return (b.nt_limit(f, x, LimitKind.KERNEL_DIAGONAL).value,
                b.nt_limit(f, x, LimitKind.DERIVATIVE).value,
                b.nt_limit(quotient, x, LimitKind.VALUE).value)

    @staticmethod
    def pole_routes(f, x):
        shift = rf((-x, 1))
        return (-1.0 / b.nt_limit(-1 / f, x, LimitKind.KERNEL_DIAGONAL).value,
                b.nt_limit(f, x, LimitKind.RESIDUAL).value,
                b.nt_limit(-shift * shift * f.derivative(), x, LimitKind.VALUE).value)

    def test_identity_function(self):
        assert self.bounded_routes(rf((0, 1)), 0.0) == (1.0, 1.0, 1.0)

    def test_unique_solution_at_regular_node(self):
        assert self.bounded_routes(unique_solution(), F(-1, 2)) == (-1.0, -1.0, -1.0)
        routes = self.bounded_routes(unique_solution(), -0.5)
        assert max(abs(r + 1.0) for r in routes) <= 1e-12

    def test_negative_reciprocal_unbounded_route(self):
        assert self.pole_routes(rf((-1,), (0, 1)), F(0)) == (-1.0, -1.0, -1.0)
        assert self.pole_routes(rf((-1,), (0, 1)), 0.0) == (-1.0, -1.0, -1.0)

    def test_kernel_diagonal_nonnegative_for_nevanlinna(self):
        # kernel diagonals of Nevanlinna functions have nonnegative limits
        samples = (rf((0, 1)), rf((2, 1)), rf((-1,), (0, 1)), rf((-1, 2), (0, 1)))
        for f in samples:
            for x0 in (-1.5, 0.25, 2.0):
                est = b.nt_limit(f, x0, LimitKind.KERNEL_DIAGONAL)
                assert est.is_infinite or est.value.real >= -1e-9

    def test_residual_nonpositive_for_nevanlinna(self):
        samples = (rf((0, 1)), rf((-1,), (0, 1)), rf((-1, 2), (0, 1)), rf((2, 1)))
        for f in samples:
            for x0 in (-1.0, 0.0, 0.5):
                est = b.nt_limit(f, x0, LimitKind.RESIDUAL)
                assert est.is_finite
                assert est.value.real <= 1e-9


class TestKernelNegativeSquares:
    def test_identity_is_positive(self):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            assert b.kernel_negative_squares(rf((0, 1)), config=config, span=(-1.0, 1.0)) == 0

    def test_unique_solution_has_one(self):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            count = b.kernel_negative_squares(unique_solution(), config=config, span=(0.5, 0.5))
            assert count == 1

    def test_negative_reciprocal_is_positive(self):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            assert b.kernel_negative_squares(rf((-1,), (0, 1)), config=config, span=(0.0, 0.0)) == 0

    def test_counts_the_whole_sampled_matrix(self):
        # sum of 1/(z - x) over eight poles: eight negative squares, more
        # than any six sample points can show
        poles = sum((rf((1,), (-x, 1)) for x in range(8)), rf((0,)))
        for f in (rf((0, 1)), unique_solution(), rf((0, 0, 1)), rf((0, 2, 0, 1)), poles):
            span = span_of(real_poles(f))
            points, _ = pole_free_grid(f, span, DENSE_GRID)
            kernel = loop_kernel(f, points)
            built = nevanlinna_kernel(points, [complex(f.eval(z)) for z in points])
            assert np.array_equal(built, kernel)
            expected = negative_count(kernel, DENSE_GRID.eig_tol)
            assert b.kernel_negative_squares(f, config=DENSE_GRID, span=span) == expected


class TestFmiCheck:
    def test_degenerate_solution_reaches_kappa(self, sys3):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            assert b.fmi_check(sys3, unique_solution(), config=config) == 1

    def test_transform_of_infinity(self, sys1):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            assert b.fmi_check(sys1, rf((0, 1)), config=config) == 1

    def test_counts_the_whole_bordered_matrix(self, sys1, sys3):
        for sys_, w in ((sys3, unique_solution()), (sys1, rf((0, 1))), (sys1, rf((0, -1)))):
            points, _ = pole_free_grid(w, span_of(sys_.X), DENSE_GRID)
            n, m = sys_.n, len(points)
            full = np.zeros((n + m, n + m), dtype=complex)
            full[:n, :n] = sys_.P.to_numpy()
            full[n:, n:] = loop_kernel(w, points)
            for j, z in enumerate(points):
                for i in range(n):
                    col = (complex(w.eval(z)) * float(sys_.E[i]) - float(sys_.C[i])) / (
                        z - float(sys_.X[i])
                    )
                    full[i, n + j] = col
                    full[n + j, i] = np.conj(col)
            expected = negative_count(full, DENSE_GRID.eig_tol)
            assert b.fmi_check(sys_, w, config=DENSE_GRID) == expected

    def test_one_point_section_matches_hand_computation(self, sys1):
        # bordering P with the single point z: section [[-1,1,1],[1,1,1],[1,1,1]]
        z = 1j
        w = rf((0, 1))
        full = np.array([[-1, 1, 1], [1, 1, 1], [1, 1, 1]], dtype=complex)
        col = (complex(w.eval(z)) * np.array([1.0, 1.0]) - np.array([0.0, 1.0])) / (
            z - np.array([0.0, 1.0])
        )
        assert np.allclose(col, [1.0, 1.0])
        kernel_diag = (complex(w.eval(z)) - complex(w.eval(z)).conjugate()) / (z - z.conjugate())
        assert abs(kernel_diag - 1.0) < 1e-15
        eigs = np.linalg.eigvalsh(full)
        assert (eigs < -1e-9).sum() == 1 and (np.abs(eigs) <= 1e-9).sum() == 1

    def test_non_solution_exceeds_kappa(self, sys1):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            assert b.fmi_check(sys1, rf((0, -1)), config=config) >= 2

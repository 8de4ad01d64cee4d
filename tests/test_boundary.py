import cmath
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import bnpick as b
from bnpick import boundary
from bnpick._sections import negative_count, nevanlinna_kernel, pole_free_grid, span_of
from bnpick.boundary import LimitKind

from conftest import DENSE_GRID, loop_kernel, random_fraction, rf, unique_solution

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
            # a pole closer to x0 than the path's start t0 = 1/2 can trip the
            # divergence test before the samples settle
            if f.den.degree >= 1:
                roots = np.roots(f.den.to_complex_array()[::-1])
                if np.abs(roots - float(x0)).min() < 0.5:
                    continue
            expected = complex(f.derivative().eval(F(x0)))
            est = b.nt_limit(f, x0, LimitKind.DERIVATIVE)
            assert est.is_finite
            assert abs(est.value - expected) <= 1e-9 * max(1.0, abs(expected))
            done += 1



def windowed_diverging(raw) -> bool:
    """The divergence rule rebuilt over the last six samples on every step,
    kept as the reference for the running count of growing steps."""
    window_size = boundary.DIVERGENCE_WINDOW
    if len(raw) < window_size + 1:
        return False
    window = [abs(v) for v in raw[-(window_size + 1):]]
    if window[-1] < 1e3:
        return False
    growing = all(window[i + 1] > window[i] for i in range(window_size))
    return growing and window[-1] >= boundary.DIVERGENCE_FACTOR * window[0]


class SequenceSampler:
    """A stand-in sampler returning values[k] at the k-th point of the
    nt_limit path x0 + i t0 2^-k; None is a pole."""

    def __init__(self, values, t0=0.5):
        self.values, self.t0 = values, t0

    def __call__(self, z):
        value = self.values[round(math.log2(self.t0 / z.imag))]
        if value is None:
            raise b.PoleError(z)
        return value


def random_path(rng, length=41):
    """Samples whose magnitude walks with a random drift, with poles, non-finite
    values and repeated magnitudes mixed in."""
    drift, size, values = rng.uniform(-0.5, 1.5), 10.0 ** rng.uniform(-2, 4), []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.03:
            values.append(None)
            continue
        if roll < 0.05:
            values.append(complex("inf"))
            continue
        if roll > 0.1:
            size *= math.exp(rng.gauss(drift, 0.6))
        values.append(size * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    return values


class TestDivergence:
    """The running count of growing steps decides as the windowed rule did."""

    @staticmethod
    def both_rules(monkeypatch, f, x0, kind):
        running = b.nt_limit(f, x0, kind)
        with monkeypatch.context() as m:
            m.setattr(boundary, "_diverging", lambda raw, growing: windowed_diverging(raw))
            windowed = b.nt_limit(f, x0, kind)
        return running, windowed

    def test_random_sequences(self, monkeypatch):
        rng = random.Random(113)
        steps = set()
        for _ in range(400):
            f = SimpleNamespace(sampler=SequenceSampler(random_path(rng)))
            running, windowed = self.both_rules(monkeypatch, f, 0.0, LimitKind.VALUE)
            assert running == windowed
            if running.is_infinite:
                steps.add(len(running.approximants))
        assert len(steps) >= 10

    def test_nt_limit_paths_of_random_functions(self, monkeypatch):
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
                    running, windowed = self.both_rules(monkeypatch, f, x0, kind)
                    assert running == windowed
                    statuses.add(running.status)
        assert {"finite", "infinite"} <= statuses

class TestCaratheodoryJulia:
    def test_identity_function(self):
        rep = b.caratheodory_julia_check(rf((0, 1)), 0.0)
        assert rep.theorem == "bounded" and rep.consistent
        for est in rep.estimates.values():
            assert abs(est.value - 1.0) < 1e-7

    def test_unique_solution_at_regular_node(self):
        rep = b.caratheodory_julia_check(unique_solution(), -0.5)
        assert rep.theorem == "bounded" and rep.consistent
        assert rep.max_discrepancy < 1e-7
        for est in rep.estimates.values():
            assert abs(est.value - (-1.0)) < 1e-7

    def test_negative_reciprocal_unbounded_route(self):
        rep = b.caratheodory_julia_check(rf((-1,), (0, 1)), 0.0)
        assert rep.theorem == "unbounded" and rep.consistent
        assert rep.max_discrepancy < 1e-7
        for est in rep.estimates.values():
            assert abs(est.value - (-1.0)) < 1e-7

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
            assert b.kernel_negative_squares(rf((0, 1)), config=config) == 0

    def test_unique_solution_has_one(self):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            assert b.kernel_negative_squares(unique_solution(), config=config) == 1

    def test_negative_reciprocal_is_positive(self):
        for config in (b.DEFAULT_GRID, DENSE_GRID):
            assert b.kernel_negative_squares(rf((-1,), (0, 1)), config=config) == 0

    def test_counts_the_whole_sampled_matrix(self):
        # sum of 1/(z - x) over eight poles: eight negative squares, more
        # than any six sample points can show
        poles = sum((rf((1,), (-x, 1)) for x in range(8)), rf((0,)))
        for f in (rf((0, 1)), unique_solution(), rf((0, 0, 1)), rf((0, 2, 0, 1)), poles):
            points, _ = pole_free_grid(f, span_of(f.real_poles()), DENSE_GRID)
            kernel = loop_kernel(f, points)
            built = nevanlinna_kernel(points, [complex(f.eval(z)) for z in points])
            assert np.array_equal(built, kernel)
            expected = negative_count(kernel, DENSE_GRID.eig_tol)
            assert b.kernel_negative_squares(f, config=DENSE_GRID) == expected


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

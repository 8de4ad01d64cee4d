import cmath
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import bnpick as b
from bnpick import boundary
from bnpick._sections import (
    negative_count,
    nevanlinna_kernel,
    pole_free_grid,
    span_of,
    upper_half_grid,
)
from bnpick.boundary import LimitKind

from conftest import (
    BENCHMARK_PARAMETERS,
    DENSE_GRID,
    bits,
    grid_system,
    loop_kernel,
    random_fraction,
    reference_nt_limit,
    rf,
    same_estimate,
    unique_solution,
    windowed_diverging,
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

    def split_samples(self, z, derivative=False):
        values = [self.values[round(math.log2(self.t0 / t))] for t in z[1]]
        v = np.array([0j if x is None else x for x in values], dtype=complex)
        return np.stack([v.real, v.imag])[:, np.newaxis], np.array([x is None for x in values])


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


def path_arrays(paths, real=False):
    """Paths (None a pole) as the (samples, keep) rows of the stop rules:
    real samples, or real and imaginary parts stacked on axis 0."""
    v = np.array([[0j if x is None else x for x in path] for path in paths], dtype=complex)
    keep = np.array([[x is not None for x in path] for path in paths])
    return (v.real.copy() if real else np.stack([v.real, v.imag])), keep


def assert_matches_reference(f, requests, estimates, sampler=None):
    """Each estimate equals the one-point reference, under the running and
    the windowed divergence rules alike."""
    for (x0, kind), est in zip(requests, estimates, strict=True):
        running = reference_nt_limit(f, x0, kind, sampler=sampler)
        windowed = reference_nt_limit(f, x0, kind, sampler=sampler, diverging=windowed_diverging)
        assert same_estimate(est, running) and same_estimate(running, windowed)


class TestDivergence:
    """The array stop rules and the batched paths decide as the one-point
    reference loop does, whose running count of growing steps decides as the
    windowed rule does."""

    def test_random_sequences(self):
        rng = random.Random(113)
        paths = [random_path(rng) for _ in range(400)]
        steps = set()
        for real in (False, True):
            rows = [[None if x is None else (x.real if real else x) for x in p] for p in paths]
            estimates = boundary._richardson([LimitKind.VALUE] * len(rows),
                                             *path_arrays(rows, real), tol=1e-9)
            for row, est in zip(rows, estimates, strict=True):
                assert_matches_reference(None, [(0.0, LimitKind.VALUE)], [est],
                                         sampler=SequenceSampler(row))
                if est.is_infinite:
                    steps.add(len(est.approximants))
        assert len(steps) >= 10

    def test_nt_limit_paths_of_random_functions(self):
        rng = random.Random(127)
        statuses = set()
        for _ in range(40):
            roots = [F(rng.randint(-8, 8), 2) for _ in range(rng.randint(1, 3))]
            num = b.Polynomial(tuple(random_fraction(rng) for _ in range(rng.randint(1, 4))))
            if num.is_zero:
                continue
            f = b.RationalFunction(num, b.Polynomial.from_real_roots(roots))
            requests = [(x0, kind) for x0 in {*roots, F(rng.randint(-16, 16), 4)}
                        for kind in LimitKind]
            estimates = b.nt_limits(f, requests)
            assert_matches_reference(f, requests, estimates)
            statuses.update(est.status for est in estimates)
        assert {"finite", "infinite"} <= statuses

    def test_grid_systems_on_both_lanes(self):
        statuses = set()
        for n in (8, 16, 32):
            for exact in (True, False):
                sys_ = grid_system(random.Random(n), n, exact=exact)
                theta = b.build_theta(sys_)
                for phi in BENCHMARK_PARAMETERS:
                    w = b.apply_lft(theta, phi)
                    requests = [(x, kind) for x in sys_.X for kind in LimitKind]
                    try:
                        w.sampler
                    except OverflowError:
                        # exact w at n = 32 has coefficients beyond the float
                        # range (ROADMAP item 1): no path can be sampled
                        assert exact and n == 32
                        with pytest.raises(OverflowError):
                            b.nt_limits(w, requests)
                        continue
                    estimates = b.nt_limits(w, requests)
                    assert_matches_reference(w, requests, estimates)
                    statuses.update(est.status for est in estimates)
        assert statuses == {"finite", "infinite", "dne"}

    def test_overflowing_sample_is_skipped(self):
        # a finite sample whose modulus exceeds the float range is skipped
        # like a pole, not raised as OverflowError from abs()
        path = [complex(1 + 2.0 ** -k, 0.5) for k in range(41)]
        huge = list(path)
        huge[3] = huge[6] = complex(1.5e308, 1.5e308)
        skipped = list(path)
        skipped[3] = skipped[6] = None
        f = SimpleNamespace(sampler=SequenceSampler(huge))
        est = b.nt_limit(f, 0.0)
        assert est.is_finite
        assert same_estimate(est, b.nt_limit(SimpleNamespace(sampler=SequenceSampler(skipped)), 0.0))
        assert_matches_reference(None, [(0.0, LimitKind.VALUE)], [est],
                                 sampler=SequenceSampler(huge))

    def test_requests_come_back_in_order(self):
        f = unique_solution()
        requests = [(x0, kind) for kind in reversed(LimitKind) for x0 in (0.5, -0.5, 2.0)]
        for est, (x0, kind) in zip(b.nt_limits(f, requests), requests, strict=True):
            assert same_estimate(est, b.nt_limit(f, x0, kind))
        assert b.nt_limits(f, []) == []


def point_by_point_grid(f, span, config):
    """``pole_free_grid`` sampling one grid point at a time (the reference)."""
    avoid = ()
    if f.den.degree >= 1:
        roots = np.roots(f.den.to_complex_array()[::-1])
        avoid = tuple(r for r in roots if r.imag > 1e-9)
    points, values = [], []
    for z in upper_half_grid(span, config, avoid=avoid):
        try:
            values.append(f.sampler(z))
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
                span = span_of(f.real_poles(), fallback=(-1.0, 1.0))
                points, values = pole_free_grid(f, span, config)
                ref_points, ref_values = point_by_point_grid(f, span, config)
                assert points == ref_points
                assert [bits(v) for v in values] == [bits(v) for v in ref_values]
                skipped += len(upper_half_grid(span, config)) - len(points)
        assert skipped > 0


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

    def test_bounded_route_takes_one_batch_of_f(self, monkeypatch):
        calls = []
        nt_limits = boundary.nt_limits

        def counting(f, requests, *args, **kwargs):
            calls.append((f, list(requests)))
            return nt_limits(f, requests, *args, **kwargs)

        monkeypatch.setattr(boundary, "nt_limits", counting)
        f = unique_solution()
        b.caratheodory_julia_check(f, -0.5)
        assert calls[0] == (f, [(-0.5, LimitKind.VALUE), (-0.5, LimitKind.KERNEL_DIAGONAL),
                                (-0.5, LimitKind.DERIVATIVE)])
        assert all(g is not f for g, _ in calls[1:])

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

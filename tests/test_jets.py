"""Boundary limits read as jets: the rule, both sources and both lanes."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import bnpick as b
from bnpick import boundary, solver
from bnpick._sections import VERIFY_TOL, span_of
from bnpick.algebra import _cleared_integers
from bnpick.boundary import JET_ZERO_TOL, LimitKind, jet_limits, lft_jets, rational_jets

from conftest import (
    BENCHMARK_PARAMETERS,
    STANDARD_SWEEP,
    grid_system,
    probe_set,
    random_data,
    random_fraction,
    reference_nt_limit,
    rf,
    unique_solution,
)

F = Fraction


def floats(data):
    return b.InterpolationData(*(tuple(float(v) for v in seq) for seq in (
        data.nodes, data.values, data.derivative_bounds, data.residues)))


def close(a, b_) -> bool:
    return abs(a - b_) <= VERIFY_TOL * max(1.0, abs(b_))


class TestRule:
    def test_regular_point(self):
        # f = (1 + 2t) / (2 + t) near t = 0: f(0) = 1/2, f'(0) = (2*2 - 1*1)/4
        lim = jet_limits([F(1), F(2), 0, 0], [F(2), F(1), 0, 0])
        assert lim["value"].value == 0.5 and lim["derivative"].value == 0.75
        assert lim["kernel_diagonal"].value == 0.75 and lim["residual"].value == 0.0
        assert all(e.converged for e in lim.values())

    def test_simple_pole(self):
        # f = 3 / (t (2 + t)): residue 3/2, every other limit infinite
        lim = jet_limits([F(3), 0, 0, 0], [0, F(2), F(1), 0])
        assert lim["residual"].value == 1.5
        assert all(lim[k].is_infinite and not lim[k].converged
                   for k in ("value", "derivative", "kernel_diagonal"))

    def test_double_pole(self):
        # f = 1 / t^2: the residual is infinite; Im f(it)/t = 0 + c_1, and
        # the jets end before c_1
        lim = jet_limits([F(1), 0, 0, 0], [0, 0, F(1), 0])
        assert lim["value"].is_infinite and lim["residual"].is_infinite
        assert lim["kernel_diagonal"].status == "dne"
        # f = (1 + t) / t^2 has c_-1 = 1, so Im f(it)/t = -1/t^2 + ...
        lim = jet_limits([F(1), F(1), 0, 0], [0, 0, F(1), 0])
        assert lim["kernel_diagonal"].is_infinite

    def test_common_factor_is_shifted_out_at_most_twice(self):
        # t^2 (1 + t) / (t^2 (2 - t)) is (1 + t) / (2 - t)
        lim = jet_limits([0, 0, F(1), F(1)], [0, 0, F(2), F(-1)])
        assert lim["value"].value == 0.5 and lim["derivative"].value == 0.75
        # once: t (4 + t) / (t^2) is (4 + t) / t, a pole with residue 4
        assert jet_limits([0, F(4), F(1), 0], [0, 0, F(1), 0])["residual"].value == 4.0
        # a common zero of order three is beyond any resolvent's jets
        assert jet_limits([0, 0, 0, F(1)], [0, 0, 0, F(1)])["value"].status == "dne"

    def test_only_the_named_kinds(self):
        assert list(jet_limits([F(1), 0, 0, 0], [F(1), 0, 0, 0], ("residual",))) == ["residual"]


def reference_jet_values(num, den, kinds=boundary.JET_KINDS) -> dict:
    """``boundary._jet_values`` with a dict of reads and a dict of results:
    the reference its list form must equal."""
    s = 0
    while s < 2 and not num[s] and not den[s]:
        s += 1
    a, b_ = num[s:], den[s:]
    if not (a[0] or b_[0]):
        return dict.fromkeys(kinds, "dne")
    p = next((k for k, c in enumerate(b_) if c), len(b_))
    reads = {"value": 1, "residual": 1, "derivative": 2, "kernel_diagonal": p + 2}
    g = []
    for k in range(min(len(b_) - p, max(reads[name] for name in kinds))):
        rest = a[k]
        for m in range(1, k + 1):
            if b_[p + m]:
                rest -= b_[p + m] * g[k - m]
        g.append(rest / b_[p])
    found = {}
    for name in kinds:
        if name == "kernel_diagonal":
            odd = [g[p + k] if p + k < len(g) else None for k in range(-1, -p - 1, -2)]
            if any(odd):
                found[name] = "infinite"
            elif None in odd or p + 1 >= len(g):
                found[name] = "dne"
            else:
                found[name] = g[p + 1]
        elif name == "residual":
            found[name] = 0.0 if p == 0 else g[0] if p == 1 else "infinite"
        else:
            found[name] = "infinite" if p else g[name == "derivative"]
    return found


def random_jets(rng, exact):
    """(num, den) pairs of JET_ORDERS coefficients for every shift s = 0..2
    and denominator order p = 0..4, with zeros of both signs inside."""
    def coefficient():
        if rng.random() < 0.25:
            return F(0) if exact else rng.choice((0.0, -0.0))
        return random_fraction(rng, nonzero=True) if exact else rng.uniform(-3, 3)

    orders = boundary.JET_ORDERS
    for s in range(3):
        for p in range(5):
            for _ in range(6):
                num = [0 * coefficient() for _ in range(s)]
                den = [0 * coefficient() for _ in range(s + p)]
                num += [coefficient() for _ in range(orders)]
                den += [coefficient() for _ in range(orders)]
                if rng.random() < 0.5:
                    num[s] = coefficient() or (F(1) if exact else 1.0)
                yield num[:orders], den[:orders]


class TestJetValues:
    def test_match_the_reference_rule(self):
        rng = random.Random(2112)
        subsets = [kinds for r in range(1, 5)
                   for kinds in itertools.combinations(boundary.JET_KINDS, r)]
        cases = [jets for exact in (False, True) for jets in random_jets(rng, exact)]
        # a common zero of order three, and zeros of both signs throughout
        cases += [([0.0, -0.0, 0.0, 1.0], [-0.0, 0.0, -0.0, 2.0]),
                  ([-0.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0]),
                  ([-0.0, 1.0, -0.0, 0.0], [0.0, 0.0, 2.0, -0.0]),
                  ([1.0, -0.0, 0.0, -0.0], [-2.0, 0.0, -0.0, 0.0])]
        statuses = set()
        for num, den in cases:
            for kinds in subsets:
                found = dict(zip(kinds, boundary._jet_values(num, den, kinds)))
                want = reference_jet_values(num, den, kinds)
                assert repr(found) == repr(want), (num, den, kinds)
                statuses.update(v for v in want.values() if isinstance(v, str))
        assert statuses == {"infinite", "dne"}


class TestRationalJets:
    def test_exact_jets_are_fractions(self):
        jet = rational_jets(unique_solution(), [F(-1, 2)])[0]
        assert all(isinstance(c, (int, Fraction)) for c in jet.num + jet.den)
        assert jet.zero_test["exact"] and not jet.zero_test["zero"]
        lim = jet_limits(jet.num, jet.den)
        assert lim["value"].value == 0.0 and lim["derivative"].value == -1.0

    def test_exact_zero_test_ratio_is_correctly_rounded_beyond_the_float_range(self):
        # |den(x)| / sum_k |c_k| |x|^k from the cleared integers: a
        # coefficient of 1329 bits no longer overflows, and the ratio is the
        # correctly rounded quotient
        big = F(10) ** 400
        for den, x in [((1, -2, 1), F(1, 3)), ((-big, 1), F(0)), ((-big, 1), big / 3),
                       ((F(1, big), -3, F(5, 7)), F(-2, 9))]:
            f = b.RationalFunction(b.Polynomial((1,)), b.Polynomial(den))
            (jet,) = rational_jets(f, [x])
            terms = [F(c) * x ** k for k, c in enumerate(den)]
            want = abs(sum(terms)) / sum(map(abs, terms))
            assert jet.zero_test["margin"] == float(want) / JET_ZERO_TOL
            assert jet.zero_test["exact"] and not jet.zero_test["zero"]
        (pole,) = rational_jets(b.RationalFunction(b.Polynomial((1,)), b.Polynomial((-big, 1))), [big])
        assert pole.zero_test["zero"] and pole.zero_test["margin"] == 0.0

    def test_float_points_take_float_jets_with_the_zero_rule(self):
        f = rf((-1,), (0, 1))  # -1/z
        pole, regular = rational_jets(f, [0.0, 0.5])
        assert pole.zero_test["zero"] and not pole.zero_test["exact"]
        assert pole.zero_test["tol"] == JET_ZERO_TOL
        assert jet_limits(pole.num, pole.den)["residual"].value == -1.0
        assert jet_limits(regular.num, regular.den)["derivative"].value == 4.0
        # a denominator within JET_ZERO_TOL of its scale reads as zero
        near = rf((1.0,), (-1.0, 1.0 + JET_ZERO_TOL / 4))
        assert rational_jets(near, [1.0])[0].zero_test["zero"]

    def test_exact_taylor_is_the_binomial_sums(self):
        # T_k = sum_m C(m, k) c_m x^(m - k), as Fractions, from one integer
        # scaling of the coefficients
        rng = random.Random(23)
        for _ in range(200):
            poly = b.Polynomial([F(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(rng.randint(0, 7))])
            x = F(rng.randint(-30, 30), rng.randint(1, 7))
            want = [sum(math.comb(m, k) * c * x ** (m - k)
                        for m, c in enumerate(poly.coeffs) if m >= k) for k in range(4)]
            ints, scale = _cleared_integers(poly.coeffs)
            got = boundary._exact_taylor(poly.coeffs, ints, scale, x)
            assert got == want and all(type(v) is Fraction for v in got)

    def test_match_reference_limits(self):
        rng = random.Random(17)
        for _ in range(30):
            num = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
            roots = [F(rng.randint(-8, 8), 2) for _ in range(rng.randint(1, 3))]
            if not any(num):
                continue
            f = b.RationalFunction(b.Polynomial(num), b.Polynomial.from_real_roots(roots))
            points = sorted({*roots, F(rng.randint(-16, 16), 4)})
            for exact in (True, False):
                pts = points if exact else [float(x) for x in points]
                for x, jet in zip(pts, rational_jets(f, pts)):
                    assert_agrees(f, x, jet_limits(jet.num, jet.den))


def assert_agrees(f, x, limits, exact_jets=None):
    """The jets' limits against ``reference_nt_limit`` wherever the path
    converged: finite within VERIFY_TOL, infinite alike.  Where the path
    reads infinite but the jets finite, ``exact_jets`` (the exact limits,
    when given) must confirm the jets."""
    for kind in LimitKind:
        ref, got = reference_nt_limit(f, x, kind), limits[kind.value]
        if ref.is_finite and ref.converged:
            assert got.is_finite and close(got.value, ref.value.real), (x, kind, got, ref)
        elif ref.is_infinite and not got.is_infinite:
            assert exact_jets is not None and exact_jets[kind.value].is_finite, (x, kind)
        if exact_jets is not None:
            want = exact_jets[kind.value]
            assert got.status == want.status, (x, kind)
            assert not got.is_finite or close(got.value, want.value), (x, kind)


class TestLftJets:
    def test_match_reference_limits_on_random_data(self):
        # both lanes; the exact jets of the exact w arbitrate where the path
        # limit diverges on a nearby complex pole or does not settle
        rng = random.Random(11)
        checked = {True: 0, False: 0}
        for _ in range(25):
            data = random_data(rng, n_max=6)
            exact_sys = b.build_system(data)
            if not exact_sys.invertible:
                continue
            for exact in (True, False):
                sys_ = exact_sys if exact else b.build_system(floats(data))
                if not sys_.invertible:
                    continue
                theta, exact_theta = b.build_theta(sys_), b.build_theta(exact_sys)
                for phi in STANDARD_SWEEP:
                    try:
                        w = b.apply_lft(theta, phi)
                    except b.DegenerateTransformError:
                        continue
                    exact_w = b.apply_lft(exact_theta, phi)
                    for x, jet, truth in zip(sys_.X, lft_jets(theta, *phi.pair()),
                                             rational_jets(exact_w, exact_sys.X)):
                        assert_agrees(w, x, jet_limits(jet.num, jet.den),
                                      jet_limits(truth.num, truth.den))
                        checked[exact] += 1
        assert min(checked.values()) > 100

    def test_zero_test_reads_the_same_on_both_lanes(self):
        # where r_i . v(x_i) vanishes exactly the float lane reads it far
        # below JET_ZERO_TOL, and elsewhere far above it
        rng = random.Random(5)
        zeros = nonzeros = 0
        for _ in range(60):
            data = random_data(rng, n_max=6)
            exact_sys = b.build_system(data)
            float_sys = b.build_system(floats(data))
            if not (exact_sys.invertible and float_sys.invertible):
                continue
            for phi in STANDARD_SWEEP:
                exact_jets = lft_jets(b.build_theta(exact_sys), *phi.pair())
                float_jets = lft_jets(b.build_theta(float_sys), *phi.pair())
                for e, f in zip(exact_jets, float_jets):
                    assert e.zero_test["exact"] and not f.zero_test["exact"]
                    assert e.zero_test["zero"] == f.zero_test["zero"]
                    if e.zero_test["zero"]:
                        zeros += 1
                        assert f.zero_test["margin"] < 1e-3
                    else:
                        nonzeros += 1
                        assert f.zero_test["margin"] > 1e3
        assert zeros >= 10 and nonzeros >= 500

    def test_no_path_is_sampled(self, sys1, monkeypatch):
        def no_sample(f, z):
            raise AssertionError("w was sampled")

        for name in ("eval", "__call__"):
            monkeypatch.setattr(b.RationalFunction, name, no_sample)
        for phi in STANDARD_SWEEP:
            theta = b.build_theta(sys1)
            w = b.apply_lft(theta, phi)
            report = b.classify_all(sys1, phi)
            outcomes = {node.node - 1: node.predicted.kind for node in report.nodes}
            limits = solver._node_limits(sys1, w, outcomes)
            for i, kind in outcomes.items():
                verdict = solver.verify_outcome(sys1, w, i, kind, limits=limits[i])
                assert verdict.ok and verdict.details["zero_test"]["tol"] == JET_ZERO_TOL

    def test_overflow_raises_float_range_error(self, sys1):
        # phi = 1e308 on an exact resolvent: Theta v overflows at the nodes,
        # and for a steep phi on the sampling grid, which raise instead of
        # warning
        theta, phi = b.build_theta(sys1), b.Parameter.constant(1e308)
        with pytest.raises(b.FloatRangeError, match="jets of w"):
            lft_jets(theta, *phi.pair())
        # apply_lft reads only the zero test, which fits the float range;
        # the first read of w's limits takes the pass and raises
        w = b.apply_lft(theta, phi)
        with pytest.raises(b.FloatRangeError, match="jets of w"):
            b.nt_limit(w, sys1.X[0])
        with pytest.raises(b.FloatRangeError, match="jets of w"):
            b.verify_candidate(sys1, w)
        # phi = 1e300 z^40: its jets at the nodes 0 and 1 fit the float range,
        # its values on the grid out to |z| = 2.3 do not
        w = b.apply_lft(theta, b.Parameter.rational(b.RationalFunction([0.0] * 40 + [1e300])))
        with pytest.raises(b.FloatRangeError, match="sampling grid"):
            b.kernel_negative_squares(w, span=span_of(theta.nodes))

    def test_a_zero_test_beyond_the_float_range_raises(self):
        # phi = 1e300 z^10 overflows at the node -12: the scale of the zero
        # test is infinite, and no flag is read from it
        sys_ = grid_system(random.Random(5), 4)
        assert min(sys_.X) == -12
        theta = b.build_theta(sys_)
        phi = b.Parameter.rational(b.RationalFunction([0.0] * 10 + [1e300]))
        with pytest.raises(b.FloatRangeError, match="zero test of w"):
            boundary.node_zero_test(theta, *phi.pair())
        with pytest.raises(b.FloatRangeError, match="zero test of w"):
            b.apply_lft(theta, phi)


def lane_report(n, exact):
    """Labels, k, node verdicts and sampled count of ``classify_and_verify``
    on every probe op at n on one lane."""
    out = []
    for sys_, phi in probe_set(n, exact):
        report, _, sampled = b.classify_and_verify(sys_, phi)
        assert sampled <= report.class_index
        labels = [(node.label.family, node.label.index) for node in report.nodes]
        verdicts = [node.verification.ok for node in report.nodes]
        out.append((labels, report.k, verdicts, sampled))
    return out


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_probe_set_lanes_agree_with_no_node_failure(n):
    exact, float_ = lane_report(n, True), lane_report(n, False)
    assert exact == float_
    assert all(all(verdicts) for _, _, verdicts, _ in exact)
    assert len(exact) == 3 * len(BENCHMARK_PARAMETERS)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_count_through_theta_is_the_count_of_the_exact_w(n):
    # the oracle: the exact w's own coefficients, compiled to floats and
    # sampled on the same grid, where they still fit the float range; a
    # copy of w without its origin is sampled so
    for sys_, phi in probe_set(n, True):
        _, w, sampled = b.classify_and_verify(sys_, phi)
        plain = b.RationalFunction(w.num, w.den, reduce=False)
        assert sampled == b.kernel_negative_squares(plain, span=span_of(sys_.X))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_verify_outcome_reads_the_origin_of_apply_lfts_w(n):
    # verify_outcome with no limits takes them through w's origin, as
    # classify_and_verify does, never from a float w's own coefficients,
    # whose top ones are lost from n of about 16
    for exact in (False, True):
        for sys_, phi in probe_set(n, exact):
            w = b.apply_lft(b.build_theta(sys_), phi)
            for node in b.classify_all(sys_, phi).nodes:
                verdict = solver.verify_outcome(sys_, w, node.node - 1, node.predicted.kind)
                assert verdict.ok, (n, exact, phi, node.node)

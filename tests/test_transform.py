import json
import random
from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick import algebra, boundary, resolvent, solver, transform

from conftest import (
    BENCHMARK_PARAMETERS,
    STANDARD_SWEEP,
    data_two_regular,
    degenerate_parameter_system,
    gcd_apply_lft,
    plain_quotient,
    grid_system,
    loop_kernel,
    probe_set,
    random_fraction,
    random_invertible_system,
    rf,
    singular_probe,
)

F = Fraction
# the float monomial coefficients of w and of its plain quotient formed from
# Theta's entries, two routes, agree to 4.6e-14 of the largest at n = 8 and
# 1.4e-10 at n = 16 on the probe sets
PLAIN_QUOTIENT_TOL = 1e-9


class TestParameter:
    def test_json_round_trip(self):
        for phi in (b.Parameter.constant(F(3, 2)), b.Parameter.infinity(),
                    b.Parameter.rational(rf((0, 1), (1, 1)))):
            assert b.Parameter.from_json(phi.to_json()) == phi

    def test_a_realization_parameter_round_trips(self):
        # Theta = Theta1 Theta2 on float data: P = Theta2 o inf keeps its
        # origin, and its document holds the coefficients pair() reads, so
        # Theta1 o P, which carries P, has a document too
        sys_ = grid_system(random.Random(8000), 8, False)
        theta1, theta2 = b.factorize(sys_, 4)
        phi = b.Parameter.rational(b.apply_lft(theta2, b.Parameter.infinity()))
        assert phi.func._origin is not None
        assert b.Parameter.from_json(phi.to_json()).pair() == phi.pair()
        doc = b.apply_lft(theta1, phi).to_json()
        assert doc["phi"] == phi.to_json() and set(doc) == {"theta", "phi"}

    def test_const_json_uses_strings(self):
        assert b.Parameter.constant(F(3, 2)).to_json() == {"type": "const", "value": "3/2"}

    def test_complex_coefficients_rejected(self):
        # z + i is a Nevanlinna function but carries complex coefficients
        zi = b.RationalFunction(b.Polynomial((1j, 1.0)))
        with pytest.raises(b.NotNevanlinnaError):
            b.Parameter.rational(zi)

    def test_infinity_has_no_rational_form(self):
        with pytest.raises(ValueError):
            b.Parameter.infinity().as_rational()

    def test_pair_is_built_once(self):
        # the pair is kept on the parameter and is no part of its value
        for phi in (b.Parameter.constant(F(3, 2)), b.Parameter.constant(0.5),
                    b.Parameter.infinity(), b.Parameter.rational(rf((0, 1), (1, 1)))):
            fresh = b.Parameter.from_json(phi.to_json())
            assert phi.pair() is phi.pair()
            assert phi == fresh and hash(phi) == hash(fresh) and repr(phi) == repr(fresh)
            assert phi.pair() == fresh.pair()
        p, q = b.Parameter.constant(F(3, 2)).pair()
        assert (p.coeffs, q.coeffs) == ((3,), (2,))


class TestIsNevanlinna:
    def test_identity_passes(self):
        assert b.is_nevanlinna(b.Parameter.rational(rf((0, 1)))).ok

    def test_negative_reciprocal_passes(self):
        assert b.is_nevanlinna(b.Parameter.rational(rf((-1,), (0, 1)))).ok

    def test_square_fails_with_small_witness(self):
        # z^2 = z^2 / 1 has the Bezout matrix [[0, 1], [1, 0]], whose one
        # negative eigenvalue, -1, has the eigenvector (1, -1)
        for phi in (rf((0, 0, 1)), rf((0.0, 0.0, 1.0))):
            witness = b.is_nevanlinna(b.Parameter.rational(phi)).witness
            assert witness == transform.NevanlinnaWitness(1, (1, -1), -1)

    def test_indefinite_kernel_with_positive_diagonal_fails(self):
        # Im(z^3 + 2z) / Im z = 3x^2 - y^2 + 2 > 0 near the axis, yet the
        # kernel of a cubic has negative squares; the witness is an exact
        # direction of B with v^T B v < 0, whose Rayleigh quotient bounds
        # B's least eigenvalue, and K(z, w) = v(z) B v(w)* / (q(z) conj q(w))
        # on sample points (q = 1; loop_kernel holds K(z_j, z_i) at [i, j])
        phi = rf((0, 2, 0, 1))
        check = b.is_nevanlinna(b.Parameter.rational(phi))
        assert not check.ok and check.witness.negatives == 1
        rows = transform._bezout(*b.Parameter.rational(phi).pair())
        v = check.witness.vector
        form = sum(x * y * c for x, row in zip(v, rows) for y, c in zip(v, row))
        assert form < 0 and check.witness.quotient == form / sum(x * x for x in v)
        bezout = np.array(rows, dtype=float)
        assert np.linalg.eigvalsh(bezout)[0] <= float(check.witness.quotient)
        points = [complex(x, y) for x in (-1.5, 0.2, 2.0) for y in (0.3, 1.1)]
        vander = np.vander(points, 3, increasing=True)
        assert vander.conj() @ bezout @ vander.T == pytest.approx(loop_kernel(phi, points))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_small_negative_mass_is_rejected(self, exact):
        # -1/(z - 3) + 1e-8/(z - 3.01): the second pole has negative mass.
        # B's exact eigenvalues are about -995 and 1e17, below a float
        # eigensolver's resolution; the count and the witness are exact, on
        # the float lane of the dyadic rationals its coefficients hold
        phi = rf((-1,), (-3, 1)) + rf((F(1, 10 ** 8),), (F(-301, 100), 1))
        if not exact:
            phi = b.RationalFunction(*(b.Polynomial([float(v) for v in g.coeffs])
                                       for g in (phi.num, phi.den)))
        check = b.is_nevanlinna(b.Parameter.rational(phi))
        assert not check.ok and check.witness.negatives == 1
        assert check.witness.quotient < 0

    def test_far_negative_pole_is_rejected_on_the_float_lane(self):
        # z + 1/(z - 200) has a unit negative mass at 200; its B is
        # [[t^2 - 1, -t], [-t, 1]] at t = 200, with det -1 and so a negative
        # eigenvalue of about -1/t^2, under a float rank tolerance's 1e-9 t^2
        phi = b.RationalFunction([1.0, -200.0, 1.0], [-200.0, 1.0])
        check = b.is_nevanlinna(b.Parameter.rational(phi))
        assert not check.ok and check.witness.negatives == 1

    def test_exact_class_needs_no_float_range(self):
        # the inertia and the witness are exact, so no coefficient is
        # converted to a float
        assert b.is_nevanlinna(b.Parameter.rational(rf((0, 10 ** 400)))).ok
        witness = b.is_nevanlinna(b.Parameter.rational(rf((0, -(10 ** 400))))).witness
        assert witness == transform.NevanlinnaWitness(1, (1,), -(10 ** 400))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_negative_squares_match_partial_fractions(self, exact):
        # phi = a z + c + sum m_j / (t_j - z) has nu_- = [a < 0] + #{m_j < 0}
        # negative squares; on the float lane phi's coefficients are rounded,
        # and the count of the rounded function is the same
        rng = random.Random(2701)
        for _ in range(400):
            a, c = random_fraction(rng), random_fraction(rng)
            poles = rng.sample([F(k, 3) for k in range(-12, 13)], rng.randint(0, 4))
            masses = [random_fraction(rng, nonzero=True) for _ in poles]
            phi = sum((rf((m,), (t, -1)) for m, t in zip(masses, poles)), rf((c, a)))
            expected = (a < 0) + sum(m < 0 for m in masses)
            if not exact:
                phi = b.RationalFunction(*(b.Polynomial([float(v) for v in g.coeffs])
                                           for g in (phi.num, phi.den)))
            check = b.is_nevanlinna(b.Parameter.rational(phi))
            assert check.ok == (expected == 0)
            if expected:
                assert check.witness.negatives == expected
                assert check.witness.quotient < 0

    def test_square_kernel_value_at_reference_point(self):
        # the 1x1 kernel section of z^2 at -1+i is Im((-1+i)^2)/Im(-1+i) = -2
        z = -1 + 1j
        val = ((z * z) - (z * z).conjugate()) / (z - z.conjugate())
        assert abs(val - (-2.0)) < 1e-14

    def test_constants_and_infinity_trivially_pass(self):
        assert b.is_nevanlinna(b.Parameter.constant(-7)).ok
        assert b.is_nevanlinna(b.Parameter.infinity()).ok

    def test_shifted_identity_passes(self):
        assert b.is_nevanlinna(b.Parameter.rational(rf((2, 1)))).ok


class TestApplyLft:
    def test_rational_parameter(self, theta1):
        w = b.apply_lft(theta1, b.Parameter.rational(rf((0, 1))))
        # oracle: (Theta11 z + Theta12) / (Theta21 z + Theta22) cleared by hand
        assert w == rf((0, -1, 0, 2), (1, -4, 4))

    def test_infinity_parameter(self, theta1):
        assert b.apply_lft(theta1, b.Parameter.infinity()) == rf((0, 1))

    def test_constant_zero_on_generic_matrix(self, theta1):
        # phi = 0 gives w = Theta12 / Theta22 = -z / (2z^2 - 4z + 1)
        w = b.apply_lft(theta1, b.Parameter.constant(0))
        assert w == theta1.entry(0, 1) / theta1.entry(1, 1)
        assert w.to_json() == rf((0, -1), (1, -4, 2)).to_json()

    def test_degenerate_transform_rejected(self, theta1):
        # phi = -Theta22/Theta21 sends the denominator to zero identically
        phi = b.Parameter.rational(
            -(theta1.entry(1, 1) / theta1.entry(1, 0)))
        with pytest.raises(b.DegenerateTransformError):
            b.apply_lft(theta1, phi)

    def test_produced_functions_have_real_coefficients(self, theta1):
        for phi in (b.Parameter.constant(F(1, 3)), b.Parameter.infinity(),
                    b.Parameter.rational(rf((0, 1)))):
            w = b.apply_lft(theta1, phi)
            assert w.is_real()


def node_parameters(sys_):
    """phi = eta_i and phi = eta_i + tau_i (z - x_i), tau_i = -p~_ii / te_i^2:
    the parameters that make w meet node i's data, to first and to second
    order, where num and den share (z - x_i) once or twice."""
    out = []
    for i in range(sys_.n):
        te = sys_.tilde_e[i]
        if not te:
            out.append(b.Parameter.infinity())
            continue
        eta, tau = sys_.eta[i], -sys_.tilde_p_diag[i] / te**2
        out.append(b.Parameter.constant(eta))
        out.append(b.Parameter.rational(rf((eta - tau * sys_.X[i], tau))))
    return out


def node_multiplicities(theta, phi):
    """How often each node's (z - x_i) divides the gcd the reference takes."""
    g = algebra.polynomial_gcd(*plain_quotient(theta, phi))
    counts = []
    for x in theta.nodes:
        k = 0
        while g.degree >= 1 and not g.eval(x):
            g = g.divmod(b.Polynomial((-x, 1)))[0]
            k += 1
        counts.append(k)
    return counts


class TestNodeDeflation:
    """Exact apply_lft deflates at the nodes; the gcd route is the reference."""

    @staticmethod
    def assert_matches_reference(theta, phi):
        try:
            expected = gcd_apply_lft(theta, phi).to_json()
        except b.DegenerateTransformError:
            with pytest.raises(b.DegenerateTransformError):
                b.apply_lft(theta, phi)
            return
        assert b.apply_lft(theta, phi).to_json() == expected

    def test_goldens(self, theta1, theta2):
        for theta in (theta1, theta2):
            for phi in (*STANDARD_SWEEP, *BENCHMARK_PARAMETERS):
                self.assert_matches_reference(theta, phi)

    def test_random_systems_of_every_size(self):
        rng = random.Random("node-deflation")
        for n in range(2, 13):
            theta = b.build_theta(grid_system(rng, n, exact=True))
            for phi in BENCHMARK_PARAMETERS:
                self.assert_matches_reference(theta, phi)

    def test_node_parameters_deflate_once_and_twice(self):
        rng = random.Random(29)
        seen = set()
        systems = [random_invertible_system(rng, n_max=6) for _ in range(30)]
        systems += [grid_system(rng, n, exact=True) for n in (6, 7, 8)]
        for sys_ in systems:
            theta = b.build_theta(sys_)
            for phi in node_parameters(sys_):
                self.assert_matches_reference(theta, phi)
                seen.update(node_multiplicities(theta, phi))
        assert seen == {0, 1, 2}

    def test_integer_deflation_by_a_rational_root(self):
        # f = (3z - 2)^2 (z + 5): b^d f(a/b) vanishes at 2/3 and -5 only, and
        # z - 2/3 twice leaves 9 (z + 5), integral by Gauss's lemma
        f = [20, -56, 33, 9]
        assert algebra._scaled_value(f, 2, 3) == 0
        assert algebra._scaled_value(f, -5, 1) == 0
        assert algebra._scaled_value(f, 1, 3) != 0
        once = algebra._deflate(f, F(2, 3))
        assert once == [-30, 39, 9]
        assert algebra._deflate(once, F(2, 3)) == [45, 9]

    def test_degenerate_and_zero_transforms(self, sys2, theta2):
        for theta in (theta2, b.build_theta(grid_system(random.Random(3), 5, exact=True))):
            e = theta.entries
            # -Theta22/Theta21 sends den to 0, -Theta12/Theta11 sends num to 0
            infinite = b.Parameter.rational(-(e[1][1] / e[1][0]))
            with pytest.raises(b.DegenerateTransformError):
                b.apply_lft(theta, infinite)
            zero = b.Parameter.rational(-(e[0][1] / e[0][0]))
            self.assert_matches_reference(theta, zero)
            assert b.apply_lft(theta, zero).is_zero


def float_copy(sys_):
    """The float-lane system of the same data."""
    data = sys_.data
    return b.build_system(b.InterpolationData(*(tuple(float(v) for v in seq) for seq in (
        data.nodes, data.values, data.derivative_bounds, data.residues))))


def float_parameter(phi):
    if phi.kind == "const":
        return b.Parameter.constant(float(phi.value))
    if phi.kind == "inf":
        return phi
    f = phi.func
    return b.Parameter.rational(b.RationalFunction(
        b.Polynomial([float(c) for c in f.num.coeffs]),
        b.Polynomial([float(c) for c in f.den.coeffs])))


class TestFloatNodeDeflation:
    """Float apply_lft cancels only at the nodes the zero test flags."""

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_unflagged_transform_is_the_plain_quotient(self, n):
        # no probe node is flagged, so w is N [p; q] over all the nodes with
        # nothing cancelled, N formed from Theta's entries: of its degrees,
        # and, up to one scale, its coefficients within PLAIN_QUOTIENT_TOL of
        # the largest.  From n = 24 the two routes' monomial coefficients
        # differ by 2e-7 (n = 24) and 7e-4 (n = 32) of the largest, as
        # TRIM_TOL drops leading terms in both: only the degrees are compared
        for sys_, phi in probe_set(n, exact=False):
            theta = b.build_theta(sys_)
            num, den = plain_quotient(theta, phi)
            reference, w = b.RationalFunction(num, den), b.apply_lft(theta, phi)
            degrees = (num.degree, den.degree)
            assert (reference.num.degree, reference.den.degree) == degrees
            assert (w.num.degree, w.den.degree) == degrees
            if n <= 16:
                want = np.array([*num.coeffs, *den.coeffs])
                mine = np.array([*w.num.coeffs, *w.den.coeffs])
                mine *= np.vdot(mine, want) / np.vdot(mine, mine)
                assert np.abs(mine - want).max() <= PLAIN_QUOTIENT_TOL * np.abs(want).max()

    def test_certify_never_roots_for_a_gcd(self, monkeypatch):
        # a certify op roots no polynomial: not w's for a gcd, and not
        # phi's, whose class is read from its Bezout matrix
        rooted, roots = [], np.roots

        def counted_roots(coeffs):
            rooted.append(list(coeffs))
            return roots(coeffs)

        ops = [op for n in (8, 16, 24, 32) for op in probe_set(n, exact=False)]
        monkeypatch.setattr(np, "roots", counted_roots)
        for sys_, phi in ops:
            rooted.clear()
            report, _, _ = b.classify_and_verify(sys_, phi)
            assert all(node.verification.ok for node in report.nodes)
            assert rooted == []

    def test_node_parameters_deflate_like_the_exact_lane(self):
        # phi = eta_i shares (z - x_i) once, eta_i + tau_i (z - x_i) once or
        # twice: the float w loses that many degrees, and meets the exact w
        # off the axis
        rng = random.Random(31)
        drops = set()
        for n in (3, 4, 5, 6):
            exact_sys = grid_system(rng, n, exact=True)
            exact_theta = b.build_theta(exact_sys)
            theta = b.build_theta(float_copy(exact_sys))
            lo, hi = float(min(exact_sys.X)), float(max(exact_sys.X))
            points = [complex(lo + (hi - lo) * t, y)
                      for t, y in ((0.12, 1.0), (-0.43, 0.6), (0.7, 0.25), (0.17, 3.0))]
            for exact_phi in node_parameters(exact_sys):
                try:
                    want = b.apply_lft(exact_theta, exact_phi)
                except b.DegenerateTransformError:
                    continue
                phi = float_parameter(exact_phi)
                w = b.apply_lft(theta, phi)
                p, q = phi.pair()
                flagged = sum(boundary.node_zero_test(theta, p, q)[0])
                shared = node_multiplicities(exact_theta, exact_phi)
                assert flagged == sum(k > 0 for k in shared)
                drop = sum(shared)
                assert w.den.degree == plain_quotient(theta, phi)[1].degree - drop
                for z in points:
                    assert abs(w.eval(z) - want.eval(z)) <= 1e-9 * max(1.0, abs(want.eval(z)))
                drops.add(drop)
        assert drops == {1, 2}


    def test_degenerate_node_parameter_is_rejected_like_the_exact_lane(self):
        # the exact den of phi = eta_1 + tau_1 (z - x_1) on grid_system(Random(31), 3)
        # is identically zero; the float den is rounding noise that the
        # deflation at the flagged nodes empties
        rng = random.Random(31)
        rejected = 0
        for n in (3, 4, 5, 6):
            exact_sys = grid_system(rng, n, exact=True)
            exact_theta = b.build_theta(exact_sys)
            sys_ = float_copy(exact_sys)
            theta = b.build_theta(sys_)
            for exact_phi in node_parameters(exact_sys):
                try:
                    b.apply_lft(exact_theta, exact_phi)
                    continue
                except b.DegenerateTransformError:
                    pass
                phi = float_parameter(exact_phi)
                with pytest.raises(b.DegenerateTransformError):
                    b.apply_lft(theta, phi)
                if b.is_nevanlinna(phi):
                    with pytest.raises(b.DegenerateTransformError):
                        b.classify_and_verify(sys_, phi)
                    rejected += 1
        assert rejected == 1


class TestExactApplyLftInIntegers:
    """Standalone exact apply_lft takes its zero flags from the integer test
    alone: no float node pass, so no float range to exceed."""

    def test_no_float_pass(self, monkeypatch):
        def fail(*args):
            raise AssertionError("exact apply_lft took the float node pass")

        cases = [(b.build_theta(sys_), phi) for n in (2, 4, 6)
                 for sys_, phi in probe_set(n, exact=True)]
        want = [b.apply_lft(theta, phi) for theta, phi in cases]
        monkeypatch.setattr(boundary, "lft_jets", fail)
        got = [b.apply_lft(theta, phi) for theta, phi in cases]
        assert [repr(w) for w in got] == [repr(w) for w in want]

    def test_data_beyond_the_float_range(self):
        # a value of 10**400 puts 1329-bit integers in Theta's residue data,
        # which no float holds; the integer cancellation needs none
        big = F(10) ** 400
        sys_ = b.build_system(b.InterpolationData(
            nodes=(F(0), F(1), F(3)), values=(F(0), big), derivative_bounds=(F(1), F(2)),
            residues=(F(-1),)))
        theta = b.build_theta(sys_)
        for phi in (*BENCHMARK_PARAMETERS, *node_parameters(sys_)):
            try:
                want = gcd_apply_lft(theta, phi)
            except b.DegenerateTransformError:
                with pytest.raises(b.DegenerateTransformError):
                    b.apply_lft(theta, phi)
                continue
            assert b.apply_lft(theta, phi).to_json() == want.to_json()


class TestOneCancellationPath:
    """classify_and_verify cancels w and reads its node limits from one node
    pass, the pass standalone apply_lft and _node_limits each take; both
    lanes' w keep their origin (Theta, phi)."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_certify_matches_the_standalone_calls(self, n, exact):
        for sys_, phi in probe_set(n, exact):
            report, w, _ = b.classify_and_verify(sys_, phi)
            theta = b.build_theta(sys_)
            alone = b.apply_lft(theta, phi)
            assert w == alone and repr(w) == repr(alone)
            assert w._origin[0] is alone._origin[0] is theta
            assert w._origin[1] is alone._origin[1] is phi
            outcomes = {node.node - 1: node.predicted.kind for node in report.nodes}
            limits = solver._node_limits(sys_, alone, outcomes)
            assert [node.verification.details for node in report.nodes] == list(limits.values())
            # a read at one node alone is that node's row of the same pass
            for i, kind in outcomes.items():
                verification = report.nodes[i].verification
                one = solver._node_limits(sys_, alone, {i: kind})[i]
                assert repr(one) == repr(verification.details)
                assert repr(solver.verify_outcome(sys_, alone, i, kind)) == repr(verification)
                key = "value" if i < sys_.ell else "residual"
                limit = b.nt_limit(alone, sys_.X[i], key)
                assert repr(limit) == repr(verification.details[key])

    def test_node_parameters_deflate_once_and_twice_through_certify(self):
        # the flagged nodes of TestFloatNodeDeflation, on both lanes: w sheds
        # one or two degrees at a node through the flags of the shared pass
        rng = random.Random(31)
        drops = {True: set(), False: set()}
        for n in (3, 4, 5, 6):
            exact_sys = grid_system(rng, n, exact=True)
            exact_theta = b.build_theta(exact_sys)
            for sys_ in (exact_sys, float_copy(exact_sys)):
                theta = b.build_theta(sys_)
                for exact_phi in node_parameters(exact_sys):
                    phi = exact_phi if sys_.exact else float_parameter(exact_phi)
                    if not b.is_nevanlinna(phi):
                        continue
                    try:
                        b.apply_lft(exact_theta, exact_phi)
                    except b.DegenerateTransformError:
                        continue
                    _, w, _ = b.classify_and_verify(sys_, phi)
                    alone = b.apply_lft(theta, phi)
                    assert w == alone and repr(w) == repr(alone)
                    drops[sys_.exact].add(plain_quotient(theta, phi)[1].degree - w.den.degree)
        assert {1, 2} <= drops[True] and {1, 2} <= drops[False]


class TestFloatWIsItsOrigin:
    """A float w is its origin (Theta, phi): a certify op forms no polynomial
    of it, and its num and den are expanded only when read."""

    @staticmethod
    def expansion_fails(monkeypatch):
        def fail(*args):
            raise AssertionError("the float expansion of w was formed")

        monkeypatch.setattr(resolvent, "_expansion", fail)

    @pytest.mark.parametrize("n", [16, 32])
    def test_certify_forms_no_polynomial(self, n, monkeypatch, capsys, tmp_path):
        from bnpick import cli

        ops = probe_set(n, exact=False)
        want = [b.classify_and_verify(sys_, phi) for sys_, phi in ops]
        config = tmp_path / "float.json"
        config.write_text('{"backend": "float"}')
        self.expansion_fails(monkeypatch)
        for (sys_, phi), (report, _, sampled) in zip(ops, want):
            got = b.classify_and_verify(sys_, phi)
            assert got[0] == report and got[2] == sampled
            assert b.apply_lft(b.build_theta(sys_), phi)._origin[1] is phi
            problem = tmp_path / "problem.json"
            problem.write_text(json.dumps(sys_.data.to_json()))
            code = cli.main(["apply", "--problem", str(problem), "--param",
                             json.dumps(phi.to_json()), "--config", str(config)])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0 and doc["k"] == report.k
            assert doc["classification"] == [node.to_json() for node in report.nodes]
            assert doc["kernel_negative_squares"] == sampled
        monkeypatch.undo()
        # read, num and den are the node-cancelled quotient the expansion forms
        for (sys_, phi), (_, w, _) in zip(ops, want):
            num, den = resolvent._expansion(b.build_theta(sys_), *phi.pair())
            assert w.num.coeffs == num.coeffs and w.den.coeffs == den.coeffs

    @pytest.mark.parametrize("n", [3, 16, 24])
    def test_degenerate_parameter_is_rejected_from_the_node_pass(self, n, monkeypatch):
        # deg phi = 1 < 3 n: every node's den jet reads zero, which decides
        # the rejection with no polynomial formed, as the exact lane rejects
        exact_sys, exact_phi = degenerate_parameter_system(random.Random(n), n, exact=True)
        with pytest.raises(b.DegenerateTransformError):
            b.apply_lft(b.build_theta(exact_sys), exact_phi)
        sys_, phi = degenerate_parameter_system(random.Random(n), n)
        assert b.is_nevanlinna(phi)
        jets = boundary.lft_jets(b.build_theta(sys_), *phi.pair())
        assert not any(any(jet.den) for jet in jets)
        self.expansion_fails(monkeypatch)
        with pytest.raises(b.DegenerateTransformError):
            b.apply_lft(b.build_theta(sys_), phi)
        with pytest.raises(b.DegenerateTransformError):
            b.classify_and_verify(sys_, phi)

    def test_degree_3n_is_expanded_where_every_node_is_flagged(self, monkeypatch):
        # D den has degree at most n + deg phi, so JET_ORDERS zeros at each
        # of the n nodes decide it only below deg phi = (JET_ORDERS - 1) n;
        # a regular node whose zero flag reads nonzero proves den != 0 first
        data = data_two_regular()
        sys_ = b.build_system(b.InterpolationData(*(tuple(map(float, seq)) for seq in (
            data.nodes, data.values, data.derivative_bounds, data.residues))))
        theta = b.build_theta(sys_)
        # (z^d + z/2 - 1) / z meets eta = (inf, 1/2) at both regular nodes
        low, high = (b.Parameter.rational(rf([-1.0, 0.5] + [0.0] * (d - 2) + [1.0], (0.0, 1.0)))
                     for d in (5, 6))
        unflagged = b.Parameter.rational(rf([1.0] + [0.0] * 5 + [1.0]))
        assert boundary.JET_ORDERS == 4 and sys_.ell == 2
        for phi, flags in ((low, [True, True]), (high, [True, True]), (unflagged, [False, False])):
            assert boundary.node_zero_test(theta, *phi.pair())[0] == flags
        expanded = [b.apply_lft(theta, phi) for phi in (low, high)]
        self.expansion_fails(monkeypatch)
        assert b.apply_lft(theta, low)._origin[1] is low
        assert b.apply_lft(theta, unflagged)._origin[1] is unflagged
        with pytest.raises(AssertionError, match="expansion"):
            b.apply_lft(theta, high)
        monkeypatch.undo()
        assert [repr(w) for w in expanded] == [repr(b.apply_lft(theta, phi)) for phi in (low, high)]


    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_eval_reads_the_origin(self, n, monkeypatch):
        # from n = 16 the expansion's coefficients are another function off
        # the axis; w.eval reads (Theta, phi), as its grid does, and forms
        # no polynomial
        wants = []
        for exact_sys, exact_phi in probe_set(n, True):
            exact_w = b.apply_lft(b.build_theta(exact_sys), exact_phi)
            wants.append([complex(exact_w.eval(x + F(1, 7))) for x in exact_sys.X[:6]])
        self.expansion_fails(monkeypatch)
        for (sys_, phi), want in zip(probe_set(n, False), wants):
            w = b.apply_lft(b.build_theta(sys_), phi)
            for x, value in zip(sys_.X, want):
                assert abs(w.eval(x + 1 / 7) - value) <= 1e-10 * max(1.0, abs(value))
            with pytest.raises(b.PoleError):
                w.eval(sys_.X[0])


class TestExactWIsItsOrigin:
    """An exact w is its origin (Theta, phi) too: a certify op forms neither
    its integers nor Theta's, degeneracy is decided from the exact zero
    flags, and w's canonical integers are formed only when read."""

    @staticmethod
    def integers_fail(monkeypatch):
        def fail(*args):
            raise AssertionError("the integers of w were formed")

        monkeypatch.setattr(resolvent, "_expansion", fail)

    @staticmethod
    def certify_ops():
        # the shape of the benchmark's exact certify ops (n = 2-6 on the
        # 1/3-grid, its four parameters), then the probe sets
        small = [(grid_system(random.Random(100 * n + s), n, exact=True), phi)
                 for n in (2, 3, 4, 5, 6) for s in range(3) for phi in BENCHMARK_PARAMETERS]
        return small + [op for n in (8, 16, 32) for op in probe_set(n, exact=True)]

    def test_certify_forms_no_polynomial(self, monkeypatch):
        ops = self.certify_ops()
        want = [b.classify_and_verify(sys_, phi) for sys_, phi in ops]
        self.integers_fail(monkeypatch)
        for (sys_, phi), (report, _, sampled) in zip(ops, want):
            got = b.classify_and_verify(sys_, phi)
            assert got[0] == report and got[2] == sampled
            w = b.apply_lft(b.build_theta(sys_), phi)
            assert w.exact and w._origin[1] is phi
        monkeypatch.undo()
        # read, num and den are the canonical integers the expansion forms
        for (sys_, phi), (_, w, _) in zip(ops, want):
            formed = b.RationalFunction(
                *resolvent._expansion(b.build_theta(sys_), *phi.pair()), reduce=False)
            assert w.num.coeffs == formed.num.coeffs and w.den.coeffs == formed.den.coeffs
            assert w == formed and hash(w) == hash(formed) and str(w) == str(formed)
            assert w.to_json() == formed.to_json()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_degenerate_parameter_is_rejected_through_the_fallback(self, n, monkeypatch):
        # the one regular node is flagged (phi(x_1) = eta_1) and every other
        # node has E_i = 0, so no node proves den nonzero: den is formed
        sys_, phi = degenerate_parameter_system(random.Random(n), n, exact=True)
        theta = b.build_theta(sys_)
        assert [l[1] for l in theta.left] == [1] + [0] * (n - 1)
        assert boundary._exact_node_zeros(theta, *phi.pair())[0]
        formed = []
        expansion = resolvent._expansion

        def counted(*args):
            formed.append(args)
            return expansion(*args)

        monkeypatch.setattr(resolvent, "_expansion", counted)
        with pytest.raises(b.DegenerateTransformError):
            b.apply_lft(theta, phi)
        with pytest.raises(b.DegenerateTransformError):
            b.classify_and_verify(sys_, phi)
        assert len(formed) == 2

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_one_unflagged_regular_node_decides(self, n, monkeypatch):
        # phi = eta_1 + 1 misses eta_1 at the one regular node, whose
        # u_1(x_1) = E_1 (r_1 . v(x_1)) is then nonzero: den is not zero
        sys_, _ = degenerate_parameter_system(random.Random(n), n, exact=True)
        phi = b.Parameter.constant(sys_.eta[0] + 1)
        theta = b.build_theta(sys_)
        assert boundary._exact_node_zeros(theta, *phi.pair()) == [False] * n
        self.integers_fail(monkeypatch)
        w = b.apply_lft(theta, phi)
        _, certified, _ = b.classify_and_verify(sys_, phi)
        monkeypatch.undo()
        assert not w.den.is_zero and w == certified == gcd_apply_lft(theta, phi)

    @pytest.mark.parametrize("n", [8, 32])
    def test_eval_at_a_float_point_reads_the_origin(self, n, monkeypatch):
        # at n = 32 w's integers exceed the float range, which its origin
        # does not; an exact point still gets the exact value
        ws = [b.apply_lft(b.build_theta(sys_), phi) for sys_, phi in probe_set(n, exact=True)]
        monkeypatch.setattr(resolvent, "_expansion", lambda *args: pytest.fail("expanded"))
        got = [w.eval(0.123) for w in ws]
        monkeypatch.undo()
        for w, value in zip(ws, got):
            want = w.eval(F(0.123))
            assert isinstance(want, F)
            assert abs(value - complex(want)) <= 1e-10 * max(1.0, abs(float(want)))


class TestNodePassOnlyForLimits:
    """w's node pass (``boundary.lft_jets``) is taken where w's limits are
    read: building w reads only its zero flags."""

    @staticmethod
    def passes(monkeypatch):
        calls = []
        lft_jets = boundary.lft_jets

        def counted(*args):
            calls.append(args)
            return lft_jets(*args)

        monkeypatch.setattr(boundary, "lft_jets", counted)
        return calls

    def test_a_standalone_float_apply_lft_takes_no_pass(self, monkeypatch):
        sys_, phi = probe_set(32, False)[2]
        theta = b.build_theta(sys_)
        calls = self.passes(monkeypatch)
        w = b.apply_lft(theta, phi)
        assert w._origin == (theta, phi) and calls == []

    def test_a_float_singular_solve_and_its_verify_take_one_pass(self, monkeypatch, capsys, tmp_path):
        from bnpick import cli

        data = singular_probe(16, 0, exact=False).data
        calls = self.passes(monkeypatch)
        bundle = b.solve(data)
        assert bundle.kind == "unique" and len(calls) == 1
        problem, config = tmp_path / "problem.json", tmp_path / "float.json"
        problem.write_text(json.dumps(data.to_json()))
        config.write_text('{"backend": "float"}')
        calls.clear()
        argv = ["verify", "--problem", str(problem), "--param", json.dumps(bundle.w.to_json()),
                "--config", str(config)]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["fmi_count"] == bundle.kappa
        assert len(calls) == 1


class TestLftCompose:
    def test_inverse_product_is_identity(self, theta1):
        inv = b.theta_inverse(theta1)
        assert theta1 @ inv == b.RationalMatrix2x2.identity()

    def test_identity_is_neutral(self, theta1):
        assert theta1 @ b.RationalMatrix2x2.identity() == theta1

    def test_factor_pair_recomposes(self, sys1, theta1):
        t1, t2 = b.factorize(sys1, 1)
        assert t1 @ t2 == theta1

    def test_functoriality(self):
        # T_{AB}[phi] == T_A[T_B[phi]] for products of resolvents of random
        # systems on disjoint nodes and for factor pairs
        rng = random.Random(37)
        params = (b.Parameter.constant(2), b.Parameter.rational(rf((0, 1))),
                  b.Parameter.rational(rf((-1,), (0, 1))))
        pairs = []
        while len(pairs) < 6:
            a, bb = (b.build_theta(random_invertible_system(rng, n_max=3)) for _ in range(2))
            if not set(a.nodes) & set(bb.nodes):
                pairs.append((a, bb))
        while len(pairs) < 12:
            sys_ = random_invertible_system(rng, n_max=4)
            for k in range(1, sys_.n):
                try:
                    pairs.append(b.factorize(sys_, k))
                except b.SplitNotAdmissibleError:
                    continue
        checked = 0
        for a, bb in pairs:
            composed = a @ bb
            for phi in params:
                try:
                    inner = b.apply_lft(bb, phi)
                    direct = b.apply_lft(composed, phi)
                    nested = b.apply_lft(a, b.Parameter.rational(inner))
                except b.DegenerateTransformError:
                    continue
                assert direct.to_json() == nested.to_json()
                checked += 1
        assert checked >= 30

    def test_class_bound_on_golden_sweep(self, theta1):
        # transforms of Nevanlinna parameters stay within kappa negative squares
        for phi in STANDARD_SWEEP:
            w = b.apply_lft(theta1, phi)
            assert b.kernel_negative_squares(w, span=(0.0, 1.0)) <= 1

import dataclasses
import functools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bnpick as b
from bnpick import algebra, problem, resolvent

from conftest import (
    BENCHMARK_PARAMETERS,
    SYMPLECTIC_S,
    data_mixed,
    data_two_regular,
    cross_multiplied_j_unitary,
    det_route_inverse,
    entrywise_product,
    expanded_residue_form,
    golden_theta_mixed,
    golden_theta_two_regular,
    grid_system,
    probe_set,
    random_fraction,
    random_invertible_system,
    rational_j_unitary,
    rf,
)

F = Fraction

# Theta^(-1) and both factors of every admissible split, in natural and
# reversed node order, pinned byte for byte on exact systems.
# Regenerate with `PYTHONPATH=src python tests/test_resolvent.py`.
GOLDEN_FACTORS = Path(__file__).resolve().parent / "golden" / "factors.json"


def eval_direct_formula(sys_, z):
    """Independent oracle: I - i [C;E](zI-X)^(-1) P^(-1) [C* E*] J in exact
    rational arithmetic at a real z.  With J = i S, -i M J = M S, so every
    term is real."""
    n = sys_.n
    z = F(z)
    rows = [list(sys_.C), list(sys_.E)]
    resolvent = [1 / (z - sys_.X[i]) for i in range(n)]
    left = [[rows[a][i] * resolvent[i] for i in range(n)] for a in range(2)]
    mid = [[sum((left[a][i] * sys_.p_inv[i][j] for i in range(n)), start=F(0))
            for j in range(n)] for a in range(2)]
    right = [[rows[0][i], rows[1][i]] for i in range(n)]  # columns C*, E*
    prod = [[sum((mid[a][i] * right[i][bb] for i in range(n)), start=F(0))
             for bb in range(2)] for a in range(2)]
    S = SYMPLECTIC_S
    return [
        [int(a == bb) + sum((prod[a][m] * S[m][bb] for m in range(2)), start=F(0))
         for bb in range(2)]
        for a in range(2)
    ]


def exact_residue(entry, x):
    """Residue of a canonical rational function at a simple real pole."""
    if entry.den.eval(x):
        return F(0)  # analytic there
    return entry.num.eval(x) / entry.den.derivative().eval(x)


def zero_value_system():
    """Invertible data with regular value 0 at node -1, so C_1 = 0 and the
    first row of Theta has a zero residue there."""
    data = b.InterpolationData(
        nodes=(F(-1), F(1), F(3)),
        values=(F(0), F(2)),
        derivative_bounds=(F(1), F(-1)),
        residues=(F(1),),
    )
    return b.build_system(data)


def exact_n6_system():
    """The benchmark's exact-certify-n6-4 problem (seed 1): the np.roots poles
    of its expanded entries list 4.666666666667 and 4.666666666668 for the
    one node 14/3."""
    data = b.InterpolationData(
        nodes=(F(8, 3), F(14, 3), F(37, 3), F(3), F(1), F(13, 3)),
        values=(F(26, 3), F(-2, 3), F(29, 3)),
        derivative_bounds=(F(-5), F(23, 3), F(29, 3)),
        residues=(F(-3), F(25, 3), F(25, 3)),
    )
    return b.build_system(data)


def exact_draw_system(nodes, values, bounds, residues):
    """An exact-certify benchmark draw (seed 1), nodes listed regular first."""
    return b.build_system(b.InterpolationData(
        nodes=tuple(map(F, nodes)),
        values=tuple(map(F, values)),
        derivative_bounds=tuple(map(F, bounds)),
        residues=tuple(map(F, residues)),
    ))


def factor_systems():
    """The exact systems of the factors golden, by name."""
    return {
        "two-regular": b.build_system(data_two_regular()),
        "mixed": b.build_system(data_mixed()),
        "zero-value": zero_value_system(),
        "exact-certify-n6-4": exact_n6_system(),
        "exact-certify-n6-0": exact_draw_system(
            ("11", "29/3", "38/3", "6", "3", "-14/3"),
            ("8/3", "7/3", "-1/3"), ("-17/3", "-10/3", "-26/3"), ("-8/3", "9", "8")),
        "exact-certify-n8-0": exact_draw_system(
            ("6", "-28/3", "23/3", "1", "25/3", "-5", "-5/3", "35/3"),
            ("-6", "16/3", "17/3", "20/3"), ("-8/3", "22/3", "-16/3", "10/3"),
            ("-8/3", "20/3", "-17/3", "25/3")),
    }


def factor_documents(sys_):
    """(key, JSON) of Theta^(-1) and of (Theta1, Theta2) at every admissible split k."""
    theta = b.build_theta(sys_)
    yield "inverse", b.theta_inverse(theta).to_json()
    for name, order in (("natural", range(sys_.n)), ("reversed", range(sys_.n)[::-1])):
        for k in range(1, sys_.n + 1):
            split = factors(sys_, k, order)
            if split:
                yield f"{name}/{k}", [t.to_json() for t in split]


def factors_golden_text():
    """One JSON object, one line per document, keyed system/inverse or system/order/k."""
    lines = [
        f"{json.dumps(f'{name}/{key}')}: {json.dumps(doc, separators=(',', ':'))}"
        for name, sys_ in factor_systems().items()
        for key, doc in factor_documents(sys_)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@functools.cache
def float_systems():
    """The float-certify benchmark's seed-5 draws at n = 20, 24 and 32.

    cond(P) is 1e2 to 4e2, yet Theta expanded to monomials gave J-unitarity
    residuals of 4.7e4, 587 and 4.2e3 on them.
    """
    rng = random.Random("float-certify:5")
    return {n: grid_system(rng, n) for n in (20, 24, 32)}


def residue_nodes(sys_):
    """Sorted nodes where [C_i; E_i] [te_i, -tc_i] is not the zero matrix."""
    return tuple(sorted(
        sys_.X[i] for i in range(sys_.n)
        if (sys_.C[i] or sys_.E[i]) and (sys_.tilde_e[i] or sys_.tilde_c[i])
    ))


def coefficient_tuples(entries):
    return tuple((e.num.coeffs, e.den.coeffs) for row in entries for e in row)


@pytest.fixture
def checked_builds(monkeypatch):
    """Compare every residue-form build against the expanded, gcd-reduced
    reference, and its poles against the nodes where a reference
    denominator vanishes exactly."""
    built = []
    build = resolvent._residue_matrix_form

    def checked(nodes, left_cols, right_rows, kappa):
        theta = build(nodes, left_cols, right_rows, kappa)
        reference = expanded_residue_form(nodes, left_cols, right_rows)
        assert theta.kappa == kappa
        assert coefficient_tuples(theta.entries) == coefficient_tuples(reference)
        poles = {x for x in nodes for row in reference for e in row
                 if not e.den.eval(x)}
        assert theta.poles == tuple(sorted(poles))
        built.append(theta)
        return theta

    monkeypatch.setattr(resolvent, "_residue_matrix_form", checked)
    return built


class TestResidueForm:
    def build_all(self, sys_):
        theta = b.build_theta(sys_)
        b.theta_inverse(theta)
        splits = 0
        for k in range(1, sys_.n):
            try:
                b.factorize(sys_, k)
            except b.SplitNotAdmissibleError:
                continue
            splits += 1
        return theta, splits

    def test_goldens_match_reference(self, checked_builds):
        # fresh systems: the session fixtures' Theta may already be built
        # and cached by another module, and then it is not built here
        goldens = ((data_two_regular(), golden_theta_two_regular()),
                   (data_mixed(), golden_theta_mixed()))
        for data, golden in goldens:
            theta, _ = self.build_all(b.build_system(data))
            assert all(theta.entry(i, j) == golden[i][j] for i in range(2) for j in range(2))
        # Theta, its inverse, both factors of the one split k = 1 and the
        # inverse of the head factor that the split builds, for each golden
        assert len(checked_builds) == 10

    def test_random_systems_match_reference(self, checked_builds):
        # every n in 2..8, at least 10 systems and at least 10 admissible splits
        rng = random.Random(404)
        sizes, systems, splits = set(), 0, 0
        while len(sizes) < 7 or systems < 10 or splits < 10:
            sys_ = random_invertible_system(rng, n_max=8)
            if sys_.n < 2:
                continue
            sizes.add(sys_.n)
            systems += 1
            splits += self.build_all(sys_)[1]

    def test_zero_residues_are_dropped(self, checked_builds):
        sys_ = zero_value_system()
        theta, splits = self.build_all(sys_)
        assert splits == 2
        # row 0 has no residue at node -1 (C_1 = 0) and row 1 none at the
        # singular node 3 (E_3 = 0), so every entry keeps two of the three nodes
        assert [e.den.degree for row in theta.entries for e in row] == [2, 2, 2, 2]
        assert theta.entry(0, 0).den != theta.entry(1, 0).den
        assert any(e.is_zero for t in checked_builds for row in t.entries for e in row)


class TestBuildTheta:
    def test_two_regular_golden(self, theta1):
        golden = golden_theta_two_regular()
        for i in range(2):
            for j in range(2):
                assert theta1.entry(i, j).num == golden[i][j].num
                assert theta1.entry(i, j).den == golden[i][j].den

    def test_mixed_golden(self, theta2):
        golden = golden_theta_mixed()
        for i in range(2):
            for j in range(2):
                assert theta2.entry(i, j).num == golden[i][j].num
                assert theta2.entry(i, j).den == golden[i][j].den

    def test_single_singular_node(self):
        d = b.InterpolationData(nodes=(F(0),), values=(), derivative_bounds=(),
                                residues=(F(-1),))
        t = b.build_theta(b.build_system(d))
        assert t.entry(0, 0) == rf((1,))
        assert t.entry(0, 1) == rf((-1,), (0, 1))
        assert t.entry(1, 0).is_zero
        assert t.entry(1, 1) == rf((1,))

    def test_built_once_per_system(self, sys1, theta1):
        assert b.build_theta(sys1) is theta1
        fresh = b.build_system(data_two_regular())
        assert b.build_theta(fresh) is b.build_theta(fresh)
        assert b.build_theta(fresh) is not theta1 and b.build_theta(fresh) == theta1

    def test_keeps_every_node(self):
        # no row r_i = (te_i, -tc_i) is zero, so Theta's nodes are the
        # system's, in its order, which classify_and_verify reads its jets in
        rng = random.Random(25)
        systems = [sys_ for n in (8, 32) for exact in (False, True)
                   for sys_, _ in probe_set(n, exact)[::4]]
        for _ in range(40):
            sys_ = random_invertible_system(rng)
            floated = b.build_system(b.InterpolationData(*(
                tuple(float(v) for v in seq) for seq in (
                    sys_.data.nodes, sys_.data.values, sys_.data.derivative_bounds,
                    sys_.data.residues))))
            systems += [sys_, floated] if floated.invertible else [sys_]
        assert sum(not s.exact for s in systems) >= 30
        for sys_ in systems:
            assert b.build_theta(sys_).nodes == sys_.X

    def test_singular_pick_rejected(self, sys3):
        with pytest.raises(b.SingularPickError):
            b.build_theta(sys3)

    def test_matches_direct_matrix_formula(self, sys1, theta1, sys2, theta2):
        for sys_, theta in ((sys1, theta1), (sys2, theta2)):
            for z in (F(2), F(-3), F(1, 3), F(7, 2)):
                direct = eval_direct_formula(sys_, z)
                for i in range(2):
                    for j in range(2):
                        assert theta.entry(i, j).eval(z) == direct[i][j]

    def test_residues_are_rank_one_data_products(self, sys1, theta1, sys2, theta2):
        for sys_, theta in ((sys1, theta1), (sys2, theta2)):
            for idx in range(sys_.n):
                x = sys_.X[idx]
                expected = [
                    [sys_.C[idx] * sys_.tilde_e[idx], -sys_.C[idx] * sys_.tilde_c[idx]],
                    [sys_.E[idx] * sys_.tilde_e[idx], -sys_.E[idx] * sys_.tilde_c[idx]],
                ]
                for i in range(2):
                    for j in range(2):
                        got = exact_residue(theta.entry(i, j), x)
                        assert got == expected[i][j]

    def test_determinant_is_one(self, theta1, theta2):
        assert theta1.det() == rf((1,))
        assert theta2.det() == rf((1,))

    def test_poles_within_node_set(self, theta1):
        assert set(theta1.poles) <= {0.0, 1.0}

    def test_poles_are_simple(self, sys1, theta1, sys2, theta2):
        # every canonical denominator divides the node polynomial exactly
        for sys_, theta in ((sys1, theta1), (sys2, theta2)):
            nodes = b.Polynomial.from_real_roots(list(sys_.X))
            for i in range(2):
                for j in range(2):
                    _, rem = nodes.divmod(theta.entry(i, j).den.monic())
                    assert rem.is_zero

    def test_eta_is_entry_ratio_limit(self, sys1, theta1, sys2, theta2):
        # the critical value at each node is -lim Theta22/Theta21
        from bnpick.problem import INFINITY

        for sys_, theta in ((sys1, theta1), (sys2, theta2)):
            ratio = theta.entry(1, 1) / theta.entry(1, 0)
            for i in range(sys_.n):
                try:
                    got = -ratio.eval(sys_.X[i])
                except b.PoleError:
                    assert sys_.eta[i] is INFINITY
                    continue
                assert got == sys_.eta[i]

    def test_to_json_carries_kappa_and_poles(self, theta1):
        doc = theta1.to_json()
        assert doc["kappa"] == 1
        assert doc["poles"] == [0.0, 1.0]
        assert doc["entries"][0][0] == {"num": [0, 1], "den": [-1, 1]}


class TestPoles:
    def test_exact_poles_are_the_residue_nodes(self, sys1, sys2):
        for sys_ in (sys1, sys2, zero_value_system(), exact_n6_system()):
            assert b.build_theta(sys_).poles == residue_nodes(sys_)
        assert len(b.build_theta(exact_n6_system()).poles) == 6

    def test_float_poles_are_the_residue_nodes(self):
        sys_ = float_systems()[24]
        assert b.build_theta(sys_).poles == residue_nodes(sys_)


@pytest.mark.parametrize("n", [20, 24, 32])
class TestFloatResolvent:
    """The float lane where P is well conditioned but expanded monomial
    coefficients are not: Theta is evaluated from its residue form."""

    @pytest.fixture
    def case(self, n):
        sys_ = float_systems()[n]
        return sys_, b.build_theta(sys_)

    def test_j_unitary(self, case):
        assert b.check_j_unitarity(case[1]).max_residual <= 1e-9

    def test_kernel_count_within_kappa(self, case):
        sys_, theta = case
        assert b.kernel_theta_negative_squares(sys_, theta) <= sys_.kappa

    def test_factors_recompose(self, case):
        sys_, theta = case
        t1, t2 = next(f for f in (factors(sys_, k) for k in range(sys_.n // 2, 0, -1)) if f)
        lo, hi = min(sys_.X), max(sys_.X)
        for t, y in ((0.12, 1.0), (-0.43, 0.6), (0.7, 0.25), (0.17, 3.0)):
            z = complex(lo + (hi - lo) * t, y)
            want = theta.eval(z)
            got = t1.eval(z) @ t2.eval(z)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def factors(sys_, k, order=None):
    """The split of the resolvent at k, or None when k is not admissible."""
    try:
        return b.factorize(sys_, k, order)
    except b.SplitNotAdmissibleError:
        return None


def head_data(data, head):
    """The data on the nodes ``head``, listed regular first."""
    head = sorted(head, key=lambda i: not data.is_regular(i))
    regular = [i for i in head if data.is_regular(i)]
    return b.InterpolationData(
        nodes=tuple(data.nodes[i] for i in head),
        values=tuple(data.values[i] for i in regular),
        derivative_bounds=tuple(data.derivative_bounds[i] for i in regular),
        residues=tuple(data.residues[i - data.ell] for i in head if not data.is_regular(i)),
    )


def test_float_resolvent_takes_no_roots(monkeypatch):
    def no_roots(coeffs):
        raise AssertionError("np.roots called")

    sys_ = float_systems()[20]
    monkeypatch.setattr(np, "roots", no_roots)
    theta = b.build_theta(sys_)
    assert theta.poles == residue_nodes(sys_)
    b.theta_inverse(theta)
    for split in filter(None, (factors(sys_, k) for k in range(1, sys_.n + 1))):
        assert all(t.eval(1j).shape == (2, 2) for t in split)
    assert b.check_j_unitarity(theta).symbolic_zero is None
    assert b.kernel_theta_negative_squares(sys_, theta) <= sys_.kappa


def bump_residue(theta, k, amount):
    """Theta's residue form with one left column (k even) or right row
    (k odd) bumped, so that its det is no longer 1."""
    i = k % len(theta.nodes)
    left, right = list(theta.left), list(theta.right)
    if k % 2:
        right[i] = (right[i][0], right[i][1] + amount)
    else:
        left[i] = (left[i][0] + amount, left[i][1])
    return b.RationalMatrix2x2(nodes=theta.nodes, left=tuple(left), right=tuple(right))


class TestThetaInverse:
    def test_unipotent(self):
        # I + [1; 0] [0, -1] / z = [[1, -1/z], [0, 1]]
        t = b.RationalMatrix2x2(nodes=(F(0),), left=((F(1), F(0)),), right=((F(0), F(-1)),))
        assert t.entry(0, 1) == rf((-1,), (0, 1))
        inv = b.theta_inverse(t)
        assert inv.entry(0, 1) == rf((1,), (0, 1))
        assert inv.entry(0, 0) == rf((1,)) and inv.entry(1, 1) == rf((1,))

    def test_identity(self):
        ident = b.RationalMatrix2x2.identity()
        assert b.theta_inverse(ident) == ident

    def test_residue_form_inverse(self, theta1, theta2):
        rng = random.Random(53)
        thetas = [theta1, theta2] + [b.build_theta(random_invertible_system(rng))
                                     for _ in range(10)]
        for theta in thetas:
            inv = b.theta_inverse(theta)
            assert inv.nodes == theta.nodes
            assert inv.kappa == theta.kappa
            assert theta @ inv == b.RationalMatrix2x2.identity()

    @pytest.mark.parametrize("constant", [[[0, 0], [0, 0]], [[2, 0], [0, 2]]], ids=["0", "2I"])
    def test_a_constant_term_other_than_the_identity_is_refused(self, constant):
        # the adjugate, the product and the residue test of det Theta read K = I
        form = b.RationalMatrix2x2.from_json(
            {"nodes": [], "left": [], "right": [], "constant": constant})
        named = f"K = [{', '.join(str(row) for row in constant)}]"
        with pytest.raises(ValueError, match=re.escape(named)):
            b.theta_inverse(form)
        for left, right in ((form, b.RationalMatrix2x2.identity()),
                            (b.RationalMatrix2x2.identity(), form)):
            with pytest.raises(ValueError, match=re.escape(named)):
                left @ right
        report = b.check_j_unitarity(form)
        assert report.symbolic_zero is None
        # Theta J Theta* - J = (k^2 - 1) J for K = k I
        assert report.max_residual == abs(constant[0][0] ** 2 - 1)

    def test_a_node_beyond_the_float_range_is_not_sampled(self, theta1):
        # a residue form read from a document holds x_2 = 10^400 exactly;
        # its float samplers cannot, and name the entry's size
        doc = theta1.residue_json()
        doc["nodes"][1] = 10**400
        form = b.RationalMatrix2x2.from_json(doc)
        with pytest.raises(b.FloatRangeError, match="1329 bits"):
            form.eval(0.5j)

    def test_adjugate_route_agrees(self, theta1, theta2):
        rng = random.Random(59)
        thetas = [theta1, theta2] + [b.build_theta(random_invertible_system(rng))
                                     for _ in range(6)]
        for theta in thetas:
            inverse = b.theta_inverse(theta).entries
            reference = det_route_inverse(theta.entries)
            assert all(inverse[i][j] == reference[i][j] for i in range(2) for j in range(2))


class TestJUnitarity:
    def test_symbolic_zero_on_goldens(self, theta1, theta2):
        for theta in (theta1, theta2):
            report = b.check_j_unitarity(theta, sample_points=[-3, -1, 0.5, 2, 7])
            assert report.symbolic_zero is True
            assert report.max_residual <= 1e-12
            assert report.samples_used == 5

    def test_identity_matrix(self):
        report = b.check_j_unitarity(b.RationalMatrix2x2.identity(), sample_points=[0.0, 3.0])
        assert report.symbolic_zero is True and report.max_residual == 0.0
        assert report.worst_point == 0.0 and report.worst_scale == 1.0

    def test_perturbation_breaks_identity(self, theta1):
        bumped = bump_residue(theta1, 1, F(1, 10))
        report = b.check_j_unitarity(bumped, sample_points=[-3, -1, 0.5, 2, 7])
        assert report.symbolic_zero is False
        assert report.max_residual > 0.05

    def test_det_form_agrees_with_entrywise_identity(self, theta1, theta2):
        residue_forms = [theta1, theta2, b.RationalMatrix2x2.identity(), b.theta_inverse(theta1),
                         bump_residue(theta1, 1, F(1, 10)), bump_residue(theta2, 1, F(1, 5))]
        rng = random.Random(31)
        for k in range(8):
            sys_ = random_invertible_system(rng)
            theta = b.build_theta(sys_)
            residue_forms += [theta, b.theta_inverse(theta), bump_residue(theta, k, F(1, 3)),
                              bump_residue(theta, k + 1, F(1, 7))]
            for split in filter(None, (factors(sys_, s) for s in range(1, sys_.n))):
                residue_forms += split
        verdicts = []
        for theta in residue_forms:
            symbolic = b.check_j_unitarity(theta, sample_points=[0.25]).symbolic_zero
            assert symbolic is rational_j_unitary(theta)
            assert symbolic is cross_multiplied_j_unitary(theta.entries)
            verdicts.append(symbolic)
        assert True in verdicts and False in verdicts

    def test_no_gcd_on_the_certificate_paths(self, sys1, theta1, sys2, monkeypatch):
        w = b.apply_lft(theta1, b.Parameter.rational(rf((0, 1))))

        def no_gcd(a, c):
            raise AssertionError("polynomial_gcd called")

        monkeypatch.setattr(algebra, "polynomial_gcd", no_gcd)
        assert b.check_j_unitarity(theta1).symbolic_zero is True
        est = b.nt_limit(w, 0, b.LimitKind.DERIVATIVE)
        assert est.is_finite
        sys12 = grid_system(random.Random("no-gcd"), 12, exact=True)
        recomposed = 0
        for sys_ in (sys1, sys2, zero_value_system(), sys12):
            theta = b.build_theta(sys_)
            b.theta_inverse(theta)
            for k in range(1, sys_.n + 1):
                try:
                    t1, t2 = b.factorize(sys_, k)
                except b.SplitNotAdmissibleError:
                    continue
                assert t1 @ t2 == theta
                recomposed += 1
        assert recomposed >= 8
        for phi in BENCHMARK_PARAMETERS:
            b.classify_and_verify(sys12, phi)

    def test_exact_certificates_expand_nothing(self, monkeypatch):
        sys_ = exact_n6_system()
        theta = b.build_theta(sys_)
        products = []
        multiply = algebra.Polynomial.__mul__

        def counted(p, q):
            products.append((p, q))
            return multiply(p, q)

        monkeypatch.setattr(algebra.Polynomial, "__mul__", counted)
        assert b.check_j_unitarity(theta).symbolic_zero is True
        assert b.kernel_theta_negative_squares(sys_, theta) <= sys_.kappa
        split = [t for k in range(1, sys_.n + 1) for t in factors(sys_, k) or ()]
        assert split
        for t in [theta, *split]:
            assert "entries" not in t.__dict__
        assert not products

    def test_pole_samples_skipped(self, theta1):
        report = b.check_j_unitarity(theta1, sample_points=[0.0, 1.0, 2.0])
        assert report.samples_used == 1
        assert set(report.skipped) == {0.0, 1.0}

    def test_other_eval_errors_propagate(self):
        class Broken(b.RationalMatrix2x2):
            def eval(self, z):
                raise ValueError("not a pole")

        with pytest.raises(ValueError):
            b.check_j_unitarity(Broken(kappa=0), sample_points=[0.5])

    def test_reports_worst_sample_and_scale(self, theta1):
        points = [-3.0, 0.5, 0.999, 7.0]
        report = b.check_j_unitarity(theta1, sample_points=points)
        j = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        residuals = []
        for x in points:
            m = theta1.eval(complex(x))
            residuals.append(np.abs(m @ j @ m.conj().T - j).max())
        worst = int(np.argmax(residuals))
        assert report.worst_point == points[worst]
        assert report.max_residual == residuals[worst]
        assert report.worst_scale == np.abs(theta1.eval(complex(points[worst]))).max() ** 2


def reference_j_unitarity(theta, sample_points=None):
    """``check_j_unitarity`` with its sample points and pole list built as
    Python lists: the reference its array form must equal."""
    symbolic = resolvent._symbolic_j_unitary(theta) if theta.exact else None
    if sample_points is None:
        lo = min(theta.poles, default=0.0) - 1.5
        hi = max(theta.poles, default=0.0) + 1.5
        sample_points = [lo + (hi - lo) * k / 99.0 for k in range(100)]
    xs = np.array([float(x) for x in sample_points], dtype=float)
    poles = np.array([float(p) for p in theta.poles], dtype=float)
    used = np.flatnonzero(~(np.abs(xs[:, np.newaxis] - poles) < 1e-9).any(axis=1))
    values = theta.eval(xs[used].astype(complex))
    skipped = np.ones(len(xs), dtype=bool)
    skipped[used] = False
    j = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    residuals = np.abs(values @ j @ values.conj().transpose(0, 2, 1) - j).max(axis=(1, 2))
    k = int(np.argmax(residuals))
    return resolvent.JUnitarityReport(
        symbolic_zero=symbolic,
        max_residual=float(residuals[k]),
        samples_used=int(used.size),
        skipped=tuple(float(x) for x in xs[skipped]),
        worst_point=float(xs[used[k]]),
        worst_scale=float(np.abs(values[k]).max()) ** 2,
    )


class TestJUnitarityPoints:
    def test_default_points_match_the_list_reference(self, theta1, theta2):
        rng = random.Random(83)
        thetas = [theta1, theta2, b.build_theta(float_systems()[20])]
        thetas += [b.build_theta(grid_system(rng, n, exact)) for n in (5, 12) for exact in (0, 1)]
        for theta in thetas:
            assert repr(b.check_j_unitarity(theta)) == repr(reference_j_unitarity(theta))

    def test_a_sample_within_the_pole_distance_is_skipped(self, theta1):
        for theta in (theta1, b.build_theta(float_systems()[20])):
            pole = float(theta.poles[0])
            points = [pole - 2.0, pole + 0.5 * resolvent.J_POLE_SKIP,
                      pole + 3 * resolvent.J_POLE_SKIP, pole + 0.75]
            report = b.check_j_unitarity(theta, sample_points=points)
            assert repr(report) == repr(reference_j_unitarity(theta, points))
            assert report.skipped == (points[1],) and report.samples_used == 3


class TestBatchedEval:
    POINTS = [complex(x, y) for x in (-7.31, -1.2345, 0.4142, 2.6513, 9.207) for y in (0.0, 0.55)]

    def thetas(self, theta1, theta2):
        rng = random.Random(61)
        residue_forms = [theta1, theta2, b.theta_inverse(theta1), b.RationalMatrix2x2.identity()]
        residue_forms += [b.build_theta(random_invertible_system(rng)) for _ in range(6)]
        residue_forms.append(b.build_theta(float_systems()[20]))
        return residue_forms

    def test_stack_equals_pointwise(self, theta1, theta2):
        for theta in self.thetas(theta1, theta2):
            stacked = theta.eval(np.array(self.POINTS))
            assert stacked.shape == (len(self.POINTS), 2, 2)
            assert np.array_equal(stacked, np.array([theta.eval(z) for z in self.POINTS]))

    def test_pole_in_batch_raises(self, theta1):
        pole = float(theta1.poles[1])
        with pytest.raises(b.PoleError):
            theta1.eval(np.array([0.5, pole, 2.0]))


class TestKernelCounts:
    def test_goldens_reach_kappa(self, sys1, theta1, sys2, theta2):
        assert b.kernel_theta_negative_squares(sys1, theta1) == 1
        assert b.kernel_theta_negative_squares(sys2, theta2) == 1

    def test_single_node_positive(self):
        d = b.InterpolationData(nodes=(F(0),), values=(), derivative_bounds=(),
                                residues=(F(-1),))
        sys_ = b.build_system(d)
        theta = b.build_theta(sys_)
        assert b.kernel_theta_negative_squares(sys_, theta) == 0

    def test_never_exceeds_kappa_on_denser_grid(self, sys1, theta1):
        config = b.GridConfig(points_per_level=8, im_levels=(0.2, 0.7, 1.3))
        assert b.kernel_theta_negative_squares(sys1, theta1, config=config) <= sys1.kappa

    def test_a_kernel_off_its_state_space_form_raises(self, sys1, theta1):
        # one entry of P^-1 moved by 1: the direct kernel and the state-space
        # form no longer agree
        points, values = theta1._grid_table(sys1.floats.span, b.DEFAULT_GRID)
        resolvent.kernel_theta_sample(sys1, points, values)
        p_inv = [list(row) for row in sys1.p_inv]
        p_inv[0][0] += 1
        moved = dataclasses.replace(sys1, p_inv=tuple(map(tuple, p_inv)))
        with pytest.raises(ArithmeticError, match="state-space form"):
            resolvent.kernel_theta_sample(moved, points, values)


class TestFactorize:
    def test_two_regular_split(self, sys1, theta1):
        t1, t2 = b.factorize(sys1, 1)
        assert t1 @ t2 == theta1
        assert t1.kappa + t2.kappa == sys1.kappa

    def test_mixed_reordered_singular_first(self, sys2, theta2):
        t1, t2 = b.factorize(sys2, 1, order=(1, 0))
        assert t1.entry(0, 0) == rf((1,))
        assert t1.entry(0, 1) == rf((-1,), (0, 1))
        assert t1.entry(1, 0).is_zero and t1.entry(1, 1) == rf((1,))
        assert t1 @ t2 == theta2

    def test_argument_errors(self, sys1, sys3):
        with pytest.raises(b.SingularPickError):
            b.factorize(sys3, 1)
        for k in (0, sys1.n + 1):
            with pytest.raises(ValueError, match="split index"):
                b.factorize(sys1, k)
        for order in ((0, 0), (0,), (1, 2)):
            with pytest.raises(ValueError, match="permutation"):
                b.factorize(sys1, 1, order)

    def test_full_split_is_trivial(self, sys1, theta1):
        t1, t2 = b.factorize(sys1, sys1.n)
        assert t1 == theta1 and t2 == b.RationalMatrix2x2.identity()

    def test_singular_leading_block_rejected(self):
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(1)),
                                derivative_bounds=(F(0), F(1)), residues=())
        sys_ = b.build_system(d)
        assert sys_.invertible
        with pytest.raises(b.SplitNotAdmissibleError):
            b.factorize(sys_, 1)

    def test_an_ill_conditioned_leading_block_is_no_split(self):
        # with rank_tol = 0 the float leading block [[1, 1], [1, 1 + 2^-50]]
        # counts as invertible, but its inverse is refused below RCOND_MIN
        d = b.InterpolationData(nodes=(0.0, 1.0, 2.0), values=(0.0, 1.0, 5.0),
                                derivative_bounds=(1.0, 1.0 + 2.0 ** -50, 1.0), residues=())
        sys_ = b.build_system(d, 0.0)
        assert sys_.invertible
        with pytest.raises(b.SplitNotAdmissibleError, match="reciprocal condition") as exc:
            b.factorize(sys_, 2)
        assert isinstance(exc.value.__cause__, b.SingularMatrixError)

    def test_factors_are_head_resolvent_and_kappa_rest(self, sys1, sys2):
        rng = random.Random(97)
        systems = [sys1, sys2, zero_value_system(), exact_n6_system()]
        systems += [random_invertible_system(rng, n_max=6) for _ in range(10)]
        checked = 0
        for sys_ in systems:
            for order in (range(sys_.n), range(sys_.n)[::-1]):
                for k in range(1, sys_.n):
                    split = factors(sys_, k, order)
                    if not split:
                        continue
                    t1, t2 = split
                    assert t1 == b.build_theta(b.build_system(head_data(sys_.data, order[:k])))
                    assert t2.kappa == sys_.kappa - t1.kappa
                    checked += 1
        assert checked >= 20

    def test_one_inertia_and_inverse_per_split(self, monkeypatch):
        # the head system's inertia and inverse come from one elimination
        sys_ = exact_n6_system()
        calls = []
        original = problem.symmetric_elimination

        def counted(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(problem, "symmetric_elimination", counted)
        b.factorize(sys_, 3)
        assert calls == [3]

    def test_random_admissible_splits(self):
        rng = random.Random(71)
        done = 0
        while done < 10:
            sys_ = random_invertible_system(rng, n_max=5)
            if sys_.n < 2:
                continue
            theta = b.build_theta(sys_)
            for k in range(1, sys_.n):
                try:
                    t1, t2 = b.factorize(sys_, k)
                except b.SplitNotAdmissibleError:
                    continue
                assert t1 @ t2 == theta
                assert t1.kappa + t2.kappa == sys_.kappa
            done += 1



class TestCompose:
    """``@`` composes residue forms; the entrywise product is the reference."""

    @staticmethod
    def assert_matches_reference(a, c):
        product = a @ c
        reference = entrywise_product(a.entries, c.entries)
        assert all(product.entry(i, j) == reference[i][j] for i in range(2) for j in range(2))
        # the residue form keeps exactly the nodes where the product has a pole
        poles = {x for x in (*a.nodes, *c.nodes) for row in reference for e in row
                 if not e.den.eval(x)}
        assert set(product.nodes) == poles and product.kappa is None
        return product

    def test_goldens(self, sys1, theta1, sys2, theta2):
        ident = b.RationalMatrix2x2.identity()
        for sys_, theta in ((sys1, theta1), (sys2, theta2)):
            inv = b.theta_inverse(theta)
            pairs = [(theta, ident), (ident, theta), (theta, inv), (inv, theta)]
            for order in (range(sys_.n), range(sys_.n)[::-1]):
                for k in range(1, sys_.n + 1):
                    split = factors(sys_, k, order)
                    if split:
                        pairs += [split, split[::-1]]
            for a, c in pairs:
                self.assert_matches_reference(a, c)
            assert self.assert_matches_reference(*factors(sys_, 1)) == theta

    def test_factor_pairs_of_random_systems(self):
        rng = random.Random(83)
        systems = splits = 0
        while systems < 10:
            sys_ = random_invertible_system(rng, n_max=6)
            if sys_.n < 2:
                continue
            theta = b.build_theta(sys_)
            for order in (range(sys_.n), range(sys_.n)[::-1]):
                for k in range(1, sys_.n):
                    split = factors(sys_, k, order)
                    if not split:
                        continue
                    t1, t2 = split
                    assert not set(t1.nodes) & set(t2.nodes)
                    assert self.assert_matches_reference(t1, t2) == theta
                    self.assert_matches_reference(t2, t1)
                    splits += 1
            systems += 1
        assert splits >= 20

    def test_inverse_product_is_identity_with_no_nodes(self, theta1, theta2):
        rng = random.Random(89)
        thetas = [theta1, theta2, b.build_theta(zero_value_system())]
        thetas += [b.build_theta(random_invertible_system(rng)) for _ in range(6)]
        for theta in thetas:
            inv = b.theta_inverse(theta)
            for product in (theta @ inv, inv @ theta):
                assert product == b.RationalMatrix2x2.identity()
                assert product.nodes == ()

    def test_shared_nodes_with_nonzero_residues(self, theta1, theta2):
        # I + s [a; b] [-b, a] / (z - x) times Theta, with [a; b] Theta's left
        # column at x, and Theta times I + s [-r1; r0] [r0, r1] / (z - x),
        # with [r0, r1] its right row there: det-one factors whose product has
        # no double pole at x and a nonzero rank-one residue there
        rng = random.Random(101)
        thetas = [theta1, theta2] + [b.build_theta(random_invertible_system(rng))
                                     for _ in range(6)]
        shared = 0
        for theta in thetas:
            for x, (a, c), (r0, r1) in zip(theta.nodes, theta.left, theta.right):
                s = random_fraction(rng, nonzero=True)
                before = b.RationalMatrix2x2(nodes=(x,), left=((s * a, s * c),),
                                             right=((-c, a),))
                after = b.RationalMatrix2x2(nodes=(x,), left=((-s * r1, s * r0),),
                                            right=((r0, r1),))
                for product in (self.assert_matches_reference(before, theta),
                                self.assert_matches_reference(theta, after)):
                    assert b.check_j_unitarity(product, sample_points=[0.25]).symbolic_zero
                    shared += x in product.nodes
        assert shared >= 20

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_float_inverse_product_is_identity_with_no_nodes(self, n):
        theta = b.build_theta(grid_system(random.Random(1000 * n), n))
        inv = b.theta_inverse(theta)
        z = np.array([0.3 + 1j, -2.0 + 0.5j, 5.0 + 0.1j])
        for product in (theta @ inv, inv @ theta):
            assert product.nodes == ()
            assert np.abs(product.eval(z) - np.eye(2)).max() <= 1e-9

    def test_float_shared_nodes_match_the_exact_product(self):
        # test_shared_nodes_with_nonzero_residues on the float lane: the
        # residues are rank one within the zero test, the nodes kept are the
        # exact product's, and the values agree with it
        rng = random.Random(103)
        z = np.array([0.3 + 1j, -2.0 + 0.5j, 1.7 + 0.2j])
        shared = 0
        for n in (3, 5, 8):
            exact = b.build_theta(grid_system(random.Random(n), n, exact=True))
            theta = b.build_theta(grid_system(random.Random(n), n))
            for x, (a, c), (r0, r1) in zip(exact.nodes, exact.left, exact.right):
                s = random_fraction(rng, nonzero=True)
                pairs = [(b.RationalMatrix2x2(nodes=(x,), left=((s * a, s * c),), right=((-c, a),)),
                          exact),
                         (exact, b.RationalMatrix2x2(nodes=(x,), left=((-s * r1, s * r0),),
                                                     right=((r0, r1),)))]
                for pair in pairs:
                    floats = [theta if m is exact else b.RationalMatrix2x2(
                        nodes=(float(x),), left=(tuple(map(float, m.left[0])),),
                        right=(tuple(map(float, m.right[0])),)) for m in pair]
                    want, got = pair[0] @ pair[1], floats[0] @ floats[1]
                    assert got.nodes == tuple(map(float, want.nodes))
                    scale = max(1.0, np.abs(want.eval(z)).max())
                    assert np.abs(got.eval(z) - want.eval(z)).max() <= 1e-9 * scale
                    shared += float(x) in got.nodes
        assert shared >= 10

    def test_double_pole_rejected(self, theta1):
        with pytest.raises(ValueError, match="double pole"):
            theta1 @ theta1

    def test_rank_two_residue_rejected(self):
        # a shared node 0 with (r . l') = 0 but a residue [[1, 1], [-1, 0]]
        a = b.RationalMatrix2x2(nodes=(F(0), F(1)), left=((F(1), F(0)), (F(0), F(1))),
                                right=((F(0), F(1)), (F(1), F(0))))
        c = b.RationalMatrix2x2(nodes=(F(0),), left=((F(1), F(0)),), right=((F(1), F(0)),))
        with pytest.raises(ValueError, match="rank two"):
            a @ c

def test_factors_golden():
    assert factors_golden_text() == GOLDEN_FACTORS.read_text()


if __name__ == "__main__":
    GOLDEN_FACTORS.write_text(factors_golden_text())

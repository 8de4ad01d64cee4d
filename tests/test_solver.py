import random
from fractions import Fraction

import pytest

import bnpick as b
from bnpick import algebra, solver
from bnpick.boundary import LimitKind
from bnpick.solver import classify_parameter, verify_outcome

from conftest import (
    STANDARD_SWEEP,
    data_degenerate,
    data_two_regular,
    degenerate_closed_form,
    random_data,
    random_invertible_system,
    random_singular_data,
    rf,
    rref_kernel_basis,
    unique_solution,
)

F = Fraction


def label_pairs(report):
    return [(n.label.family, n.label.index) for n in report.nodes]


class TestClassifyParameter:
    def test_identity_parameter(self, sys1):
        phi = b.Parameter.rational(rf((0, 1)))
        lab0 = b.classify_parameter(sys1, phi, 0)
        assert (lab0.family, lab0.index) == ("Ctilde", 1)
        lab1 = b.classify_parameter(sys1, phi, 1)
        assert (lab1.family, lab1.index) == ("C", 1)

    def test_infinity_parameter(self, sys1):
        lab0 = b.classify_parameter(sys1, b.Parameter.infinity(), 0)
        assert (lab0.family, lab0.index) == ("Ctilde", 4)
        assert lab0.exact
        lab1 = b.classify_parameter(sys1, b.Parameter.infinity(), 1)
        assert (lab1.family, lab1.index) == ("C", 1)

    def test_constant_at_critical_value_with_zero_diagonal(self):
        # P = [[-1,1],[1,0]] has p~_11 = 0 and eta_1 = 1; phi == 1 lands on C6
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(1)),
                                derivative_bounds=(F(-1), F(0)), residues=())
        sys_ = b.build_system(d)
        assert sys_.tilde_p_diag[0] == 0 and sys_.eta[0] == 1
        lab = b.classify_parameter(sys_, b.Parameter.constant(1), 0)
        assert (lab.family, lab.index) == ("C", 6)

    def test_pole_parameter_in_tilde_family(self, sys1):
        # phi = -1/z has a pole at node 0: residual -1 gives -1/phi_res = 1 < 2
        phi = b.Parameter.rational(rf((-1,), (0, 1)))
        lab = b.classify_parameter(sys1, phi, 0)
        assert (lab.family, lab.index) == ("Ctilde", 4)

    def test_critical_slope_hits_equality_condition(self, sys2):
        # node 1 of the mixed system: eta = 1, threshold -p~/te^2 = 2;
        # z + 2 - 4/(z+1) has value 1 and slope exactly 2 there
        c5 = b.Parameter.rational(rf((-2, 3, 1), (1, 1)))
        lab = b.classify_parameter(sys2, c5, 0)
        assert (lab.family, lab.index) == ("C", 5)
        c3 = b.Parameter.rational(rf((-2, 3)))  # 3z - 2: value 1, slope 3
        lab3 = b.classify_parameter(sys2, c3, 0)
        assert (lab3.family, lab3.index) == ("C", 3)
        c4 = b.Parameter.rational(rf((0, 1)))  # z: value 1, slope 1
        lab4 = b.classify_parameter(sys2, c4, 0)
        assert (lab4.family, lab4.index) == ("C", 4)

    def test_degenerate_system_rejected(self, sys3):
        with pytest.raises(ValueError):
            b.classify_parameter(sys3, b.Parameter.constant(0), 0)


class TestPredictBehavior:
    def test_regular_mapping(self):
        lab = lambda idx: b.ConditionLabel(1, "Ctilde", idx)
        assert b.predict_behavior(lab(1), "regular").kind == "exact"
        assert b.predict_behavior(lab(2), "regular").kind == "exact"
        assert b.predict_behavior(lab(3), "regular").kind == "strict_below"
        assert b.predict_behavior(lab(4), "regular").kind == "strict_above"
        assert b.predict_behavior(lab(5), "regular").kind == "maybe_missed"
        assert b.predict_behavior(lab(6), "regular").kind == "missed"

    def test_singular_mapping(self):
        lab = lambda idx: b.ConditionLabel(2, "C", idx)
        assert b.predict_behavior(lab(1), "singular").kind == "exact"
        assert b.predict_behavior(lab(3), "singular").kind == "strict_below"
        assert b.predict_behavior(lab(4), "singular").kind == "strict_above"
        assert b.predict_behavior(lab(5), "singular").kind == "zero_residual"
        assert b.predict_behavior(lab(6), "singular").kind == "zero_residual"

    def test_strict_above_description(self):
        out = b.predict_behavior(b.ConditionLabel(1, "Ctilde", 4), "regular")
        assert "gamma_i < w'(x_i) < inf" in out.description


class TestLostSquares:
    def test_identity_sweep_keeps_all(self, sys1):
        phi = b.Parameter.rational(rf((0, 1)))
        report = b.classify_all(sys1, phi)
        assert report.k == 0 and report.class_index == 1

    def test_infinity_loses_one(self, sys1):
        report = b.classify_all(sys1, b.Parameter.infinity())
        assert report.k == 1 and report.class_index == 0

    def test_budget_enforced(self):
        labels = [b.ConditionLabel(1, "C", 5), b.ConditionLabel(2, "C", 6)]
        with pytest.raises(b.InconsistentClassificationError):
            b.lost_squares(labels, kappa=1)

    def test_positive_definite_system_never_loses(self):
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(0)),
                                derivative_bounds=(F(1), F(1)), residues=())
        sys_ = b.build_system(d)
        assert sys_.kappa == 0
        for phi in STANDARD_SWEEP:
            report = b.classify_all(sys_, phi)
            assert report.k == 0


class TestSweepSoundness:
    @pytest.mark.parametrize("which", ["two_regular", "mixed"])
    def test_predictions_confirmed_and_classes_match(self, which, sys1, sys2):
        sys_ = sys1 if which == "two_regular" else sys2
        for phi in STANDARD_SWEEP:
            report, w, sampled = b.classify_and_verify(sys_, phi)
            for node in report.nodes:
                assert node.verification.ok, (
                    f"{phi!r} at node {node.node}: predicted "
                    f"{node.predicted.kind} not confirmed"
                )
            assert sampled == report.class_index
            assert w.is_real()

    def test_problem2_membership_matches_labels(self, sys1, sys2):
        # indices <= 3 at every node exactly when the inequalities hold there,
        # which is the "bound" outcome of the one per-node check
        for sys_ in (sys1, sys2):
            for phi in STANDARD_SWEEP:
                report, w, _ = b.classify_and_verify(sys_, phi)
                checks = b.verify_candidate(sys_, w)["nodes"]
                for i, node in enumerate(report.nodes):
                    bound = verify_outcome(sys_, w, i, "bound").ok
                    assert node.label.problem2_compatible == bound == checks[i]["problem2"]

    def test_problem2_solutions_carry_at_least_kappa(self, sys1):
        # functions meeting every inequality keep the full negative-squares count
        for phi in STANDARD_SWEEP:
            report, w, sampled = b.classify_and_verify(sys1, phi)
            if all(n.label.problem2_compatible for n in report.nodes):
                assert sampled >= sys1.kappa

    def test_maybe_missed_outcome(self, sys2):
        # critical slope at node 1 with a pole correction keeping it Nevanlinna
        phi = b.Parameter.rational(rf((-2, 3, 1), (1, 1)))
        report, w, _ = b.classify_and_verify(sys2, phi)
        assert report.nodes[0].label.index == 5
        assert report.nodes[0].verification.ok

    def test_excluded_parameter_degenerates(self, sys2, theta2):
        # 2z - 1 equals -Theta22/Theta21 here: the one parameter without a
        # meromorphic image.  It is excluded with a dedicated error.
        phi = b.Parameter.rational(rf((-1, 2)))
        assert phi.as_rational() == -(theta2.entry(1, 1) / theta2.entry(1, 0))
        with pytest.raises(b.DegenerateTransformError):
            b.apply_lft(theta2, phi)

    def test_strict_below_outcome(self, sys2):
        phi = b.Parameter.rational(rf((-2, 3)))
        report, w, _ = b.classify_and_verify(sys2, phi)
        assert report.nodes[0].predicted.kind == "strict_below"
        assert report.nodes[0].verification.ok
        deriv = b.nt_limit(w, sys2.X[0], LimitKind.DERIVATIVE)
        assert deriv.value.real < float(sys2.data.derivative_bounds[0]) - 1e-6

    def test_missed_outcome_with_zero_diagonal(self):
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(1)),
                                derivative_bounds=(F(-1), F(0)), residues=())
        sys_ = b.build_system(d)
        report, w, _ = b.classify_and_verify(sys_, b.Parameter.constant(1))
        assert report.nodes[0].label.index == 6
        assert report.nodes[0].predicted.kind == "missed"
        assert report.nodes[0].verification.ok


class TestOneNodeCheck:
    """verify_candidate is verify_outcome's "exact" and "bound" on limits taken once."""

    def test_unique_solution_meets_exact_and_bound(self, sys3):
        w = unique_solution()
        checks = b.verify_candidate(sys3, w)["nodes"]
        for i in range(sys3.n):
            assert verify_outcome(sys3, w, i, "bound").ok is checks[i]["problem2"] is True
            assert verify_outcome(sys3, w, i, "exact").ok is checks[i]["problem1"] is True

    def test_default_tolerance_is_verify_tol(self, sys3):
        # (2z+1)/(2z-1) shifted by 1e-7 misses w(-1/2) = 0 by 1e-7 < VERIFY_TOL
        shifted = rf((F(9999999, 10000000), F(10000001, 5000000)), (-1, 2))
        assert b.verify_candidate(sys3, shifted)["nodes"][0]["problem1"] is True

    def test_limits_taken_once_per_node(self, sys3, monkeypatch):
        calls = []
        nt_limits = solver.nt_limits

        def counting(f, requests, *args, **kwargs):
            calls.append(list(requests))
            return nt_limits(f, requests, *args, **kwargs)

        monkeypatch.setattr(solver, "nt_limits", counting)
        b.verify_candidate(sys3, unique_solution())
        regular, singular = sys3.X
        assert calls == [[
            (regular, LimitKind.VALUE),
            (regular, LimitKind.DERIVATIVE),
            (singular, LimitKind.RESIDUAL),
        ]]

    def test_unknown_outcome_kind_rejected(self, sys3):
        with pytest.raises(ValueError):
            verify_outcome(sys3, unique_solution(), 1, "missed")


@pytest.fixture(scope="module")
def pole_system():
    # regular x=1 (w=0, gamma=1), singular x=0 (xi=1): the singular node
    # sits in family C with threshold -p~/te^2 = 2
    d = b.InterpolationData(nodes=(F(1), F(0)), values=(F(0),),
                            derivative_bounds=(F(1),), residues=(F(1),))
    return b.build_system(d)


@pytest.fixture(scope="module")
def tilde_system():
    # three nodes tuned so the singular node x=2 has te = 0 (family Ctilde
    # with threshold -p~/tc^2 = 5); kappa = 2
    d = b.InterpolationData(nodes=(F(0), F(1), F(2)), values=(F(0), F(1)),
                            derivative_bounds=(F(0), F(3)), residues=(F(1),))
    sys_ = b.build_system(d)
    assert sys_.tilde_e[2] == 0 and sys_.kappa == 2
    return sys_


class TestExtendedConditionCoverage:
    """Conditions 3-5 at singular nodes in both families, beyond the goldens."""

    def test_singular_c_family_equality_kills_residual(self, pole_system):
        # slope exactly at the threshold: the transform loses its pole
        phi = b.Parameter.rational(rf((1, 2)))
        report, w, sampled = b.classify_and_verify(pole_system, phi)
        assert report.nodes[1].label.index == 5
        assert report.nodes[1].predicted.kind == "zero_residual"
        assert report.nodes[1].verification.ok
        assert w == rf((-1, 1))  # z - 1, no pole at 0 at all
        assert sampled == report.class_index == 0

    def test_singular_c_family_strict_sides(self, pole_system):
        below = b.Parameter.rational(rf((1, 3)))  # slope 3 > 2
        report, w, sampled = b.classify_and_verify(pole_system, below)
        assert report.nodes[1].label.index == 3
        assert report.nodes[1].verification.ok and sampled == 1
        above = b.Parameter.rational(rf((1, 1)))  # slope 1 < 2
        report, w, sampled = b.classify_and_verify(pole_system, above)
        assert report.nodes[1].label.index == 4
        assert report.nodes[1].verification.ok and sampled == 0

    def test_singular_tilde_family_all_three(self, tilde_system):
        cases = (
            (F(-1, 5), 5, "zero_residual", 0),   # -1/phi_res = 5 hits the threshold
            (F(-1), 4, "strict_above", 1),       # -1/phi_res = 1 below it
            (F(-1, 10), 3, "strict_below", 2),   # -1/phi_res = 10 above it
        )
        for residue, index, kind, expected_class in cases:
            phi = b.Parameter.rational(rf((residue,), (-2, 1)))
            report, w, sampled = b.classify_and_verify(tilde_system, phi)
            node = report.nodes[2]
            assert node.label.family == "Ctilde" and node.label.index == index
            assert node.predicted.kind == kind
            assert node.verification.ok
            assert sampled == report.class_index == expected_class

    def test_double_loss_exhausts_budget(self, tilde_system):
        # -1/(5(z-2)) hits equality conditions at two nodes at once: k = kappa
        phi = b.Parameter.rational(rf((F(-1, 5),), (-2, 1)))
        report, w, sampled = b.classify_and_verify(tilde_system, phi)
        assert report.k == 2 == tilde_system.kappa
        assert sampled == report.class_index == 0

    def test_all_singular_positive_definite(self):
        # no regular nodes: E vanishes, every node sits in family Ctilde, and
        # positive definite P makes square loss impossible for any parameter
        d = b.InterpolationData(nodes=(F(0), F(2)), values=(), derivative_bounds=(),
                                residues=(F(-1), F(-2)))
        sys_ = b.build_system(d)
        assert sys_.kappa == 0 and all(v == 0 for v in sys_.tilde_e)
        assert b.equivalence_check(sys_)
        theta = b.build_theta(sys_)
        assert b.check_j_unitarity(theta).symbolic_zero
        sweep = (b.Parameter.constant(3),
                 b.Parameter.rational(rf((0, 1))),
                 b.Parameter.rational(rf((F(-1, 10),), (0, 1))))
        for phi in sweep:
            report, w, sampled = b.classify_and_verify(sys_, phi)
            assert report.k == 0 and sampled == 0
            assert all(n.label.family == "Ctilde" for n in report.nodes)
            assert all(n.verification.ok for n in report.nodes)

    def test_regular_tilde_family_pole_parameters(self, sys1):
        below = b.Parameter.rational(rf((F(-1, 10),), (0, 1)))
        report, w, sampled = b.classify_and_verify(sys1, below)
        assert report.nodes[0].label.index == 3
        assert report.nodes[0].predicted.kind == "strict_below"
        assert report.nodes[0].verification.ok and sampled == 1
        critical = b.Parameter.rational(rf((F(-1, 2),), (0, 1)))
        report, w, sampled = b.classify_and_verify(sys1, critical)
        assert report.nodes[0].label.index == 5
        assert report.nodes[0].predicted.kind == "maybe_missed"
        assert report.nodes[0].verification.ok and sampled == 0
        # this one realizes the "value exists but misses" branch
        assert w == rf((-1,), (-2, 1))


class TestFeasibility:
    def test_single_node_sets(self, sys1):
        assert b.feasibility_miss_set(sys1, [0]) is b.Feasibility.INFINITELY_MANY
        assert b.feasibility_miss_set(sys1, [1]) is b.Feasibility.INFEASIBLE

    def test_full_set(self, sys1):
        assert b.feasibility_miss_set(sys1, [0, 1]) is b.Feasibility.INFEASIBLE

    def test_empty_set(self, sys1):
        assert b.feasibility_miss_set(sys1, []) is b.Feasibility.INFINITELY_MANY

    def test_unique_parameter_verdict(self):
        # two singular nodes with p~ block negative semidefinite and singular
        d = b.InterpolationData(nodes=(F(0), F(1), F(2)), values=(F(0),),
                                derivative_bounds=(F(1),), residues=(F(1), F(1)))
        sys_ = b.build_system(d)
        if sys_.invertible:
            for subset in ([1], [2], [1, 2]):
                verdict = b.feasibility_miss_set(sys_, subset)
                assert verdict in tuple(b.Feasibility)

    def test_equivalence(self, sys1, sys2):
        assert b.equivalence_check(sys1) is False
        assert b.equivalence_check(sys2) is False
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(0)),
                                derivative_bounds=(F(1), F(1)), residues=())
        assert b.equivalence_check(b.build_system(d)) is True


class TestSolveDegenerate:
    def test_unique_solution(self, sys3):
        assert b.solve_degenerate(sys3) == unique_solution()

    def test_kernel_vector_scale_invariance(self, sys3):
        # the closed form is 0-homogeneous in the kernel vector
        w = b.solve_degenerate(sys3)
        for scale in (F(2), F(-5, 3)):
            # the kernel of [[-1,1],[1,-1]] is spanned by (1,1)
            assert degenerate_closed_form(sys3, [scale, scale]) == w

    def test_boundary_conditions_of_unique_solution(self, sys3):
        w = b.solve_degenerate(sys3)
        value = b.nt_limit(w, F(-1, 2), LimitKind.VALUE)
        deriv = b.nt_limit(w, F(-1, 2), LimitKind.DERIVATIVE)
        residual = b.nt_limit(w, F(1, 2), LimitKind.RESIDUAL)
        assert abs(value.value) <= 1e-8
        assert abs(deriv.value - (-1.0)) <= 1e-8
        assert abs(residual.value - 1.0) <= 1e-8

    def test_nullity_two_all_vectors_agree(self):
        # zero Pick matrix: every kernel vector reproduces the constant value
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(3), F(3)),
                                derivative_bounds=(F(0), F(0)), residues=())
        sys_ = b.build_system(d)
        assert sys_.inertia.zeros == 2
        assert b.solve_degenerate(sys_) == rf((3,))

    def test_random_singular_instances(self):
        rng = random.Random(83)
        for _ in range(10):
            data = random_singular_data(rng)
            sys_ = b.build_system(data)
            w = b.solve_degenerate(sys_)
            assert w.is_real()

    def test_matches_the_row_echelon_kernel_route(self):
        # reference: the closed form from the first kernel vector of the
        # reduced row echelon form of P, the route before the symmetric
        # elimination
        rng = random.Random(89)
        datas = [random_singular_data(rng, n_max=8) for _ in range(30)]
        datas.append(b.InterpolationData(nodes=(F(0), F(1), F(2)), values=(F(3),) * 3,
                                         derivative_bounds=(F(0),) * 3, residues=()))
        nullities = set()
        for data in datas:
            sys_ = b.build_system(data)
            basis = rref_kernel_basis([[v.re for v in row] for row in sys_.P.rows])
            assert len(basis) == sys_.inertia.zeros
            assert b.solve_degenerate(sys_) == degenerate_closed_form(sys_, basis[0])
            nullities.add(len(basis))
        assert nullities == {1, 3}

    def test_invertible_system_rejected(self, sys1):
        with pytest.raises(ValueError):
            b.solve_degenerate(sys1)

    def test_float_backend_agrees_with_exact(self):
        d = b.InterpolationData(nodes=(-0.5, 0.5), values=(0.0,),
                                derivative_bounds=(-1.0,), residues=(1.0,))
        sys_ = b.build_system(d)
        assert not sys_.exact and not sys_.invertible
        w = b.solve_degenerate(sys_)
        assert w.isclose(b.RationalFunction([1.0, 2.0], [-1.0, 2.0]))


class TestExactLaneAtTwelveNodes:
    def test_certificates_complete(self):
        rng = random.Random(0)
        while True:
            sys_ = b.build_system(random_data(rng, n_max=12, n_min=12))
            if sys_.invertible:
                break
        assert b.check_j_unitarity(b.build_theta(sys_)).symbolic_zero is True
        report, w, _ = b.classify_and_verify(sys_, b.Parameter.infinity())
        assert len(report.nodes) == 12 and w.exact


class TestOneSamplerPerFunction:
    def test_classify_and_verify_compiles_each_function_once(self, sys2, monkeypatch):
        compiled = []
        init = algebra.RationalSampler.__init__

        def counted(sampler, func):
            compiled.append(func)
            init(sampler, func)

        monkeypatch.setattr(algebra.RationalSampler, "__init__", counted)
        for phi in STANDARD_SWEEP:
            compiled.clear()
            try:
                b.classify_and_verify(sys2, phi)
            except b.DegenerateTransformError:
                continue
            assert compiled
            assert len({id(f) for f in compiled}) == len(compiled)


class TestOneBatchPerFunction:
    """classify_and_verify takes the limits of phi in two nt_limits calls
    (values, then what the values call for) and those of w in one."""

    @staticmethod
    def recorded(monkeypatch):
        calls = []
        nt_limits = solver.nt_limits

        def counting(f, requests, *args, **kwargs):
            calls.append((f, list(requests)))
            return nt_limits(f, requests, *args, **kwargs)

        monkeypatch.setattr(solver, "nt_limits", counting)
        return calls

    def test_maybe_missed_kernel_limit_rides_with_w(self, sys1, monkeypatch):
        calls = self.recorded(monkeypatch)
        critical = b.Parameter.rational(rf((F(-1, 2),), (0, 1)))
        report, w, _ = b.classify_and_verify(sys1, critical)
        assert report.nodes[0].predicted.kind == "maybe_missed"
        phi_calls = [requests for f, requests in calls if f is critical.func]
        w_calls = [requests for f, requests in calls if f is w]
        assert len(calls) == len(phi_calls) + len(w_calls) and len(w_calls) == 1
        x0, x1 = sys1.X
        assert phi_calls[0] == [(x0, LimitKind.VALUE), (x1, LimitKind.VALUE)]
        assert w_calls[0] == [
            (x0, LimitKind.VALUE), (x0, LimitKind.DERIVATIVE), (x0, LimitKind.KERNEL_DIAGONAL),
            (x1, LimitKind.VALUE), (x1, LimitKind.DERIVATIVE),
        ]
        assert "kernel_diagonal" in report.nodes[0].verification.details

    def test_verify_outcome_takes_no_limit_when_given_limits(self, sys1, monkeypatch):
        critical = b.Parameter.rational(rf((F(-1, 2),), (0, 1)))
        w = b.apply_lft(b.build_theta(sys1), critical)
        limits = solver._node_limits(sys1, w, {0: "maybe_missed"})[0]
        monkeypatch.setattr(solver, "nt_limits", None)
        assert verify_outcome(sys1, w, 0, "maybe_missed", limits=limits).ok

    def test_classify_all_is_classify_parameter_at_every_node(self):
        rng = random.Random(139)
        for _ in range(12):
            sys_ = random_invertible_system(rng)
            for phi in STANDARD_SWEEP:
                try:
                    expected = [classify_parameter(sys_, phi, i) for i in range(sys_.n)]
                except b.UnclassifiableParameterError as exc:
                    with pytest.raises(b.UnclassifiableParameterError, match=str(exc)):
                        b.classify_all(sys_, phi)
                    continue
                try:
                    report = b.classify_all(sys_, phi)
                except b.InconsistentClassificationError:
                    continue
                assert [node.label for node in report.nodes] == expected


class TestSolve:
    def test_parameterized_bundle(self):
        bundle = b.solve(data_two_regular())
        assert bundle.kind == "parameterized" and bundle.kappa == 1
        assert bundle.theta is not None and bundle.w is None

    def test_unique_bundle_with_verification(self):
        bundle = b.solve(data_degenerate())
        assert bundle.kind == "unique"
        assert bundle.w == unique_solution()
        assert bundle.verification["fmi_count"] == 1
        assert bundle.verification["is_problem3_solution"]
        assert all(n["problem1"] for n in bundle.verification["nodes"])

    def test_positive_definite_bundle(self):
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(0)),
                                derivative_bounds=(F(1), F(1)), residues=())
        bundle = b.solve(d)
        assert bundle.kind == "parameterized" and bundle.kappa == 0

    def test_degenerate_uniqueness_margin(self, sys3):
        # perturbing the unique solution pushes the bordered count past kappa
        w = unique_solution() + rf((F(1, 100),), (2, 1))
        assert b.fmi_check(sys3, w) > sys3.kappa

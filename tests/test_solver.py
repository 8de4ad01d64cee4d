import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bnpick as b
from bnpick import algebra, boundary, resolvent, solver
from bnpick.boundary import LimitKind
from bnpick.solver import classify_parameter, verify_outcome

from conftest import (
    STANDARD_SWEEP,
    data_degenerate,
    data_two_regular,
    degenerate_closed_form,
    degree_sample,
    grid_system,
    random_data,
    random_invertible_system,
    random_singular_data,
    rf,
    rref_kernel_basis,
    singular_probe,
    unique_solution,
)

F = Fraction

ROOT = Path(__file__).resolve().parent.parent


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
        # P = [[-1,1],[1,0]] has p~_11 = 0 and eta_1 = 1; phi == 1 lands on C6.
        # p~_22 = 1 and eta_2 = 1/2, where phi == 1/2 lands on C3.  A rational
        # phi meeting eta_i with a slope within THRESHOLD_TOL of tau_i =
        # -p~_ii / te_i^2 ties, with the same indices, on both lanes
        for c in (F, float):
            d = b.InterpolationData(nodes=(c(0), c(1)), values=(c(0), c(1)),
                                    derivative_bounds=(c(-1), c(0)), residues=())
            sys_ = b.build_system(d)
            assert sys_.tilde_p_diag == (0, 1) and sys_.eta == (1, F(1, 2))
            for i, index in ((0, 6), (1, 3)):
                x, eta = sys_.X[i], sys_.eta[i]
                lab = b.classify_parameter(sys_, b.Parameter.constant(eta), i)
                assert (lab.family, lab.index) == ("C", index)
                tau = -sys_.tilde_p_diag[i] / sys_.tilde_e[i] ** 2
                for slope in (tau, tau + c(F(1, 10**8)), tau - c(F(1, 10**8))):
                    phi = b.Parameter.rational(rf((eta - slope * x, slope)))
                    lab = b.classify_parameter(sys_, phi, i)
                    assert (lab.family, lab.index) == ("C", index)

    def test_constant_at_eta_is_labelled_by_the_sign_of_the_diagonal(self):
        # te_i = 1e200 squares to inf in floats, so tau_i = -p~_ii / te_i^2
        # rounds to 0 and used to read as a tie (index 5); at eta_i a constant
        # has s = 0 > tau_i exactly where p~_ii > 0
        sys_ = grid_system(random.Random(4000), 4, False)
        huge = dataclasses.replace(sys_, tilde_e=tuple(1e200 if te else te for te in sys_.tilde_e))
        nodes = [i for i in range(sys_.n) if sys_.tilde_e[i]]
        assert {sys_.tilde_p_diag[i] > 0 for i in nodes} == {True, False}
        for i in nodes:
            lab = b.classify_parameter(huge, b.Parameter.constant(sys_.eta[i]), i)
            assert lab.index == (3 if sys_.tilde_p_diag[i] > 0 else 4)

    def test_a_rational_threshold_beyond_the_float_range_is_labelled(self):
        # te_1 and tc_1 scaled by 1e-170 leave eta_1 as it is, but te_1^2
        # underflows to 0 in floats: tau_1 = -p~_11 / te_1 / te_1 reads -inf
        # (p~_11 > 0), so a rational phi meeting eta_1 takes the constant's
        # sign-rule label
        sys_ = grid_system(random.Random(4000), 4, False)
        tiny = dataclasses.replace(sys_, tilde_e=(sys_.tilde_e[0] * 1e-170, *sys_.tilde_e[1:]),
                                   tilde_c=(sys_.tilde_c[0] * 1e-170, *sys_.tilde_c[1:]))
        x, eta = tiny.X[0], tiny.eta[0]
        assert tiny.tilde_e[0] ** 2 == 0 and tiny.tilde_p_diag[0] > 0
        assert b.classify_parameter(tiny, b.Parameter.constant(eta), 0).index == 3
        for slope in (0.5, -0.5):
            phi = b.Parameter.rational(rf((eta - slope * x, slope)))
            label = b.classify_parameter(tiny, phi, 0)
            assert (label.family, label.index) == ("C", 3)

    def test_a_double_pole_at_a_tilde_node_is_unclassifiable(self, sys1):
        # 1/z^2 at sys1's Ctilde node x = 0: value and residual are infinite
        phi = b.Parameter.rational(rf((1,), (0, 0, 1)))
        with pytest.raises(b.UnclassifiableParameterError, match="node 1"):
            b.classify_all(sys1, phi)

    def test_pole_parameter_in_tilde_family(self, sys1):
        # phi = -1/z has a pole at node 0: residual -1 gives -1/phi_res = 1 < 2
        phi = b.Parameter.rational(rf((-1,), (0, 1)))
        lab = b.classify_parameter(sys1, phi, 0)
        assert (lab.family, lab.index) == ("Ctilde", 4)
        # phi = -1e-10/z: its residual is within ZERO_RESIDUAL_TOL of 0
        for scale in (F(1, 10**10), 1e-10):
            lab = b.classify_parameter(sys1, b.Parameter.rational(rf((-scale,), (0, 1))), 0)
            assert (lab.family, lab.index) == ("Ctilde", 2)
            assert lab.phi_residual.value == -1e-10

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

    def test_equal_inputs_share_one_record(self):
        for node_kind in ("regular", "singular"):
            for index in range(1, 7):
                first = b.predict_behavior(b.ConditionLabel(1, "C", index), node_kind)
                again = b.predict_behavior(b.ConditionLabel(5, "Ctilde", index, 0.5), node_kind)
                assert again is first and first.node_kind == node_kind

    def test_unknown_node_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown node kind 'interior'"):
            b.predict_behavior(b.ConditionLabel(1, "C", 1), "interior")


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
        rational_jets = boundary.rational_jets

        def counting(f, points):
            calls.append((f, list(points)))
            return rational_jets(f, points)

        monkeypatch.setattr(boundary, "rational_jets", counting)
        w = unique_solution()
        checks = b.verify_candidate(sys3, w)["nodes"]
        assert calls == [(w, list(sys3.X))]
        assert [list(node["checks"]) for node in checks] == [["value", "derivative"], ["residual"]]

    def test_singular_node_outcomes_without_a_finite_nonzero_residual(self, sys3):
        # x_2 = 1/2 is singular: a double pole there has no finite residual,
        # which no outcome holds, and an analytic w has residual 0, which only
        # "zero_residual" holds
        double = rf((1,), (F(1, 4), -1, 1))
        for kind in ("exact", "bound", "strict_below", "strict_above", "zero_residual"):
            verdict = verify_outcome(sys3, double, 1, kind)
            assert (verdict.ok, verdict.margin) == (False, None)
            assert verdict.details["residual"].is_infinite
        analytic = rf((1,))
        for kind in ("bound", "strict_below", "strict_above"):
            verdict = verify_outcome(sys3, analytic, 1, kind)
            assert (verdict.ok, verdict.margin) == (False, None)
        verdict = verify_outcome(sys3, analytic, 1, "zero_residual")
        assert (verdict.ok, verdict.margin) == (True, 0.0)

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
        # nodes (0, 1), values (0, 1), bounds (-1, 0): p~_11 = 0, so the
        # 1 x 1 block over node 1 is singular and negative semidefinite
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(1)),
                                derivative_bounds=(F(-1), F(0)), residues=())
        sys_ = b.build_system(d)
        assert sys_.tilde_p_diag[0] == 0
        assert b.feasibility_miss_set(sys_, [0]) is b.Feasibility.UNIQUE_PARAMETER
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

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_kernel_vectors_that_disagree_are_refused(self, exact):
        # (1, 0) is no kernel vector of sys3's P; its closed form is the
        # constant w_1 = 0, not the unique solution of (1, 1)
        data = data_degenerate()
        if not exact:
            data = b.InterpolationData(*(tuple(map(float, seq)) for seq in (
                data.nodes, data.values, data.derivative_bounds, data.residues)))
        sys_ = b.build_system(data)
        one, zero = (F(1), F(0)) if exact else (1.0, 0.0)
        assert len(sys_.kernel) == 1
        b.solve_degenerate(dataclasses.replace(sys_, kernel=sys_.kernel * 2))
        bad = dataclasses.replace(sys_, kernel=(sys_.kernel[0], (one, zero)))
        with pytest.raises(b.NoSolutionRepresentationError, match="different unique solutions"):
            b.solve_degenerate(bad)

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
        # degree-(d + 1) samples at 2 d + 2 nodes: nullity d + 1, and every
        # kernel vector's support misses nodes
        samples = [degree_sample(random.Random(d), d)[0] for d in range(1, 5)]
        nullities = set()
        for data in datas + samples:
            sys_ = b.build_system(data)
            basis = rref_kernel_basis(sys_.P.rows)
            assert len(basis) == sys_.inertia.zeros
            w, reference = b.solve_degenerate(sys_), degenerate_closed_form(sys_, basis[0])
            assert w.num.coeffs == reference.num.coeffs and w.den.coeffs == reference.den.coeffs
            nullities.add(len(basis))
        for data in samples:
            kernel = algebra.symmetric_elimination(b.build_system(data).P.rows).kernel
            assert all(0 in y for y in kernel)
        assert nullities == {1, 2, 3, 4, 5}

    def test_cancels_at_the_nodes_outside_the_support(self):
        # kernel (-2, 1, 0): over its support {0, 1} the pair is
        # (3z - 6)/(z - 2), whose common zero is the node 2 outside it
        d = b.InterpolationData(nodes=(F(0), F(1), F(2)), values=(F(3), F(3), F(5)),
                                derivative_bounds=(F(0), F(0), F(1)), residues=())
        sys_ = b.build_system(d)
        (y,) = algebra.symmetric_elimination(sys_.P.rows).kernel
        assert [v / y[1] for v in y] == [-2, 1, 0]
        _, partials = algebra._node_products(sys_.X[:2])
        pair = [algebra._node_sum([y[i] * v[i] for i in range(2)], partials, [0, 0])
                for v in (sys_.C, sys_.E)]
        num, den = algebra._integer_form(*pair)
        assert (num.coeffs, den.coeffs) == ((-6, 3), (-2, 1))
        w = b.solve_degenerate(sys_)
        assert w == rf((3,))
        assert w.num.coeffs == (3,) and w.den.coeffs == (1,)

    def test_takes_no_gcd(self, monkeypatch):
        # the solve of ex103, of degree-(d + 1) samples at 2 d + 2 nodes and
        # of the exact singular probe, with every node check and the
        # bordered count equal to kappa
        ex103 = b.InterpolationData.from_json(json.loads((ROOT / "demos/ex103.json").read_text()))
        golden = json.loads((ROOT / "tests/golden/solve-ex103.json").read_text())
        samples = [degree_sample(random.Random(d), d) for d in range(1, 5)]
        probes = [singular_probe(n, 0) for n in (8, 16, 20)]

        def no_gcd(a, c):
            raise AssertionError("polynomial_gcd called")

        monkeypatch.setattr(algebra, "polynomial_gcd", no_gcd)
        bundle = b.solve(ex103)
        assert bundle.w.to_json() == golden["w"]
        bundles = [bundle] + [b.solve(data) for data, _ in samples]
        bundles += [b.solve(sys_.data) for sys_ in probes]
        for (_, w), bundle in zip(samples, bundles[1:]):
            assert bundle.w == w
        for bundle in bundles:
            assert bundle.kind == "unique"
            assert all(node["problem1"] for node in bundle.verification["nodes"])
            assert bundle.verification["fmi_count"] == bundle.kappa

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24])
    def test_float_singular_probe(self, n):
        for s in range(3):
            sys_ = singular_probe(n, s, exact=False)
            report = b.verify_candidate(sys_, b.solve_degenerate(sys_))
            assert all(node["problem1"] for node in report["nodes"])
            assert report["fmi_count"] == sys_.kappa

    @pytest.mark.parametrize("nodes, values, bounds", [
        ((0, 1, 2), (3, 3, 5), (0, 0, 1)),
        ((0, F(1, 10**7), F(2, 10**7), 2, 3), (3, 3, 3, 5, 6), (0, 0, 0, 1, 1)),
    ])
    def test_float_kernel_zeros_are_zero(self, nodes, values, bounds):
        # the exact kernel is 0 at the nodes with bound 1 and w is 3.  On
        # (0, 1, 2) the SVD's vector ends in -2.1e-17; kept, it would give
        # w(2) = 5, the datum there.  On the nodes 1e-7 apart s_max / s_gap
        # is 2.2e8 and the residues read 8.8e-9 of the largest entry, above a
        # fixed cut of 1e-9 and below the SVD's error bound
        exact_sys, sys_ = (b.build_system(b.InterpolationData(
            tuple(map(kind, nodes)), tuple(map(kind, values)), tuple(map(kind, bounds)), ()))
            for kind in (F, float))
        w, exact_w = b.solve_degenerate(sys_), b.solve_degenerate(exact_sys)
        assert exact_w == rf((3,))
        form, _ = w._origin
        assert [bool(r[0]) for r in form.right] == [not g for g in bounds]
        report, exact_report = b.verify_candidate(sys_, w), b.verify_candidate(exact_sys, exact_w)
        verdicts = [[(node["problem1"], node["problem2"]) for node in r["nodes"]]
                    for r in (report, exact_report)]
        assert verdicts[0] == verdicts[1] == [(not g, not g) for g in bounds]
        assert report["fmi_count"] == exact_report["fmi_count"] == sys_.kappa
        for node, g in zip(report["nodes"], bounds):
            if not g:
                assert node["checks"]["value"].value == pytest.approx(3.0, abs=1e-12)
        if len(nodes) == 3:
            assert report["nodes"][2]["checks"]["value"].value == pytest.approx(3.0, abs=1e-12)
            assert w.eval(2.5) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 16])
    def test_float_solution_is_its_realization(self, n, monkeypatch):
        # a float w is its realization (X, y, C, E) with constant term 0:
        # its verification, values and document read that origin and form
        # no polynomial; num, den, str and == are formed on first read by
        # the one expansion
        sys_ = singular_probe(n, 0, exact=False)
        want = b.verify_candidate(sys_, b.solve_degenerate(sys_))
        monkeypatch.setattr(resolvent, "_expansion", lambda *args: pytest.fail("expanded"))
        w = b.solve_degenerate(sys_)
        form, phi = w._origin
        assert phi.is_infinite and form.constant == ((0.0, 0.0), (0.0, 0.0))
        assert form.nodes == sys_.X and form.left == tuple(zip(sys_.C, sys_.E))
        assert all(r[1] == 0.0 for r in form.right)
        assert repr(b.verify_candidate(sys_, w)) == repr(want)
        doc = w.to_json()
        assert set(doc) == {"theta", "phi"} and doc["phi"] == {"type": "inf"}
        assert doc["theta"]["constant"] == [[0.0, 0.0], [0.0, 0.0]]
        w.eval(float(sys_.X[0]) + 0.5)
        monkeypatch.undo()
        num, den = resolvent._expansion(form, *phi.pair())
        assert (w.num, w.den) == (num, den) and str(w) == f"({num})/({den})"
        assert w == b.RationalFunction(num, den, reduce=False)
        assert not w.num.exact and w.den.coeffs[-1] == 1
        # arithmetic reads the expansion and gives a function with no origin
        assert (w * 1)._origin is None and w * 1 == w

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_decomposes_nothing(self, exact, monkeypatch):
        # the kernel is the one build_system took from the decomposition
        # that counted P's inertia: with the elimination and the SVD made to
        # fail, every solution is the same
        rng = random.Random(83)
        datas = [random_singular_data(rng) for _ in range(10)]
        datas += [degree_sample(random.Random(d), d)[0] for d in range(1, 4)]
        datas += [singular_probe(8, s).data for s in range(3)]
        datas.append(b.InterpolationData(nodes=(F(0), F(1), F(2)), values=(F(3), F(3), F(5)),
                                         derivative_bounds=(F(0), F(0), F(1)), residues=()))
        if not exact:
            datas = [b.InterpolationData(*(tuple(map(float, v)) for v in (
                d.nodes, d.values, d.derivative_bounds, d.residues))) for d in datas]
        systems = [b.build_system(data) for data in datas]
        read = (lambda w: w) if exact else (lambda w: repr(w.to_json()))
        want = [read(b.solve_degenerate(sys_)) for sys_ in systems]

        def decomposed(*args, **kwargs):
            raise AssertionError("P was decomposed again")

        monkeypatch.setattr(np.linalg, "svd", decomposed)
        monkeypatch.setattr(algebra, "symmetric_elimination", decomposed)
        monkeypatch.setattr(solver, "symmetric_elimination", decomposed, raising=False)
        assert [read(b.solve_degenerate(sys_)) for sys_ in systems] == want
        assert max(sys_.inertia.zeros for sys_ in systems) >= 3

    def test_invertible_system_rejected(self, sys1):
        with pytest.raises(ValueError):
            b.solve_degenerate(sys1)

    def test_float_backend_agrees_with_exact(self):
        d = b.InterpolationData(nodes=(-0.5, 0.5), values=(0.0,),
                                derivative_bounds=(-1.0,), residues=(1.0,))
        sys_ = b.build_system(d)
        assert not sys_.exact and not sys_.invertible
        w = b.solve_degenerate(sys_)
        assert w.num.coeffs == pytest.approx((0.5, 1.0)) and w.den.coeffs == pytest.approx((-0.5, 1.0))


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


class TestOnlyPhiIsCompiled:
    def test_certify_compiles_only_phi_and_roots_nothing(self, sys2, monkeypatch):
        # w's count samples (Theta, phi): only phi's polynomials are compiled
        # to floats, w's never, and no polynomial is rooted
        import numpy as np

        compiled, rooted = [], []
        compile_, roots = algebra._compiled, np.roots

        def counted(p):
            compiled.append(p)
            return compile_(p)

        def counted_roots(coeffs):
            rooted.append(list(coeffs))
            return roots(coeffs)

        for module in (algebra, boundary):
            monkeypatch.setattr(module, "_compiled", counted)
        monkeypatch.setattr(np, "roots", counted_roots)
        checked = 0
        for phi in STANDARD_SWEEP:
            compiled.clear()
            rooted.clear()
            try:
                _, w, _ = b.classify_and_verify(sys2, phi)
            except b.DegenerateTransformError:
                continue
            checked += 1
            pair = phi.pair()
            assert compiled and all(any(p is q for q in pair) for p in compiled)
            assert not any(p is w.num or p is w.den for p in compiled)
            assert rooted == []
        assert checked >= 4


class TestOneBatchPerFunction:
    """classify_and_verify takes w's node pass once, read through Theta's
    residue form, and the jets of phi in one call; no path is sampled."""

    @staticmethod
    def recorded(monkeypatch):
        calls = []
        for module, name in ((solver, "lft_jets"), (solver, "rational_jets"),
                             (boundary, "node_zero_test"), (boundary, "_exact_node_zeros")):
            def counting(*args, _name=name, _call=getattr(module, name)):
                calls.append((_name, args))
                return _call(*args)

            monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def assert_one_node_pass(sys_, critical, calls):
        # the pass at every node (no index list) serves w's cancellation and
        # the limits of every node, so the zero test runs once, before phi's
        # own jets
        theta, (p, q) = b.build_theta(sys_), critical.pair()
        tests = ["node_zero_test", *(["_exact_node_zeros"] if sys_.exact else [])]
        assert [name for name, _ in calls] == ["lft_jets", *tests, "rational_jets"]
        assert calls[0][1] == (theta, p, q)
        assert calls[-1][1] == (critical.func, list(sys_.X))

    def test_maybe_missed_node_reads_what_a_regular_node_reads(self, sys1, monkeypatch):
        calls = self.recorded(monkeypatch)
        critical = b.Parameter.rational(rf((F(-1, 2),), (0, 1)))
        report, w, _ = b.classify_and_verify(sys1, critical)
        assert report.nodes[0].predicted.kind == "maybe_missed"
        self.assert_one_node_pass(sys1, critical, calls)
        assert w == b.apply_lft(b.build_theta(sys1), critical)
        details = report.nodes[0].verification.details
        assert list(details) == ["value", "derivative", "zero_test"]
        assert list(report.nodes[1].verification.details) == ["value", "derivative", "zero_test"]

    def test_float_certify_runs_the_zero_test_once(self, monkeypatch):
        data = data_two_regular()
        sys_ = b.build_system(b.InterpolationData(*(tuple(float(v) for v in seq) for seq in (
            data.nodes, data.values, data.derivative_bounds, data.residues))))
        critical = b.Parameter.rational(rf((-0.5,), (0.0, 1.0)))
        calls = self.recorded(monkeypatch)
        report, _, _ = b.classify_and_verify(sys_, critical)
        assert report.nodes[0].predicted.kind == "maybe_missed"
        self.assert_one_node_pass(sys_, critical, calls)

    def test_verify_outcome_takes_no_limit_when_given_limits(self, sys1, monkeypatch):
        critical = b.Parameter.rational(rf((F(-1, 2),), (0, 1)))
        w = b.apply_lft(b.build_theta(sys1), critical)
        limits = solver._node_limits(sys1, w, [0])[0]
        monkeypatch.setattr(solver, "rational_jets", None)
        monkeypatch.setattr(solver, "lft_jets", None)
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

"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import random
import time
from fractions import Fraction

import bnpick as b
from bnpick.boundary import LimitKind

from conftest import (
    STANDARD_SWEEP,
    data_degenerate,
    data_mixed,
    data_two_regular,
    degenerate_closed_form,
    golden_theta_mixed,
    golden_theta_two_regular,
    random_invertible_system,
    random_singular_data,
    reference_nt_limit,
    rref_kernel_basis,
    rf,
    unique_solution,
)

F = Fraction


def report(number, name):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {name}: PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "golden resolvent, two regular nodes")
def test_criterion_1_golden_theta_two_regular():
    start = time.perf_counter()
    bundle = b.solve(data_two_regular())
    elapsed = time.perf_counter() - start
    golden = golden_theta_two_regular()
    for i in range(2):
        for j in range(2):
            assert bundle.theta.entry(i, j).num == golden[i][j].num
            assert bundle.theta.entry(i, j).den == golden[i][j].den
    assert elapsed < 0.1, f"solve took {elapsed:.3f}s"


@report(2, "golden resolvent, mixed nodes")
def test_criterion_2_golden_theta_mixed():
    bundle = b.solve(data_mixed())
    golden = golden_theta_mixed()
    for i in range(2):
        for j in range(2):
            assert bundle.theta.entry(i, j).num == golden[i][j].num
            assert bundle.theta.entry(i, j).den == golden[i][j].den


@report(3, "degenerate unique solution")
def test_criterion_3_degenerate_solution():
    bundle = b.solve(data_degenerate())
    assert bundle.kind == "unique"
    assert bundle.w == unique_solution()
    value = b.nt_limit(bundle.w, F(-1, 2), LimitKind.VALUE)
    deriv = b.nt_limit(bundle.w, F(-1, 2), LimitKind.DERIVATIVE)
    residual = b.nt_limit(bundle.w, F(1, 2), LimitKind.RESIDUAL)
    assert abs(value.value - 0.0) <= 1e-8
    assert abs(deriv.value - (-1.0)) <= 1e-8
    assert abs(residual.value - 1.0) <= 1e-8
    assert bundle.verification["fmi_count"] == 1 == bundle.kappa


@report(4, "derived quantities match printed values")
def test_criterion_4_derived_quantities():
    s1 = b.build_system(data_two_regular())
    assert s1.tilde_e == (F(0), F(1))
    assert s1.tilde_c == (F(1, 2), F(1, 2))
    assert b.is_infinite(s1.eta[0]) and s1.eta[1] == F(1, 2)
    assert s1.tilde_p_diag == (F(-1, 2), F(1, 2))
    s2 = b.build_system(data_mixed())
    assert s2.tilde_e == (F(-1, 2), F(1, 2))
    assert s2.tilde_c == (F(-1, 2), F(-1, 2))
    assert s2.eta == (F(1), F(-1))
    assert s2.tilde_p_diag == (F(-1, 2), F(1, 2))


@report(5, "J-unitarity certificates")
def test_criterion_5_j_unitarity():
    for data in (data_two_regular(), data_mixed()):
        theta = b.build_theta(b.build_system(data))
        result = b.check_j_unitarity(theta)  # default: 100 real points
        assert result.symbolic_zero is True
        assert result.samples_used + len(result.skipped) == 100
        assert result.max_residual <= 1e-10


@report(6, "kernel negative-squares counts")
def test_criterion_6_kernel_counts():
    for data in (data_two_regular(), data_mixed()):
        sys_ = b.build_system(data)
        theta = b.build_theta(sys_)
        assert b.kernel_theta_negative_squares(sys_, theta) == 1
        for phi in STANDARD_SWEEP:
            try:
                w = b.apply_lft(theta, phi)
            except b.DegenerateTransformError:
                continue
            count = b.kernel_negative_squares(
                w, span=(min(map(float, sys_.X)), max(map(float, sys_.X)))
            )
            assert count <= sys_.kappa
    assert b.kernel_negative_squares(unique_solution(), span=(0.5, 0.5)) == 1
    assert b.kernel_negative_squares(rf((0, 1)), span=(-1.0, 1.0)) == 0


@report(7, "classification soundness sweep")
def test_criterion_7_classification_sweep():
    start = time.perf_counter()
    for data in (data_two_regular(), data_mixed()):
        sys_ = b.build_system(data)
        for phi in STANDARD_SWEEP:
            result, w, sampled = b.classify_and_verify(sys_, phi, tol=1e-6)
            for node in result.nodes:
                assert node.verification.ok, (
                    f"{phi!r} node {node.node} predicted {node.predicted.kind}"
                )
            assert sampled == result.class_index == sys_.kappa - result.k
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


@report(8, "boundary-derivative limit agreement")
def test_criterion_8_caratheodory_julia():
    # For a rational function the Caratheodory-Julia routes read one Laurent
    # jet, so they agree identically: at the regular node of ex103 the
    # kernel-diagonal limit of w is its derivative limit, and at the pole of
    # -1/z the residual is -1 over the kernel-diagonal limit of z.  The
    # one-point path oracle reaches the same numbers.
    w, x = b.solve(data_degenerate()).w, F(-1, 2)
    routes = (LimitKind.KERNEL_DIAGONAL, LimitKind.DERIVATIVE)
    assert [b.nt_limit(w, x, kind).value for kind in routes] == [-1.0, -1.0]
    for kind in routes:
        ref = reference_nt_limit(w, x, kind)
        assert ref.converged and abs(ref.value.real + 1.0) <= 1e-7
    f = rf((-1,), (0, 1))
    residual = b.nt_limit(f, 0, LimitKind.RESIDUAL)
    kernel = b.nt_limit(-1 / f, 0, LimitKind.KERNEL_DIAGONAL)
    assert residual.value == -1.0 / kernel.value == -1.0
    ref_residual = reference_nt_limit(f, 0, LimitKind.RESIDUAL)
    ref_kernel = reference_nt_limit(-1 / f, 0, LimitKind.KERNEL_DIAGONAL)
    assert ref_residual.converged and ref_kernel.converged
    assert abs(ref_residual.value.real - residual.value) <= 1e-7
    assert abs(-1.0 / ref_kernel.value.real - residual.value) <= 1e-7


@report(9, "property suites")
def test_criterion_9_property_suites():
    rng = random.Random(20260809)

    # Lyapunov identity exactly zero on 200 random rational instances
    from conftest import random_data

    for _ in range(200):
        sys_ = b.build_system(random_data(rng, n_max=6))
        assert b.check_lyapunov(sys_).is_zero

    # factorization identity on all admissible splits of 50 invertible systems
    for _ in range(50):
        sys_ = random_invertible_system(rng, n_max=5)
        theta = b.build_theta(sys_)
        for k in range(1, sys_.n + 1):
            try:
                t1, t2 = b.factorize(sys_, k)
            except b.SplitNotAdmissibleError:
                continue
            assert t1 @ t2 == theta
            assert t1.kappa + t2.kappa == sys_.kappa

        # off-diagonal reconstruction of the inverse Pick matrix
        for i in range(sys_.n):
            for j in range(sys_.n):
                if i != j:
                    rhs = (sys_.tilde_e[i] * sys_.tilde_c[j]
                           - sys_.tilde_c[i] * sys_.tilde_e[j]) / (sys_.X[i] - sys_.X[j])
                    assert sys_.p_inv[i][j] == rhs

    # degenerate closed form independent of the kernel vector: rebuild the
    # solution from rescaled kernel vectors and demand exact equality
    for _ in range(10):
        data = random_singular_data(rng)
        sys_ = b.build_system(data)
        w = b.solve_degenerate(sys_)  # with nullity > 1, asserts agreement inside
        assert w.is_real()
        for vec in rref_kernel_basis(sys_.P.rows):
            assert degenerate_closed_form(sys_, [F(-7, 3) * v for v in vec]) == w

    # the Nevanlinna sampler never flags these
    for phi in (b.Parameter.rational(rf((0, 1))),
                b.Parameter.rational(rf((-1,), (0, 1))),
                b.Parameter.constant(0), b.Parameter.constant(F(7, 3)),
                b.Parameter.constant(-4)):
        assert b.is_nevanlinna(phi).ok


@report(10, "miss-set feasibility and equivalence")
def test_criterion_10_feasibility():
    sys_ = b.build_system(data_two_regular())
    assert b.feasibility_miss_set(sys_, [0]) is b.Feasibility.INFINITELY_MANY
    assert b.feasibility_miss_set(sys_, [1]) is b.Feasibility.INFEASIBLE
    assert b.feasibility_miss_set(sys_, [0, 1]) is b.Feasibility.INFEASIBLE
    assert b.equivalence_check(sys_) is False

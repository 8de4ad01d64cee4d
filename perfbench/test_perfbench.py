"""Tests of the benchmark's own parts: generators, oracle, tracer, loops.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

import bnpick as b
import gen
import layers
import oracle
import run
import workloads
from ops import OpTimeout, Tracer, certify_op, solve_op, time_limit, verify_node

EX101 = b.InterpolationData((F(0), F(1)), (F(0), F(1)), (F(-1), F(1)), ())
EX102 = b.InterpolationData((F(1), F(0)), (F(0),), (F(-1),), (F(-1),))
EX103 = b.InterpolationData((F(-1, 2), F(1, 2)), (F(0),), (F(-1),), (F(1),))
EX103_W = b.RationalFunction(b.Polynomial((1, 2)), b.Polynomial((-1, 2)))


def _problem(name, data, split=1):
    kappa = b.build_system(data).kappa
    return gen.Problem(name, data, kappa, False, split)


@pytest.mark.parametrize("seed", [1, 7])
def test_invertible_pool_reproduces_its_seed(seed):
    first = gen.invertible_pool(seed, (2, 4, 8), 2, "t")
    again = gen.invertible_pool(seed, (2, 4, 8), 2, "t")
    assert [p.data for p in first] == [p.data for p in again]
    assert [p.data for p in gen.invertible_pool(seed + 1, (2, 4, 8), 2, "t")] != [
        p.data for p in first
    ]


def test_invertible_draws_match_the_library_inertia():
    rng = random.Random(3)
    for n in (2, 4, 6, 8, 16):
        p = gen.invertible_problem(rng, n)
        inertia = b.hermitian_inertia(b.build_pick(p.data))
        assert inertia.zeros == 0 and inertia.negatives == p.kappa
        assert b.build_system(gen.to_float(p.data)).invertible
        assert all(isinstance(x, float) for x in gen.to_float(p.data).nodes)


@pytest.mark.parametrize("rows, kappa, split", [
    ([[0, 1, 1], [1, 1, 0], [1, 0, 2]], 1, 3),  # D_1 = 0: reordered
    ([[1, 1, 0, 0], [1, 1, 0, 1], [0, 0, -1, 0], [0, 1, 0, 3]], 2, 1),  # D_2 = 0
    ([[0, 1], [1, 0]], None, 2),  # no nonzero diagonal: no order found
])
def test_pivoted_minors_give_the_inertia_past_a_zero_leading_minor(rows, kappa, split):
    P = b.HermitianMatrix([[F(v) for v in row] for row in rows])
    minors, order = gen.pivoted_minors(P)
    if kappa is None:
        assert len(minors) < len(rows)
    else:
        signs = [1] + [1 if d > 0 else -1 for d in minors]
        assert sum(x != y for x, y in zip(signs, signs[1:])) == kappa
        assert b.hermitian_inertia(P).negatives == kappa
        assert sorted(order) == list(range(len(rows)))
    assert gen._leading_split(P, len(rows)) == split


def test_cli_workload_reproduces_its_seed():
    first = workloads.CliWorkload(5, 2)
    again = workloads.CliWorkload(5, 2)
    assert [op[:3] for op in first.ops] == [op[:3] for op in again.ops]


def test_rounds_have_one_shape_and_fresh_problems():
    wl = workloads.CertifyWorkload("t", True, (2, 4), 3, 3, {4: (0, 2)})
    sizes = lambda ops: [(wl.problems[i].data.n, k) for i, k in ops]
    assert len(wl.rounds) == 3 and len(wl.rounds[0]) == 5 + 2
    assert sizes(wl.rounds[0]) == sizes(wl.rounds[1]) == sizes(wl.rounds[2])
    assert len({i for ops in wl.rounds for i, _ in ops}) == 3 * 2
    cli = workloads.CliWorkload(3, 2)
    shape = lambda ops: [(op[0].split(":")[0].rstrip("0123456789"), op[1][0]) for op in ops]
    assert shape(cli.rounds[0]) == shape(cli.rounds[1])


def test_op_count_depends_only_on_the_arguments():
    assert workloads.rounds_for("float-certify", 1) == workloads.MIN_ROUNDS["float-certify"]
    assert workloads.rounds_for("float-certify", 60) == round(60 / workloads.ROUND_S["float-certify"])


@pytest.mark.parametrize("seed", range(12))
def test_degenerate_draws_have_singular_p_and_return_their_generator(seed):
    first = [gen.degenerate_problem(random.Random(seed), d) for d in (0, 1, 2, 3)]
    again = [gen.degenerate_problem(random.Random(seed), d) for d in (0, 1, 2, 3)]
    assert [p.data for p in first] == [p.data for p in again]
    for p in first:
        system = b.build_system(p.data)
        assert system.inertia.zeros > 0, "degenerate draw has an invertible P"
        assert b.solve_degenerate(system) == p.w


@pytest.mark.parametrize("data", [EX101, EX102], ids=["ex101", "ex102"])
def test_oracle_accepts_golden_solve_and_certify_ops(data):
    problem = _problem("golden", data)
    system = b.build_system(data)
    out = solve_op(problem, system, Tracer(False))
    assert oracle.judge_solve(problem, True, out) == []
    for _, phi in workloads._phis(True):
        assert oracle.judge_certify(certify_op(system, phi, Tracer(False))) == []


def test_oracle_accepts_the_degenerate_golden_and_rejects_a_perturbed_w():
    problem = gen.Problem("ex103", EX103, 1, True, 0, EX103_W)
    bundle = b.solve(EX103)
    assert oracle.judge_degenerate(problem, bundle.w, bundle.verification) == []
    perturbed = bundle.w + b.RationalFunction.constant(F(1, 1000))
    assert oracle.judge_degenerate(problem, perturbed, bundle.verification) == ["degenerate_w"]


def test_node_check_rejects_a_perturbed_w():
    system = b.build_system(EX101)
    phi = b.Parameter.rational(b.RationalFunction.x())
    report = b.classify_all(system, phi)
    w = b.apply_lft(b.build_theta(system), phi)
    checks = [verify_node(Tracer(False), system, w, n.node - 1, n.predicted) for n in report.nodes]
    assert all(checks)
    bad = w + b.RationalFunction.constant(F(1, 1000))
    checks = [verify_node(Tracer(False), system, bad, n.node - 1, n.predicted) for n in report.nodes]
    assert not all(checks)


def test_traced_certify_matches_classify_and_verify():
    system = b.build_system(EX101)
    for _, phi in workloads._phis(True):
        plain = certify_op(system, phi, Tracer(False))
        traced = certify_op(system, phi, Tracer(True))
        assert plain.node_ok == traced.node_ok
        assert plain.w == traced.w and plain.sampled == traced.sampled


def test_cli_golden_checks_accept_the_demos_and_reject_a_perturbed_w():
    wl = workloads.CliWorkload(1, 1)
    golden = [op for op in wl.ops if op[0].startswith("ex")]
    assert {op[1][0] for op in golden} == {"pick", "solve", "apply", "verify"}
    for op in golden:
        code, out = wl.run(op, Tracer(False))
        assert wl.judge(op, (code, out)) == [], op[0]
    solve103 = next(op for op in golden if op[0] == "ex103.json:solve")
    code, out = wl.run(solve103, Tracer(False))
    doc = json.loads(out)
    doc["w"]["num"][0] += 1
    assert wl.judge(solve103, (code, json.dumps(doc))) == ["cli_output"]
    assert wl.judge(solve103, (2, "")) == ["cli_exit"]
    assert wl.child_peak_kb > 0


def test_cli_degenerate_solve_returns_its_generator():
    wl = workloads.CliWorkload(2, 1)
    for op in (op for op in wl.ops if op[0].startswith("deg") and op[1][0] == "solve"):
        code, out = wl.run(op, Tracer(False))
        assert wl.judge(op, (code, out)) == [], op[0]
        doc = json.loads(out)
        doc["w"]["num"][0] = str(F(doc["w"]["num"][0]) + 1)
        assert wl.judge(op, (code, json.dumps(doc))) == ["degenerate_w"]


def test_tracer_self_time_and_timeout_status():
    tracer = Tracer(True)
    tracer.op_id = 0
    with tracer.span("op.outer"):
        with tracer.span("inner"):
            pass
    with pytest.raises(OpTimeout):
        with time_limit(0.05), tracer.span("slow"):
            while True:
                pass
    outer, inner, slow = tracer.spans
    assert inner[4] == 0 and outer[4] is None
    selfs = layers._self_times(tracer.spans)
    assert selfs[0] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]))
    assert slow[5] == "timeout"


class _SleepWorkload:
    """Ops that sleep for the given number of seconds, in rounds."""

    def __init__(self, *rounds):
        self.rounds = rounds

    def run(self, op, tracer):
        with tracer.span("op.sleep"):
            time.sleep(op)


def test_closed_loop_spreads_its_pauses_between_ops():
    events = []
    wl = _SleepWorkload([0.001] * 4, [0.001] * 4)
    wl.run = lambda op, tracer: events.append("op")
    records = run.closed_loop(wl, Tracer(False), pause=lambda: events.append("pause"), pauses=3)
    assert events == ["op", "op", "pause", "op", "op", "pause", "op", "op", "pause", "op", "op"]
    assert [r.cell for r in records] == [0, 1, 2, 3] * 2


def test_cell_times_take_the_median_over_rounds():
    records = [run.Record(None, cell, t, t, None, "") for cell, t in
               [(0, 1.0), (1, 4.0), (0, 3.0), (1, 2.0), (0, 2.0), (1, 9.0)]]
    assert run.cell_times(records) == [2.0, 4.0]
    metrics = run.end_to_end(workloads.CertifyWorkload, records, [0.5])
    assert metrics["ops_per_s"]["value"] == pytest.approx(2 / 6.0)
    assert metrics["op_s.p50"]["value"] == pytest.approx(3.0)


def test_traced_loop_traces_every_op_and_pairs_the_first_round():
    records, tracer, traced_s, plain_s = run.traced_loop(_SleepWorkload([0.01, 0.02], [0.5]))
    assert [r.cell for r in records] == [0, 1, 0] and not any(r.error for r in records)
    assert [span[1] for span in tracer.spans] == ["op.sleep"] * 3
    assert 0 < traced_s < 0.5 and 0 < plain_s < 0.5


def test_an_op_past_its_limit_fails_as_a_timeout():
    wl = _SleepWorkload([0.2])
    inner = wl.run

    def limited(op, tracer):
        with time_limit(0.05):
            inner(op, tracer)

    wl.run = limited
    (record,) = run.closed_loop(wl, Tracer(False))
    assert record.error == "timeout"
    assert run.judge(wl, [record]) == {**dict.fromkeys(oracle.CHECKS, 0), "timeout": 1}

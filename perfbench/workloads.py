"""The three workloads: inputs from the seed, ops, oracle and probes.

A run is a fixed number of rounds.  Every round has the same shape: the op
at position j of a round is the same kind of request on the same kind of
input in every round (a cell), only the problem differs.  The op time of a
cell is its median over the rounds.

``exact-certify`` and ``float-certify`` run in-process.  Each problem gets
one solve op and certify ops (phi = 1/2, inf, z, -1/z); a round interleaves
sizes op by op.  ``cli-mixed`` runs one ``python -m bnpick.cli`` subprocess
per op against the working tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import bnpick as b
import bnpick.cli

import gen
import oracle
from ops import OpTimeout, Tracer, certify_op, solve_op, time_limit

ROOT = Path(__file__).resolve().parents[1]

# Per-op wall-time limit: an op that runs longer fails as a timeout.  It is
# a safety net, far above the slowest op of any workload (about 3.5 s, an
# exact n=8 solve op on a 2-CPU Xeon VM), so that no op reaches it and the
# same seed fails the same ops on every run.
OP_LIMIT_S = 30.0
# Nominal length of one round on a 2-CPU Xeon VM: a run of ``seconds`` makes
# round(seconds / ROUND_S) rounds, and at least MIN_ROUNDS, so that the op
# count of a run depends only on its arguments.  exact-certify needs five
# rounds for a steady median of its n=8 solve op, whose time varies from
# problem to problem by a factor of 1.5.
ROUND_S = {"exact-certify": 8.5, "float-certify": 5.7, "cli-mixed": 11.0}
MIN_ROUNDS = {"exact-certify": 5, "float-certify": 3, "cli-mixed": 3}
OUT_DIR = ROOT / ".bench_out"


def _phis(exact: bool):
    one = Fraction(1) if exact else 1.0
    z = b.RationalFunction(b.Polynomial((0 * one, one)))
    minus_inv_z = b.RationalFunction(b.Polynomial((-one,)), b.Polynomial((0 * one, one)))
    return (
        ("1/2", b.Parameter.constant(one / 2)),
        ("inf", b.Parameter.infinity()),
        ("z", b.Parameter.rational(z)),
        ("-1/z", b.Parameter.rational(minus_inv_z)),
    )


class CertifyWorkload:
    """Solve and certify ops on invertible problems of one lane.

    Round r draws one problem of each size.  ``kinds`` maps a size to the
    op kinds it runs (0 is the solve op, 1-4 the certify ops); a size not
    in it runs all five.
    """

    child_peak_kb = 0

    def __init__(self, name: str, exact: bool, sizes, seed: int, rounds: int, kinds=None):
        self.name = name
        self.exact = exact
        self.problems = gen.invertible_pool(seed, sizes, rounds, name)
        self.systems = [
            b.build_system(p.data if exact else gen.to_float(p.data)) for p in self.problems
        ]
        self.phis = _phis(exact)
        kinds = kinds or {}
        width = len(sizes)
        self.rounds = [
            [
                (r * width + s, k)
                for k in range(5)
                for s, n in enumerate(sizes)
                if k in kinds.get(n, range(5))
            ]
            for r in range(rounds)
        ]
        self.ops = [op for ops in self.rounds for op in ops]

    def describe(self, op) -> str:
        index, k = op
        kind = "solve" if k == 0 else f"certify({self.phis[k - 1][0]})"
        return f"{self.problems[index].name}:{kind}"

    def run(self, op, tracer: Tracer):
        index, k = op
        system = self.systems[index]
        with time_limit(OP_LIMIT_S):
            if k == 0:
                with tracer.span("op.solve"):
                    return solve_op(self.problems[index], system, tracer)
            with tracer.span("op.certify"):
                return certify_op(system, self.phis[k - 1][1], tracer)

    def judge(self, op, out) -> list:
        index, k = op
        if k == 0:
            return oracle.judge_solve(self.problems[index], self.exact, out)
        return oracle.judge_certify(out)


# -- cli-mixed ----------------------------------------------------------------

def _golden(doc, expected) -> bool:
    """True when every ``__``-separated path in ``expected`` matches the document."""
    for path, want in expected.items():
        value = doc
        for key in path.split("__"):
            value = value[int(key)] if isinstance(value, list) else value[key]
        if not (want(value) if callable(want) else value == want):
            return False
    return True


def _all_verified(nodes) -> bool:
    return all(node["verified"] for node in nodes)


# Golden CLI documents, as pinned in the README and the CLI tests.
GOLDEN_OPS = (
    ("pick", "ex101.json", None, dict(
        kappa=1, P=[[-1, 1], [1, 1]], singular=False,
        derived__eta=["inf", "1/2"], lyapunov_residual__is_zero=True)),
    ("pick", "ex103.json", None, dict(
        singular=True, derived=None,
        inertia={"negatives": 1, "zeros": 1, "positives": 0})),
    ("solve", "ex101.json", None, dict(
        kind="parameterized",
        theta__entries=[
            [{"num": [0, 1], "den": [-1, 1]}, {"num": [-1], "den": [-2, 2]}],
            [{"num": [1], "den": [-1, 1]}, {"num": [1, -4, 2], "den": [0, -2, 2]}],
        ])),
    ("solve", "ex102.json", None, dict(
        theta__entries=[
            [{"num": [-1, 2], "den": [0, 2]}, {"num": [-1], "den": [0, 2]}],
            [{"num": [-1], "den": [-2, 2]}, {"num": [-1, 2], "den": [-2, 2]}],
        ])),
    ("solve", "ex103.json", None, dict(
        kind="unique", w={"num": [1, 2], "den": [-1, 2]}, verification__fmi_count=1)),
    ("apply", "ex101.json", '{"type":"inf"}', dict(
        w={"num": [0, 1], "den": [1]}, k=1, class_index=0, kernel_negative_squares=0)),
    ("apply", "ex101.json", '{"type":"rational","num":[0,1],"den":[1]}', dict(
        w={"num": [0, -1, 0, 2], "den": [1, -4, 4]}, k=0, class_index=1,
        classification=_all_verified)),
    ("apply", "ex101.json", '{"type":"const","value":"1/2"}', dict(k=0)),
    ("verify", "ex103.json", '{"num":[1,2],"den":[-1,2]}', dict(
        fmi_count=1, kappa=1, is_problem3_solution=True,
        nodes=lambda ns: all(n["problem1"] and n["problem2"] for n in ns))),
    ("verify", "ex101.json", '{"num":[0,1],"den":[1]}', dict(
        nodes__0__problem2=False, nodes__1__problem2=True, fmi_count=1)),
    ("verify", "ex101.json", '{"num":[0,-1],"den":[1]}', dict(
        fmi_count=lambda v: v >= 2, is_problem3_solution=False)),
)

CLI_PARAMS = (
    '{"type":"const","value":"1/2"}',
    '{"type":"inf"}',
    '{"type":"rational","num":[0,1],"den":[1]}',
    '{"type":"rational","num":[-1],"den":[0,1]}',
)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class CliWorkload:
    """One CLI subprocess per op: golden demos plus small generated problems."""

    name = "cli-mixed"

    def __init__(self, seed: int, rounds: int):
        self.child_peak_kb = 0  # the largest peak RSS of any CLI child
        rng = random.Random(f"cli-mixed:{seed}")
        self.degenerate = []
        self.rounds = []
        for _ in range(rounds):
            by_cmd = self._golden_ops()
            invertible = [gen.invertible_problem(rng, n, f"inv{n}") for n in (4, 6)]
            degenerate = [gen.degenerate_problem(rng, d, f"deg{d}") for d in (1, 2)]
            self._generated_ops(by_cmd, invertible, degenerate)
            self.degenerate += degenerate
            # pick, solve, apply, verify in turn, each walking its own list once
            longest = max(len(v) for v in by_cmd.values())
            self.rounds.append([
                by_cmd[cmd][i]
                for i in range(longest)
                for cmd in ("pick", "solve", "apply", "verify")
                if i < len(by_cmd[cmd])
            ])
        self.ops = [op for ops in self.rounds for op in ops]
        self.env = cli_env()

    @staticmethod
    def _golden_ops() -> dict:
        by_cmd = {"pick": [], "solve": [], "apply": [], "verify": []}
        for cmd, demo, param, expected in GOLDEN_OPS:
            argv = [cmd, "--problem", str(ROOT / "demos" / demo)]
            if param:
                argv += ["--param", param]
            check = lambda d, e=expected: [] if _golden(d, e) else ["cli_output"]
            by_cmd[cmd].append((f"{demo}:{cmd}", argv, None, check))
        return by_cmd

    def _generated_ops(self, by_cmd, invertible, degenerate):
        for i, p in enumerate(invertible):
            text = json.dumps(p.data.to_json())
            system = b.build_system(p.data)
            theta_doc = b.build_theta(system).to_json()
            by_cmd["pick"].append((f"{p.name}:pick", ["pick"], text, self._pick_check(p)))
            by_cmd["solve"].append((f"{p.name}:solve", ["solve"], text, lambda d, t=theta_doc: (
                [] if d.get("theta") == t else ["cli_output"])))
            param = CLI_PARAMS[i % len(CLI_PARAMS)]
            by_cmd["apply"].append(
                (f"{p.name}:apply", ["apply", "--param", param], text, _apply_ok)
            )
        for p in degenerate:
            text = json.dumps(p.data.to_json())
            w_doc = p.w.to_json()
            by_cmd["pick"].append((f"{p.name}:pick", ["pick"], text, self._pick_check(p)))
            by_cmd["solve"].append((f"{p.name}:solve", ["solve"], text, lambda d, p=p: (
                oracle.judge_degenerate(p, b.RationalFunction.from_json(d["w"]),
                                        d["verification"]))))
            by_cmd["verify"].append(
                (f"{p.name}:verify", ["verify", "--param", json.dumps(w_doc)], text,
                 lambda d: [] if d["is_problem3_solution"] is True
                 and all(n["problem1"] for n in d["nodes"]) else ["degenerate_w"])
            )

    @staticmethod
    def _pick_check(p):
        def check(d):
            failed = [] if d["lyapunov_residual"]["is_zero"] is True else ["lyapunov"]
            if d["kappa"] != p.kappa or d["singular"] is not p.degenerate:
                failed.append("cli_output")
            return failed

        return check

    def describe(self, op) -> str:
        return op[0]

    def run(self, op, tracer: Tracer):
        _, argv, stdin_text, _ = op
        with tracer.span("op.cli"), tracer.span(f"cli.{argv[0]}.subprocess"):
            code, out, peak_kb = run_child(
                [sys.executable, "-m", "bnpick.cli", *argv], stdin_text, self.env, OP_LIMIT_S
            )
        self.child_peak_kb = max(self.child_peak_kb, peak_kb)
        return code, out

    def judge(self, op, out) -> list:
        return oracle.judge_cli(out[0], out[1], op[3])

    def inproc(self, op) -> float:
        """Wall time of the same argv through ``bnpick.cli.main`` in-process."""
        _, argv, stdin_text, _ = op
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text or "")
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                bnpick.cli.main(list(argv))
                return time.perf_counter() - start
        finally:
            sys.stdin = saved


def run_child(argv, stdin_text, env, limit_s):
    """Run ``argv`` to its end; returns (exit code, stdout, peak RSS in KiB).

    The child is reaped with ``os.wait4``, which gives the peak RSS of that
    child alone.  Past ``limit_s`` it is killed and ``OpTimeout`` raised.
    """
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT_DIR) as stdin, \
            tempfile.TemporaryFile("w+", dir=OUT_DIR) as stdout:
        stdin.write(stdin_text or "")
        stdin.seek(0)
        proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        try:
            with time_limit(limit_s):
                _, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        return proc.returncode, stdout.read(), usage.ru_maxrss


def _apply_ok(doc) -> list:
    failed = [] if _all_verified(doc["classification"]) else ["node_verification"]
    if doc["kernel_negative_squares"] > doc["class_index"]:
        failed.append("sampled_over")
    return failed


def rounds_for(name: str, seconds: float) -> int:
    return max(MIN_ROUNDS[name], round(seconds / ROUND_S[name]))


def make(name: str, seed: int, seconds: float):
    rounds = rounds_for(name, seconds)
    if name == "exact-certify":
        # at n=8 only the solve op: a certify op takes 2-11 s there, too
        # long and too uneven from problem to problem for a few rounds
        return CertifyWorkload(name, True, (2, 4, 6, 8), seed, rounds, {8: (0,)})
    if name == "float-certify":
        return CertifyWorkload(name, False, (8, 16, 24, 32), seed, rounds)
    if name == "cli-mixed":
        return CliWorkload(seed, rounds)
    raise KeyError(name)


# Checks that fail on some ops at the seed commit, per workload: those that
# failed on seeds 1-10 at --seconds 30.  A run is correct when no other
# check fails.  A timeout is never held against correctness: it is a failed
# op, but a slow answer rather than a wrong one.  Every failure, known kind
# or not, counts in ``failed`` and ``fail_ratio``.
SEED_FAILURES = {
    "exact-certify": {"node_verification"},
    "float-certify": {
        "j_unitarity", "theta_kernel", "factorization", "node_verification", "sampled_over",
    },
    "cli-mixed": {"node_verification"},
}

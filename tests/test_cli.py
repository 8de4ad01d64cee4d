import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bnpick as b
from bnpick.algebra import RationalFunction
from bnpick.cli import RunConfig, _realization, main
from bnpick.resolvent import RationalMatrix2x2
from bnpick.solver import _verification_json
from conftest import (
    degenerate_parameter_system, degree_sample, grid_system, probe_set, singular_probe,
)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"

_PARAMS = {
    "half": '{"type":"const","value":"1/2"}',
    "inf": '{"type":"inf"}',
    "z": '{"type":"rational","num":[0,1],"den":[1]}',
    "neg-inv-z": '{"type":"rational","num":[-1],"den":[0,1]}',
}

# Exact-backend CLI documents pinned byte for byte under tests/golden/<name>.json.
# Float-backend documents are left out: they depend on LAPACK through np.roots.
# Regenerate with `PYTHONPATH=src python tests/test_cli.py`.
GOLDEN_CASES = (
    [(f"{cmd}-{demo}", [cmd, "--problem", f"{demo}.json"])
     for cmd in ("pick", "solve") for demo in ("ex101", "ex102", "ex103")]
    + [(f"apply-{demo}-{name}", ["apply", "--problem", f"{demo}.json", "--param", param])
       for demo in ("ex101", "ex102") for name, param in _PARAMS.items()]
    + [
        ("verify-ex103-unique", ["verify", "--problem", "ex103.json",
                                 "--param", '{"num":[1,2],"den":[-1,2]}']),
        ("verify-ex101-z", ["verify", "--problem", "ex101.json",
                            "--param", '{"num":[0,1],"den":[1]}']),
        ("verify-ex101-neg-z", ["verify", "--problem", "ex101.json",
                                "--param", '{"num":[0,-1],"den":[1]}']),
    ]
)


def golden_argv(argv, out):
    """The argv of a golden case with the demo path resolved and ``--out`` added."""
    argv = list(argv)
    argv[2] = str(DEMOS / argv[2])
    return argv + ["--out", str(out)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPick:
    def test_two_regular_nodes(self, capsys):
        doc = run_json(capsys, "pick", "--problem", str(DEMOS / "ex101.json"))
        assert doc["kappa"] == 1
        assert doc["P"] == [[-1, 1], [1, 1]]
        assert doc["singular"] is False
        assert doc["derived"]["eta"] == ["inf", "1/2"]
        assert doc["lyapunov_residual"]["is_zero"] is True

    def test_degenerate_flag(self, capsys):
        doc = run_json(capsys, "pick", "--problem", str(DEMOS / "ex103.json"))
        assert doc["singular"] is True
        assert doc["derived"] is None
        assert doc["inertia"] == {"negatives": 1, "zeros": 1, "positives": 1 - 1}

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "pick", "--problem", str(bad))
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "pick", "--problem", "/no/such/file.json")
        assert code == 2

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        doc = tmp_path / "dup.json"
        doc.write_text(json.dumps({
            "regular": [{"x": 0, "w": 0, "gamma": 1}, {"x": 0, "w": 1, "gamma": 1}],
            "singular": [],
        }))
        code, _, _ = run(capsys, "pick", "--problem", str(doc))
        assert code == 2


class TestSolve:
    def test_golden_resolvent(self, capsys):
        doc = run_json(capsys, "solve", "--problem", str(DEMOS / "ex101.json"))
        assert doc["kind"] == "parameterized"
        entries = doc["theta"]["entries"]
        assert entries[0][0] == {"num": [0, 1], "den": [-1, 1]}
        assert entries[0][1] == {"num": [-1], "den": [-2, 2]}
        assert entries[1][0] == {"num": [1], "den": [-1, 1]}
        assert entries[1][1] == {"num": [1, -4, 2], "den": [0, -2, 2]}

    def test_second_golden_resolvent(self, capsys):
        doc = run_json(capsys, "solve", "--problem", str(DEMOS / "ex102.json"))
        entries = doc["theta"]["entries"]
        assert entries[0][0] == {"num": [-1, 2], "den": [0, 2]}
        assert entries[0][1] == {"num": [-1], "den": [0, 2]}
        assert entries[1][0] == {"num": [-1], "den": [-2, 2]}
        assert entries[1][1] == {"num": [-1, 2], "den": [-2, 2]}

    def test_degenerate_solution(self, capsys):
        doc = run_json(capsys, "solve", "--problem", str(DEMOS / "ex103.json"))
        assert doc["kind"] == "unique"
        assert doc["w"] == {"num": [1, 2], "den": [-1, 2]}
        assert doc["verification"]["fmi_count"] == 1

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "bundle.json"
        code, stdout, _ = run(capsys, "solve", "--problem", str(DEMOS / "ex103.json"),
                              "--out", str(out))
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["w"] == {"num": [1, 2], "den": [-1, 2]}

    def test_stdin_problem(self, capsys, monkeypatch):
        payload = (DEMOS / "ex103.json").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        doc = run_json(capsys, "solve")
        assert doc["w"] == {"num": [1, 2], "den": [-1, 2]}


class TestApply:
    def test_infinity_parameter(self, capsys):
        doc = run_json(capsys, "apply", "--problem", str(DEMOS / "ex101.json"),
                       "--param", '{"type":"inf"}')
        assert doc["w"] == {"num": [0, 1], "den": [1]}
        assert doc["k"] == 1 and doc["class_index"] == 0
        assert doc["kernel_negative_squares"] == 0

    def test_identity_parameter(self, capsys):
        doc = run_json(capsys, "apply", "--problem", str(DEMOS / "ex101.json"),
                       "--param", '{"type":"rational","num":[0,1],"den":[1]}')
        assert doc["w"] == {"num": [0, -1, 0, 2], "den": [1, -4, 4]}
        assert doc["k"] == 0 and doc["class_index"] == 1
        assert all(node["verified"] for node in doc["classification"])

    def test_non_nevanlinna_exits_3(self, capsys):
        code, _, err = run(capsys, "apply", "--problem", str(DEMOS / "ex101.json"),
                           "--param", '{"type":"rational","num":[0,0,1],"den":[1]}')
        assert code == 3
        # z^2 has the Bezout matrix [[0, 1], [1, 0]]
        assert err.splitlines()[1] == (
            "witness: 1 negative eigenvalue(s) of the Bezout matrix B; "
            "v = [1, -1] has v^T B v / v^T v = -1")

    def test_degenerate_problem_exits_3(self, capsys):
        code, _, _ = run(capsys, "apply", "--problem", str(DEMOS / "ex103.json"),
                         "--param", '{"type":"inf"}')
        assert code == 3

    def test_degenerate_float_parameter_exits_3(self, capsys, tmp_path):
        # phi = eta_1 + tau_1 (z - x_1) on float data sends the transform to
        # the constant infinity: one error line, no traceback
        sys_ = grid_system(random.Random(31), 3)
        te = sys_.tilde_e[0]
        tau = -sys_.tilde_p_diag[0] / te**2
        problem = tmp_path / "float.json"
        problem.write_text(json.dumps(sys_.data.to_json()))
        param = {"type": "rational", "num": [sys_.eta[0] - tau * sys_.X[0], tau], "den": [1.0]}
        code, _, err = run(capsys, "apply", "--problem", str(problem), "--param", json.dumps(param))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "infinity" in err

    def test_degenerate_float_parameter_at_16_nodes_exits_3(self, capsys, tmp_path):
        # phi = eta_1 + tau_1 (z - x_1) with one regular node of 16: rejected
        # from the node pass, as at 3 nodes
        sys_, phi = degenerate_parameter_system(random.Random(16), 16)
        problem = tmp_path / "float.json"
        problem.write_text(json.dumps(sys_.data.to_json()))
        code, _, err = run(capsys, "apply", "--problem", str(problem),
                           "--param", json.dumps(phi.to_json()))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "infinity" in err

    def test_param_file(self, capsys, tmp_path):
        param = tmp_path / "phi.json"
        param.write_text('{"type":"const","value":"1/2"}')
        doc = run_json(capsys, "apply", "--problem", str(DEMOS / "ex101.json"),
                       "--param", str(param))
        assert doc["k"] == 0


class TestVerify:
    def test_degenerate_round_trip(self, capsys, tmp_path):
        bundle = run_json(capsys, "solve", "--problem", str(DEMOS / "ex103.json"))
        doc = run_json(capsys, "verify", "--problem", str(DEMOS / "ex103.json"),
                       "--param", json.dumps(bundle["w"]))
        assert doc["fmi_count"] == 1 and doc["kappa"] == 1
        assert doc["is_problem3_solution"] is True
        assert all(node["problem1"] for node in doc["nodes"])
        assert all(node["problem2"] for node in doc["nodes"])

    def test_identity_candidate_violates_problem2_at_first_node(self, capsys):
        doc = run_json(capsys, "verify", "--problem", str(DEMOS / "ex101.json"),
                       "--param", '{"num":[0,1],"den":[1]}')
        nodes = {n["node"]: n for n in doc["nodes"]}
        assert nodes[1]["problem2"] is False  # derivative 1 exceeds bound -1
        assert nodes[2]["problem2"] is True
        assert doc["fmi_count"] == 1

    def test_negated_identity_is_not_a_solution(self, capsys):
        doc = run_json(capsys, "verify", "--problem", str(DEMOS / "ex101.json"),
                       "--param", '{"num":[0,-1],"den":[1]}')
        assert doc["fmi_count"] >= 2
        assert doc["is_problem3_solution"] is False

    def test_infinite_candidate_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--problem", str(DEMOS / "ex101.json"),
                         "--param", '{"type":"inf"}')
        assert code == 2


def close(got, want, tol=1e-10):
    """|got - want| <= tol max(1, |want|), componentwise for [re, im] pairs."""
    got, want = (complex(*v) if isinstance(v, list) else complex(v) for v in (got, want))
    return abs(got - want) <= tol * max(1.0, abs(want))


class TestFloatDocuments:
    """A float apply writes w as what was certified, its origin (Theta, phi),
    and verify reads that document back into the same w; a float solve
    writes Theta's residue form."""

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_emitted_w_is_the_certified_one(self, n, capsys, tmp_path):
        config = tmp_path / "float.json"
        config.write_text('{"backend": "float"}')
        problem = tmp_path / "problem.json"
        for (sys_, phi), (exact_sys, exact_phi) in zip(probe_set(n, False), probe_set(n, True)):
            problem.write_text(json.dumps(sys_.data.to_json()))
            applied = run_json(capsys, "apply", "--problem", str(problem), "--param",
                               json.dumps(phi.to_json()), "--config", str(config))
            assert set(applied["w"]) == {"theta", "phi"}
            verified = run_json(capsys, "verify", "--problem", str(problem), "--param",
                                json.dumps(applied["w"]), "--config", str(config))
            report, _, _ = b.classify_and_verify(sys_, phi)
            for node, checked in zip(report.nodes, verified["nodes"]):
                certified = node.verification.details
                for kind, limit in checked["checks"].items():
                    want = certified[kind].to_json()["value"]
                    if isinstance(want, str):
                        assert limit["value"] == want
                    else:
                        assert close(limit["value"], want)
            # its values off the axis are the exact lane's w
            w = b.apply_lft(*_realization(applied["w"]))
            exact_w = b.apply_lft(b.build_theta(exact_sys), exact_phi)
            for x in exact_sys.X[:6]:
                z = x + Fraction(1, 7)
                assert close(w.eval(float(z)), float(exact_w.eval(z)))

    def test_verify_of_a_realization_is_verify_candidate_of_its_w(self, capsys, tmp_path):
        # the document verify writes for a realization is verify_candidate
        # of the w it reads, whose node limits are rows of w's node pass
        from bnpick import cli

        config = tmp_path / "float.json"
        config.write_text('{"backend": "float"}')
        problem = tmp_path / "problem.json"
        for sys_, phi in probe_set(32, False):
            problem.write_text(json.dumps(sys_.data.to_json()))
            realization = {"theta": b.build_theta(sys_).residue_json(), "phi": phi.to_json()}
            doc = run_json(capsys, "verify", "--problem", str(problem), "--param",
                           json.dumps(realization), "--config", str(config))
            w = b.apply_lft(*_realization(realization))
            want = b.verify_candidate(b.build_system(sys_.data), w)
            assert doc == json.loads(json.dumps(_verification_json(want)))

    def test_float_singular_solve_writes_its_realization(self, capsys, tmp_path):
        # the float unique solution is written as its origin, the
        # realization with constant term 0 applied to phi = infinity, and
        # verify reads it back into the same verification
        config = tmp_path / "float.json"
        config.write_text('{"backend": "float"}')
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(singular_probe(16, 0, exact=False).data.to_json()))
        solved = run_json(capsys, "solve", "--problem", str(problem), "--config", str(config))
        assert solved["kind"] == "unique" and set(solved["w"]) == {"theta", "phi"}
        assert solved["w"]["phi"] == {"type": "inf"}
        assert solved["w"]["theta"]["constant"] == [[0.0, 0.0], [0.0, 0.0]]
        verification = solved["verification"]
        assert all(node["problem1"] for node in verification["nodes"])
        assert verification["fmi_count"] == solved["kappa"]
        verified = run_json(capsys, "verify", "--problem", str(problem), "--param",
                            json.dumps(solved["w"]), "--config", str(config))
        assert verified == verification

    def test_float_theta_document_rebuilds_theta(self, capsys, tmp_path):
        sys_ = grid_system(random.Random(16), 16)
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(sys_.data.to_json()))
        doc = run_json(capsys, "solve", "--problem", str(problem))
        theta = b.build_theta(sys_)
        rebuilt = RationalMatrix2x2.from_json(doc["theta"])
        assert rebuilt.kappa == theta.kappa == doc["kappa"]
        points = np.array([complex(t, y) for t in (-14.1, -5.5, 0.2, 3.05, 9.9, 13.6)
                           for y in (0.0, 0.75)])
        assert np.array_equal(rebuilt.eval(points), theta.eval(points))

    @pytest.mark.parametrize("change", ["no phi", "unequal lengths", "non-finite entry",
                                        "repeated node", "fractional kappa", "one constant row"])
    def test_malformed_realization_exits_2(self, change, capsys, tmp_path):
        sys_, phi = probe_set(8, False)[2]
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(sys_.data.to_json()))
        doc = {"theta": b.build_theta(sys_).residue_json(), "phi": phi.to_json()}
        if change == "no phi":
            del doc["phi"]
        elif change == "unequal lengths":
            doc["theta"]["left"].pop()
        elif change == "non-finite entry":
            doc["theta"]["right"][3][1] = float("nan")
        elif change == "repeated node":
            doc["theta"]["nodes"][1] = doc["theta"]["nodes"][0]
        elif change == "one constant row":
            doc["theta"]["constant"].pop()
        else:
            doc["theta"]["kappa"] = 1.5
        code, out, err = run(capsys, "verify", "--problem", str(problem),
                             "--param", json.dumps(doc))
        assert code == 2 and out == ""
        assert err.startswith("error: malformed candidate") and err.count("\n") == 1


class TestConfig:
    def test_float_backend(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"backend": "float"}')
        doc = run_json(capsys, "pick", "--problem", str(DEMOS / "ex101.json"),
                       "--config", str(config))
        assert doc["backend"] == "float"
        assert doc["kappa"] == 1
        assert doc["P"][0][0] == -1.0

    def test_unknown_backend_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"backend": "ternary"}')
        code, _, _ = run(capsys, "pick", "--problem", str(DEMOS / "ex101.json"),
                         "--config", str(config))
        assert code == 2

    def test_float_solve_close_to_exact(self, capsys, tmp_path):
        # the float resolvent is written as its residue form; rebuilt, it
        # takes the exact resolvent's values, such as Theta_11 = z/(z-1)
        config = tmp_path / "config.json"
        config.write_text('{"backend": "float"}')
        doc = run_json(capsys, "solve", "--problem", str(DEMOS / "ex101.json"),
                       "--config", str(config))
        exact = run_json(capsys, "solve", "--problem", str(DEMOS / "ex101.json"))
        assert doc["theta"]["nodes"] == [0.0, 1.0] and "entries" not in doc["theta"]
        theta = RationalMatrix2x2.from_json(doc["theta"])
        entries = [[RationalFunction.from_json(e) for e in row] for row in exact["theta"]["entries"]]
        for z in (0.5j, 2 + 1j, -3 + 0.25j, 0.5):
            want = np.array([[e.eval(z) for e in row] for row in entries])
            assert np.abs(theta.eval(z) - want).max() <= 1e-14 * np.abs(want).max()
        assert entries[0][0] == RationalFunction.from_json({"num": [0, 1], "den": [-1, 1]})

    def test_grid_override_accepted(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"grid": {"points_per_level": 4, "im_levels": [0.5]}}')
        doc = run_json(capsys, "verify", "--problem", str(DEMOS / "ex103.json"),
                       "--param", '{"num":[1,2],"den":[-1,2]}', "--config", str(config))
        assert doc["fmi_count"] == 1

    def test_verify_tol_key_changes_the_verify_verdict(self, capsys, tmp_path):
        # the unique solution (2z+1)/(2z-1) shifted by 1e-7 misses w(-1/2) = 0 by 1e-7
        shifted = '{"num":["9999999/10000000","10000001/5000000"],"den":[-1,2]}'
        verdicts = []
        for tol in (1e-8, 1e-6):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"verify_tol": tol}))
            doc = run_json(capsys, "verify", "--problem", str(DEMOS / "ex103.json"),
                           "--param", shifted, "--config", str(config))
            verdicts.append(doc["nodes"][0]["problem1"])
        assert verdicts == [False, True]

    def test_verify_tol_key_changes_the_solve_verdict(self, capsys, tmp_path):
        # ex103 has a singular P; on the float backend the coefficients of its
        # unique solution carry rounding, and its derivative limit misses
        # gamma_1 = -1 by 2.2e-16, within 1e-6 but not 1e-16 (the exact
        # backend's solution meets its data exactly, under any tolerance)
        verdicts = []
        for tol in (1e-16, 1e-6):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"backend": "float", "verify_tol": tol}))
            doc = run_json(capsys, "solve", "--problem", str(DEMOS / "ex103.json"),
                           "--config", str(config))
            verdicts.append(doc["verification"]["nodes"][0]["problem1"])
        assert verdicts == [False, True]

    def test_grid_key_reaches_the_degenerate_verification(self, capsys, tmp_path):
        # ex103 has a singular P; an eigenvalue slack of 10 hides the one
        # negative square of (2z+1)/(2z-1) from the sampled counts
        counts = []
        for grid in ({}, {"eig_tol": 10}):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"grid": grid}))
            doc = run_json(capsys, "solve", "--problem", str(DEMOS / "ex103.json"),
                           "--config", str(config))
            counts.append(doc["verification"]["fmi_count"])
        assert counts == [1, 0]

    @pytest.mark.parametrize("doc,named", [
        ({"verify_to": 1e-8}, "verify_to"),
        ({"grid": {"points": 4}}, "grid.points"),
        ({"grid": [4]}, "grid"),
        ({"eig_tol": 1e-6}, "eig_tol"),
    ])
    def test_unknown_config_key_exits_2(self, capsys, tmp_path, doc, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, "pick", "--problem", str(DEMOS / "ex101.json"),
                           "--config", str(config))
        assert code == 2 and named in err

    def test_eig_tol_and_grid_keys_reach_the_grid(self):
        config = RunConfig.from_json({"grid": {"eig_tol": 1e-6, "points_per_level": 4}})
        assert config.grid.eig_tol == 1e-6
        assert config.grid.points_per_level == 4
        assert config.grid.im_levels == (0.3, 1.1)


_EX101 = '{"regular":[{"x":0,"w":0,"gamma":-1},{"x":1,"w":1,"gamma":1}],"singular":[]}'
_CANDIDATE = '{"num":[0,1],"den":[1]}'


@pytest.mark.parametrize("command,problem,param,config,named", [
    ("pick", _EX101.replace('"x":0', '"x":"1/0"'), None, None, "'1/0'"),
    ("apply", _EX101, '{"type":"const","value":"1/0"}', None, "'1/0'"),
    ("verify", _EX101, '{"num":["x"],"den":[1]}', None, "'x'"),
    ("verify", _EX101, '{"num":[1],"den":[0]}', None, "zero denominator"),
    ("pick", _EX101.replace('"singular"', '"nodes":5,"singular"'), None, None, "'nodes'"),
    ("verify", _EX101, _CANDIDATE, {"rank_tol": "abc"}, "'rank_tol'"),
    ("verify", _EX101, _CANDIDATE, {"grid": {"points_per_level": "x"}}, "grid.points_per_level"),
    ("verify", _EX101, _CANDIDATE, {"grid": {"im_levels": 5}}, "grid.im_levels"),
    ("apply", _EX101, _PARAMS["z"], {"grid": {"points_per_level": 0}}, "grid.points_per_level"),
    ("verify", _EX101, _CANDIDATE, {"out": 5}, "'out'"),
    # a negative tolerance counts eigenvalues that are zero within rounding
    ("apply", _EX101, _PARAMS["z"], {"grid": {"eig_tol": -1}}, "GridConfig.eig_tol"),
    # json reads a long integer literal as an int, which no float holds
    ("verify", _EX101, _CANDIDATE, {"rank_tol": 10 ** 400}, "'rank_tol'"),
    ("verify", _EX101, _CANDIDATE, {"grid": {"re_margin": 10 ** 400}}, "grid.re_margin"),
    ("verify", _EX101, _CANDIDATE, {"grid": {"im_levels": [10 ** 400]}}, "grid.im_levels"),
    # one float datum makes the problem float data, which 10^400 cannot join
    ("pick", _EX101.replace('"x":0', '"x":0.5').replace('"w":1', f'"w":{10 ** 400}'), None, None,
     "float range"),
    # a listed node is compared exactly: the float nearest 1/3 is another node
    ("pick", _EX101.replace('"x":0', '"x":"1/3"').replace(
        '"singular"', '"nodes":[0.3333333333333333,1],"singular"'), None, None, "'nodes'"),
], ids=["node-1/0", "const-1/0", "num-x", "den-0", "nodes-5", "rank_tol-abc",
        "points-x", "im_levels-5", "points-0", "out-5", "eig_tol--1",
        "rank_tol-10^400", "re_margin-10^400", "im_levels-10^400", "w-10^400-in-float-data",
        "nodes-float-of-1/3"])
def test_malformed_input_exits_2_with_one_error_line(
    capsys, tmp_path, command, problem, param, config, named
):
    argv = [command, "--problem", str(tmp_path / "problem.json")]
    (tmp_path / "problem.json").write_text(problem)
    if param is not None:
        argv += ["--param", param]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("command", ["pick", "solve"])
@pytest.mark.parametrize("problem", [
    _EX101.replace('"w":0', '"w":NaN'),
    _EX101.replace('"x":0', '"x":Infinity'),
    _EX101.replace('"gamma":-1', '"gamma":-Infinity'),
    _EX101.replace('"w":1', '"w":1e999'),
], ids=["w-NaN", "x-Infinity", "gamma--Infinity", "w-1e999"])
def test_non_finite_problem_number_exits_2(capsys, tmp_path, command, problem):
    # json reads NaN, Infinity and an overflowing literal as non-finite floats
    (tmp_path / "problem.json").write_text(problem)
    code, out, err = run(capsys, command, "--problem", str(tmp_path / "problem.json"))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite number" in err


@pytest.mark.parametrize("levels", [[0], [-0.3], [0.5, -1.1], [float("nan")]],
                         ids=["zero", "negative", "one-negative", "NaN"])
@pytest.mark.parametrize("command,param", [("apply", _PARAMS["z"]), ("verify", _CANDIDATE)],
                         ids=["apply", "verify"])
def test_im_levels_off_the_upper_half_plane_exit_2(capsys, tmp_path, command, param, levels):
    # a grid on or below the real axis is where the kernel counts certify nothing
    (tmp_path / "config.json").write_text(json.dumps({"grid": {"im_levels": levels}}))
    code, out, err = run(capsys, command, "--problem", str(DEMOS / "ex101.json"),
                         "--param", param, "--config", str(tmp_path / "config.json"))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "grid.im_levels" in err


@pytest.mark.parametrize("key", ["rank_tol", "verify_tol"])
def test_negative_tolerance_exits_2(capsys, tmp_path, key):
    # rank_tol = -1 on the float lane read ex103's singular P as kappa = 2
    # with -1 zero eigenvalues, and exited 0
    (tmp_path / "config.json").write_text(json.dumps({"backend": "float", key: -1}))
    code, out, err = run(capsys, "pick", "--problem", str(DEMOS / "ex103.json"),
                         "--config", str(tmp_path / "config.json"))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{key}'" in err


@pytest.mark.parametrize("config,named", [
    ({"rank_tol": True}, "'rank_tol'"),
    ({"verify_tol": False}, "'verify_tol'"),
    ({"grid": {"re_margin": True}}, "grid.re_margin"),
    ({"grid": {"points_per_level": True}}, "grid.points_per_level"),
    ({"grid": {"eig_tol": True}}, "grid.eig_tol"),
    ({"grid": {"im_levels": [True]}}, "grid.im_levels"),
], ids=["rank_tol", "verify_tol", "re_margin", "points_per_level", "eig_tol", "im_levels"])
def test_boolean_config_number_exits_2(capsys, tmp_path, config, named):
    # JSON true and false are no numbers: read as 1 and 0, "rank_tol": true
    # counted every float eigenvalue within the spectral radius as zero
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, out, err = run(capsys, "solve", "--problem", str(DEMOS / "ex101.json"),
                         "--config", str(tmp_path / "config.json"))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_config_documents_accepted_before_stay_accepted():
    config = RunConfig.from_json({
        "rank_tol": "1e-9", "verify_tol": 1, "out": None,
        "grid": {"points_per_level": 1, "im_levels": [0.5, 2], "re_margin": 2, "eig_tol": 0},
    })
    assert config.rank_tol == 1e-9 and config.verify_tol == 1.0 and config.out is None
    assert config.grid.points_per_level == 1 and config.grid.im_levels == (0.5, 2)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_document(name, argv, tmp_path):
    out = tmp_path / "out.json"
    assert main(golden_argv(argv, out)) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def _demo(name):
    return b.InterpolationData.from_json(json.loads((DEMOS / f"{name}.json").read_text()))


def _library_document(name):
    """The library's document of a golden case, built with no CLI code."""
    if name.startswith("solve-"):
        return b.solve(_demo(name[len("solve-"):])).to_json()
    sys_ = b.build_system(_demo("ex101"))
    if name == "apply-ex101-z":
        phi = b.Parameter.from_json(json.loads(_PARAMS["z"]))
        report, w, sampled = b.classify_and_verify(sys_, phi)
        return {"w": w.to_json(), **report.to_json(), "kernel_negative_squares": sampled}
    w = b.RationalFunction.from_json({"num": [0, 1], "den": [1]})
    return _verification_json(b.verify_candidate(sys_, w))


@pytest.mark.parametrize("name", ["solve-ex101", "solve-ex103", "apply-ex101-z", "verify-ex101-z"])
def test_library_documents_are_the_cli_bytes(name):
    # json.dumps writes each document as it is: no CLI pass rewrites it
    text = json.dumps(_library_document(name), indent=2, allow_nan=False) + "\n"
    assert text.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_verify_writes_infinite_errors_as_inf(capsys):
    # w = 1/z has a pole at the node x_1 = 0: its value and derivative
    # limits there are infinite, and so are their errors
    doc = run_json(capsys, "verify", "--problem", str(DEMOS / "ex101.json"),
                   "--param", '{"num":[1],"den":[0,1]}')
    first = doc["nodes"][0]
    assert first["errors"] == {"value": "inf", "derivative": "inf"}
    assert first["checks"]["value"] == {"kind": "value", "value": "inf"}
    assert first["problem1"] is first["problem2"] is False


def run_module(*argv, args=("-m", "bnpick.cli")):
    """A fresh ``python -m bnpick.cli`` (or other ``args``) run from the demos
    directory, with ``src`` on the path; output is bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args, *argv], cwd=DEMOS, env=env, capture_output=True, timeout=120
    )


ENTRY_POINT_CASES = ("pick-ex101", "solve-ex103", "apply-ex101-inf", "verify-ex101-z")


@pytest.mark.parametrize("name", ENTRY_POINT_CASES)
def test_golden_document_through_the_entry_point(name):
    done = run_module(*dict(GOLDEN_CASES)[name])
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{name}.json").read_bytes()


# Runs CLI commands through main() in one fresh interpreter and prints their
# exit codes, the bnpick modules loaded and whether numpy was imported.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from bnpick.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
modules = sorted(m.split(".")[1] for m in sys.modules if m.startswith("bnpick."))
print(json.dumps([codes, modules, "numpy" in sys.modules]))
"""

# cli, errors and the modules every command reads its input with
_BASE = ["_sections", "algebra", "cli", "errors", "problem"]
_SAMPLING = ["boundary", "solver"]
_EVERYTHING = sorted([*_BASE, *_SAMPLING, "resolvent", "transform"])


@pytest.mark.parametrize("commands,modules,loads_numpy", [
    ([["pick", "--problem", "ex101.json"], ["pick", "--problem", "ex103.json"]], _BASE, False),
    ([["pick", "--problem", "ex101.json"], ["pick", "--problem", "ex103.json"],
      ["solve", "--problem", "ex101.json"]], sorted([*_BASE, "resolvent"]), False),
    ([["solve", "--problem", "ex103.json"]], sorted([*_BASE, *_SAMPLING, "resolvent"]), True),
    ([["verify", "--problem", "ex101.json", "--param", '{"num":[0,1],"den":[1]}']],
     sorted([*_BASE, *_SAMPLING]), True),
    ([["apply", "--problem", "ex101.json", "--param", _PARAMS["inf"]]], _EVERYTHING, True),
    ([["pick", "--problem", "ex101.json", "--config", "float"]], _BASE, True),
], ids=["exact-pick", "exact-pick-and-solve", "unique-solve", "verify", "apply", "float-pick"])
def test_numpy_is_loaded_only_by_commands_that_sample(commands, modules, loads_numpy, tmp_path):
    config = tmp_path / "float.json"
    config.write_text('{"backend": "float"}')
    commands = [[str(config) if arg == "float" else arg for arg in argv] for argv in commands]
    done = run_module(json.dumps(commands), args=("-c", _IMPORT_PROBE))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0] * len(commands), modules, loads_numpy]


def test_importtime_of_pick_lists_no_sampling_module():
    done = run_module("pick", "--problem", "ex101.json", args=("-X", "importtime", "-m", "bnpick.cli"))
    assert done.returncode == 0, done.stderr
    imported = {line.split("|")[-1].strip() for line in done.stderr.decode().splitlines()}
    assert "bnpick.algebra" in imported
    for name in ("solver", "boundary", "transform", "resolvent"):
        assert f"bnpick.{name}" not in imported
    assert not any(m == "numpy" or m.startswith("numpy.") for m in imported)


def test_float_overflow_exits_3_without_a_traceback(tmp_path):
    # w = Theta11 / Theta21 has the datum 10**400 (1329 bits) as a coefficient,
    # which no float holds, so its boundary limits cannot be sampled
    problem = tmp_path / "huge.json"
    problem.write_text(json.dumps({"regular": [{"x": 0, "w": 10**400, "gamma": 1}], "singular": []}))
    done = run_module("apply", "--problem", str(problem), "--param", _PARAMS["inf"])
    err = done.stderr.decode()
    assert done.returncode == 3 and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and "1329 bits" in err


def test_float_parameter_overflow_exits_3_without_a_traceback():
    # phi = 1e308 on the exact backend: w's jets at the nodes overflow the
    # float range, which is one error line, not warnings and a LinAlgError
    done = run_module("apply", "--problem", "ex101.json", "--param",
                      '{"type":"const","value":1e308}')
    err = done.stderr.decode()
    assert done.returncode == 3 and "Traceback" not in err and "Warning" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err



def test_exact_jets_beyond_the_float_range_exit_3_without_a_traceback(tmp_path):
    # a degree-3 sample dilated by z -> 10^200 z: the exact w, read from its
    # own coefficients, has coefficients of 1997 bits, whose exact zero test
    # raised OverflowError; its grid is what cannot be sampled in floats
    data, _ = degree_sample(random.Random(3), 2)
    a = Fraction(10) ** 200
    data = b.InterpolationData(tuple(x * a for x in data.nodes), data.values,
                               tuple(g / a for g in data.derivative_bounds),
                               tuple(r * a for r in data.residues))
    with pytest.raises(b.FloatRangeError, match="1997 bits"):
        b.solve(data)
    problem = tmp_path / "dilated.json"
    problem.write_text(json.dumps(data.to_json()))
    done = run_module("solve", "--problem", str(problem))
    err = done.stderr.decode()
    assert done.returncode == 3 and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and "1997 bits" in err


# x_2 = 10^400 (1329 bits): the exact Pick system holds it, no float does
_HUGE_NODE = json.dumps({"regular": [{"x": 0, "w": 0, "gamma": 1}, {"x": 10**400, "w": 1, "gamma": 1}],
                         "singular": []})


@pytest.mark.parametrize("command,param,config,code,named", [
    ("pick", None, None, 0, None),
    # Theta's document lists its poles as floats
    ("solve", None, None, 3, "float range"),
    # the candidate's limits at x_2 are floats
    ("verify", _CANDIDATE, None, 3, "float range"),
    ("pick", None, {"backend": "float"}, 2, "nodes[1]"),
], ids=["exact-pick", "exact-solve", "verify", "float-pick"])
def test_a_node_beyond_the_float_range_is_one_error_line(
    capsys, tmp_path, command, param, config, code, named
):
    (tmp_path / "problem.json").write_text(_HUGE_NODE)
    argv = [command, "--problem", str(tmp_path / "problem.json")]
    if param is not None:
        argv += ["--param", param]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert not out and err.startswith("error: ") and err.count("\n") == 1 and named in err
    else:
        assert json.loads(out)["X"][1] == 10**400 and not err


def test_a_listed_node_beyond_the_float_range_matches(capsys, tmp_path):
    # the optional "nodes" list is compared with the parsed nodes, not
    # through floats, which 10^400 overflows
    doc = json.loads(_HUGE_NODE)
    doc["nodes"] = [10**400, 0]
    (tmp_path / "problem.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "pick", "--problem", str(tmp_path / "problem.json"))
    assert code == 0 and json.loads(out)["X"][1] == 10**400 and not err


@pytest.mark.parametrize("regular", [
    # w_2 - w_1 = -2e308: P held -Infinity and the Lyapunov residual NaN
    [{"x": 0, "w": 1e308, "gamma": 1}, {"x": 1, "w": -1e308, "gamma": 1}],
    # x_2 - x_1 = 2e308: P is finite, but its Lyapunov residual was NaN
    [{"x": -1e308, "w": 0, "gamma": 1}, {"x": 1e308, "w": 1, "gamma": 1}],
], ids=["w-difference", "x-difference"])
def test_a_float_pick_matrix_beyond_the_float_range_is_one_error_line(capsys, tmp_path, regular):
    # JSON has no number for what these differences made of the documents
    (tmp_path / "problem.json").write_text(json.dumps({"regular": regular, "singular": []}))
    code, out, err = run(capsys, "pick", "--problem", str(tmp_path / "problem.json"))
    assert code == 3 and not out
    assert err == ("error: an entry of the Pick matrix or a node difference exceeds "
                   "the float range\n")


@pytest.mark.parametrize("command", ["pick", "solve"])
def test_param_is_no_option_of_pick_or_solve(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", str(DEMOS / "ex101.json"), "--param", "not json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --param" in capsys.readouterr().err


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, case_argv in GOLDEN_CASES:
        assert main(golden_argv(case_argv, GOLDEN / f"{case}.json")) == 0, case

"""The float and exact lanes agree, on invertible and on singular systems.

Each float op of ``probe_set(n, exact=False)`` is compared with its exact
twin, the same system and parameter in Fractions, at n = 8 to 32: kappa,
every node's label, k, the verdicts, the node limits, and w off the axis,
read through its origin (Theta, phi) on both lanes.

Both lanes read their limits and values in float64 from Theta's residue
form; the exact lane's residue data are rounded once, and the float lane's
rows (te_i, -tc_i) come from a float inverse of P, so they carry its
relative error, about cond(P) u (u = 2^-53, as ``boundary.JET_ZERO_TOL``
argues).  A limit or a value sums n products of those data, which adds about
n u.  So the lanes differ by about n cond(P) u relative, times the
cancellation in those sums.  cond(P) is ||P||_1 ||P^-1||_1, from P and
P^-1 as the system holds them and ``pick`` reports them.  On these probe
sets the largest difference was 10.1 n cond(P) u (n = 8, a value of w
off the axis; 3.0 for a limit, a derivative at n = 32), and the bound
LANE_FACTOR n cond(P) u keeps a factor of about 10 above it.
The bound is 2e-12 to 1.3e-10 here, so it catches a relative error of 1e-8
in the float data: with the first float tilde row scaled by 1 + 1e-8 in
``build_theta``, the test fails at every n.

On a singular system each lane's unique solution is read through its own
representation: the float w through its realization's node sums (its
origin), the exact w from its exact integers and exact jets.  The float
kernel vector is a right singular vector of P, which errs by about
u s_max / s_gap (s_gap the least singular value kept out of the kernel);
the node sums add about n u, so the lanes differ by about n s_max / s_gap u
relative, times the cancellation in the sums, which the derivative limit
(a quotient over the square of a node sum) feels most.  On the singular
probes the largest difference was 66 n (s_max / s_gap) u (n = 8, s = 2, a
derivative limit; 18.7 at n = 16 and 3.2 at n = 24 over s = 0 to 7), and
the bound SINGULAR_LANE_FACTOR n (s_max / s_gap) u keeps a factor of 15
above it.  It is 6e-12 to 2e-10 here.
"""

from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick import resolvent

from conftest import probe_set, singular_probe

U = np.finfo(float).eps / 2
LANE_FACTOR = 100
SINGULAR_LANE_FACTOR = 1000


def lane_tol(sys_) -> float:
    """LANE_FACTOR n cond_1(P) u for a float system."""
    p, p_inv = np.abs(sys_.P.to_numpy()), np.abs(np.array(sys_.p_inv, dtype=float))
    cond = p.sum(axis=0).max() * p_inv.sum(axis=0).max()
    return LANE_FACTOR * sys_.n * cond * U


def singular_lane_tol(sys_) -> float:
    """SINGULAR_LANE_FACTOR n (s_max / s_gap) u for a float singular system,
    s_gap the least singular value of P kept out of its kernel by the
    system's inertia, the library's one rank decision."""
    s = np.linalg.svd(sys_.P.to_numpy().real, compute_uv=False)
    return SINGULAR_LANE_FACTOR * sys_.n * s[0] / s[sys_.n - sys_.inertia.zeros - 1] * U


def agree(got, want, tol) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_lanes_agree_on_invertible_systems(n, monkeypatch):
    # w is read through its origin on both lanes: no expansion is formed
    monkeypatch.setattr(resolvent, "_expansion", lambda *args: pytest.fail("w was expanded"))
    for (sys_, phi), (exact_sys, exact_phi) in zip(probe_set(n, False), probe_set(n, True)):
        tol = lane_tol(sys_)
        report, w, _ = b.classify_and_verify(sys_, phi)
        exact_report, exact_w, _ = b.classify_and_verify(exact_sys, exact_phi)
        assert sys_.kappa == exact_sys.kappa == report.kappa == exact_report.kappa
        assert report.k == exact_report.k
        for node, exact_node in zip(report.nodes, exact_report.nodes, strict=True):
            assert (node.label.family, node.label.index) == (
                exact_node.label.family, exact_node.label.index)
            assert node.verification.ok == exact_node.verification.ok
            limits, exact_limits = node.verification.details, exact_node.verification.details
            assert limits.keys() == exact_limits.keys()
            for kind, exact_limit in exact_limits.items():
                if kind == "zero_test":
                    assert limits[kind]["zero"] == exact_limit["zero"]
                    continue
                limit = limits[kind]
                assert limit.status == exact_limit.status, (n, node.node, kind)
                if exact_limit.is_finite:
                    assert agree(limit.value, exact_limit.value, tol), (n, node.node, kind)
        for x in exact_sys.X[:6]:
            z = float(x + Fraction(1, 7))
            assert agree(w.eval(z), exact_w.eval(z), tol), (n, float(x))


@pytest.mark.parametrize("n", [8, 16, 24])
def test_lanes_agree_on_singular_systems(n):
    for s in range(3):
        sys_, exact_sys = singular_probe(n, s, exact=False), singular_probe(n, s)
        tol = singular_lane_tol(sys_)
        w, exact_w = b.solve_degenerate(sys_), b.solve_degenerate(exact_sys)
        assert w._origin is not None and exact_w._origin is None
        report, exact_report = b.verify_candidate(sys_, w), b.verify_candidate(exact_sys, exact_w)
        assert report["fmi_count"] == exact_report["fmi_count"] == sys_.kappa == exact_sys.kappa
        for node, exact_node in zip(report["nodes"], exact_report["nodes"], strict=True):
            assert node["problem1"] == exact_node["problem1"] is True
            assert node["problem2"] == exact_node["problem2"]
            assert node["checks"].keys() == exact_node["checks"].keys()
            for kind, exact_limit in exact_node["checks"].items():
                limit = node["checks"][kind]
                assert limit.status == exact_limit.status, (n, s, node["node"], kind)
                if exact_limit.is_finite:
                    assert agree(limit.value, exact_limit.value, tol), (n, s, node["node"], kind)
        for x in exact_sys.X[:6]:
            z = x + Fraction(1, 7)
            assert agree(w.eval(float(z)), complex(exact_w.eval(z)), tol), (n, s, float(x))

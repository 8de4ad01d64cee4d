"""The float and exact lanes agree on invertible systems.

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
"""

from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick import transform

from conftest import probe_set

U = np.finfo(float).eps / 2
LANE_FACTOR = 100


def lane_tol(sys_) -> float:
    """LANE_FACTOR n cond_1(P) u for a float system."""
    p, p_inv = np.abs(sys_.P.to_numpy()), np.abs(np.array(sys_.p_inv, dtype=float))
    cond = p.sum(axis=0).max() * p_inv.sum(axis=0).max()
    return LANE_FACTOR * sys_.n * cond * U


def agree(got, want, tol) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_lanes_agree_on_invertible_systems(n, monkeypatch):
    # w is read through its origin on both lanes: no expansion is formed
    monkeypatch.setattr(transform, "_expansion", lambda *args: pytest.fail("w was expanded"))
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

"""The library names the benchmark harness under ``perfbench/`` uses.

The harness is kept fixed between library changes, so a name it reads must
not disappear from ``bnpick``; this test fails at once when one does, rather
than the benchmark run.  Likewise for what it reads on the values: the
entries of an exact Pick matrix answer ``.re`` and ``.im``, and no other
exact value carries that adapter.
"""

import ast
import importlib
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bnpick as b
from bnpick.algebra import symmetric_elimination

from conftest import BENCHMARK_PARAMETERS, grid_system, probe_set, random_singular_data

F = Fraction

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def used_names():
    """(module, name) for every ``b.<name>`` with ``import bnpick as b`` and
    every ``from bnpick[.module] import name`` in the harness sources."""
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "bnpick"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bnpick":
                used |= {(node.module, a.name) for a in node.names}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                used.add(("bnpick", node.attr))
    return sorted(used)


def test_the_harness_uses_the_library():
    names = used_names()
    assert ("bnpick", "build_system") in names and len(names) > 20


@pytest.mark.parametrize("module,name", used_names())
def test_library_has_the_name(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.fixture(scope="module")
def ops():
    """The harness's ``perfbench/ops.py``, loaded from its file (its
    dataclasses look their module up in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location("perfbench_ops", PERFBENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_traced_certify_split_agrees_with_the_plain_op(ops, n, exact):
    # the traced split reads w from its public calls (apply_lft, nt_limit per
    # node and kind, kernel_negative_squares of w); w's origin makes each
    # read what classify_and_verify reads, so the two forms agree
    for sys_, phi in probe_set(n, exact):
        plain = ops.certify_op(sys_, phi, ops.Tracer(False))
        traced = ops.certify_op(sys_, phi, ops.Tracer(True))
        assert traced.node_ok == plain.node_ok and all(plain.node_ok)
        assert traced.sampled == plain.sampled
        assert traced.w == plain.w and repr(traced.w) == repr(plain.w)


def test_exact_pick_entries_answer_re_and_im():
    # the harness reads ``.re`` on an exact P's entries (``_integer_rows``)
    sys_ = grid_system(random.Random(3), 6, exact=True)
    for P in (sys_.P, b.build_pick(sys_.data)):
        for row in P.rows:
            for v in row:
                assert isinstance(v, Fraction) and v.re == v and v.im == 0


def plain(values) -> bool:
    return all(type(v) in (int, Fraction) for v in values)


def coefficients(func) -> list:
    return [*func.num.coeffs, *func.den.coeffs]


def test_every_other_exact_value_is_int_or_fraction():
    rng = random.Random(5)
    sys_ = grid_system(rng, 6, exact=True)
    theta = b.build_theta(sys_)
    head, rest = b.factorize(sys_, 3)
    for matrix in (theta, head @ rest, b.theta_inverse(theta)):
        assert plain(matrix.nodes)
        assert plain(v for pair in (*matrix.left, *matrix.right) for v in pair)
        assert plain(c for row in matrix.entries for e in row for c in coefficients(e))
    for phi in BENCHMARK_PARAMETERS:
        w = b.apply_lft(theta, phi)
        assert plain(coefficients(w))
        assert plain(w.eval(F(x, 7)) for x in (1, 2, 3))
    assert plain(b.Polynomial(sys_.P.rows[0]).coeffs)  # a polynomial never keeps the adapter
    assert plain(v for row in sys_.p_inv for v in row)
    assert plain((*sys_.tilde_e, *sys_.tilde_c, *sys_.tilde_p_diag))
    assert plain(v for v in sys_.eta if v is not b.INFINITY)
    elimination = symmetric_elimination(sys_.P.rows, [[1]] * sys_.n)
    assert plain(v for row in elimination.solution for v in row)

    singular = b.build_system(random_singular_data(rng))
    assert plain(coefficients(b.solve_degenerate(singular)))
    kernel = symmetric_elimination(singular.P.rows).kernel
    assert kernel and plain(v for vec in kernel for v in vec)

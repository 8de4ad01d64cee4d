import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import bnpick as b
from bnpick import problem

from conftest import (
    SYMPLECTIC_S,
    data_degenerate,
    data_mixed,
    data_two_regular,
    grid_system,
    random_data,
    random_invertible_system,
    random_singular_data,
    singular_probe,
)

F = Fraction


def ordered_sum(terms, zero):
    """Sum from ``zero``, left to right: the order of the library's sums."""
    total = zero
    for term in terms:
        total = total + term
    return total


def scalar_pick_rows(data):
    """P entry by entry in Python arithmetic, on either lane."""
    n, ell = data.n, data.ell
    x, w, gamma, xi = data.nodes, data.values, data.derivative_bounds, data.residues
    rows = [[None] * n for _ in range(n)]
    for i in range(ell):
        for j in range(ell):
            rows[i][j] = gamma[i] if i == j else (w[j] - w[i]) / (x[j] - x[i])
    for i in range(ell):
        for k in range(n - ell):
            rows[i][ell + k] = rows[ell + k][i] = xi[k] / (x[ell + k] - x[i])
    for k in range(n - ell):
        for m in range(n - ell):
            rows[ell + k][ell + m] = -xi[k] if k == m else 0 * xi[k]
    return rows


def scalar_lyapunov(P, x, e, c):
    """(worst, location) of the Lyapunov residual over every entry: the
    first largest in row-major order."""
    worst = location = None
    for i in range(len(x)):
        for j in range(len(x)):
            res = P[i][j].real * (x[j] - x[i]) - (e[i] * c[j] - c[i] * e[j])
            if worst is None or abs(res) > worst:
                worst, location = abs(res), (i, j)
    return worst, location


def scalar_float_system(data, rank_tol=1e-9):
    """The float system by the scalar route: P's entries in Python floats,
    numpy's eigvalsh and inv of the complex matrix, and the tilde rows as
    ordered sums of Python products, reported as reprs (which tell -0.0
    from 0.0)."""
    n, ell = data.n, data.ell
    rows = scalar_pick_rows(data)
    arr = np.array([[complex(v) for v in row] for row in rows])
    eigs = np.linalg.eigvalsh(arr)
    tol = rank_tol * max(1.0, float(np.abs(eigs).max()))
    neg, pos = int(np.sum(eigs < -tol)), int(np.sum(eigs > tol))
    p_inv = [[v.real for v in row] for row in np.linalg.inv(arr).tolist()]
    E = [1.0 if i < ell else 0.0 for i in range(n)]
    C = [data.values[i] if i < ell else data.residues[i - ell] for i in range(n)]
    tilde_e = [ordered_sum((p_inv[i][j] for i in range(ell)), 0.0) for j in range(n)]
    tilde_c = [ordered_sum((C[i] * p_inv[i][j] for i in range(n)), 0.0) for j in range(n)]
    eta = [tc / te if te else b.INFINITY for te, tc in zip(tilde_e, tilde_c)]
    return repr(dict(
        P=[[complex(v) for v in row] for row in rows],
        inertia=(neg, n - neg - pos, pos),
        p_inv=p_inv, tilde_e=tilde_e, tilde_c=tilde_c, eta=eta,
        lyapunov=scalar_lyapunov(rows, data.nodes, E, C),
    ))


def system_fingerprint(sys_):
    """The fields of ``scalar_float_system`` read off a built system."""
    report = b.check_lyapunov(sys_)
    return repr(dict(
        P=[list(row) for row in sys_.P.rows],
        inertia=sys_.inertia.astuple(),
        p_inv=[list(row) for row in sys_.p_inv],
        tilde_e=list(sys_.tilde_e), tilde_c=list(sys_.tilde_c), eta=list(sys_.eta),
        # a zero residual has no location; the scalar route's is its first entry
        lyapunov=(report.max_abs, report.location or (0, 0)),
    ))


def float_thirds_data(rng, n, ell):
    """Float data on n nodes of the 1/3-grid, ell of them regular; nonzero
    values, bounds and residues of both signs."""
    third = lambda: rng.choice([p for p in range(-30, 31) if p]) / 3
    return b.InterpolationData(
        nodes=tuple(v / 3 for v in rng.sample(range(-40, 41), n)),
        values=tuple(third() for _ in range(ell)),
        derivative_bounds=tuple(third() for _ in range(ell)),
        residues=tuple(third() for _ in range(n - ell)),
    )


class TestInterpolationData:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(b.InvalidDataError):
            b.InterpolationData(nodes=(F(0), F(0)), values=(F(1), F(2)),
                                derivative_bounds=(F(0), F(0)), residues=())

    def test_zero_residue_rejected(self):
        with pytest.raises(b.InvalidDataError):
            b.InterpolationData(nodes=(F(0),), values=(), derivative_bounds=(),
                                residues=(F(0),))

    def test_float_anywhere_switches_backend(self):
        d = b.InterpolationData(nodes=(F(0), 1.0), values=(F(0), F(1)),
                                derivative_bounds=(F(-1), F(1)), residues=())
        assert not d.exact
        assert all(isinstance(x, float) for x in d.nodes)

    def test_json_round_trip(self):
        d = data_mixed()
        assert b.InterpolationData.from_json(d.to_json()) == d

    def test_json_rational_strings(self):
        d = b.InterpolationData.from_json(
            {"regular": [{"x": "-1/2", "w": 0, "gamma": -1}],
             "singular": [{"x": "1/2", "xi": 1}]}
        )
        assert d == data_degenerate()

    def test_nodes_field_must_match(self):
        with pytest.raises(b.InvalidDataError):
            b.InterpolationData.from_json(
                {"nodes": [0, 2], "regular": [{"x": 0, "w": 0, "gamma": 1}],
                 "singular": [{"x": 1, "xi": 1}]}
            )

    def test_interleaved_order_recorded(self):
        d = b.InterpolationData.from_json(
            {"nodes": [0, 1], "regular": [{"x": 1, "w": 0, "gamma": -1}],
             "singular": [{"x": 0, "xi": -1}]}
        )
        # internal layout is regular-first, whatever the listed order
        assert d.nodes == (F(1), F(0))


class TestBuildPick:
    def test_two_regular_nodes(self):
        P = b.build_pick(data_two_regular())
        assert P == b.HermitianMatrix([[-1, 1], [1, 1]])

    def test_degenerate_data(self):
        P = b.build_pick(data_degenerate())
        assert P == b.HermitianMatrix([[-1, 1], [1, -1]])

    def test_single_regular_node(self):
        d = b.InterpolationData(nodes=(F(3),), values=(F(2),),
                                derivative_bounds=(F(7),), residues=())
        assert b.build_pick(d) == b.HermitianMatrix([[7]])

    def test_mixed_data(self):
        P = b.build_pick(data_mixed())
        assert P == b.HermitianMatrix([[-1, 1], [1, 1]])


class TestBuildSystem:
    def test_negative_rank_tol_rejected_on_the_float_lane(self):
        # at rank_tol = -1 the float system of this singular P read
        # Inertia(neg=2, zero=-1, pos=1), kappa = 2
        d = b.InterpolationData(nodes=(-0.5, 0.5), values=(0.0,),
                                derivative_bounds=(-1.0,), residues=(1.0,))
        with pytest.raises(ValueError, match="rank_tol"):
            b.build_system(d, -1)
        assert b.build_system(d).inertia == (1, 1, 0)

    def test_two_regular_derived(self, sys1):
        assert sys1.tilde_e == (F(0), F(1))
        assert sys1.tilde_c == (F(1, 2), F(1, 2))
        assert b.is_infinite(sys1.eta[0]) and sys1.eta[1] == F(1, 2)
        assert sys1.tilde_p_diag == (F(-1, 2), F(1, 2))
        assert sys1.kappa == 1

    def test_mixed_derived(self, sys2):
        assert sys2.tilde_e == (F(-1, 2), F(1, 2))
        assert sys2.tilde_c == (F(-1, 2), F(-1, 2))
        assert sys2.eta == (F(1), F(-1))
        assert sys2.tilde_p_diag == (F(-1, 2), F(1, 2))

    def test_degenerate_has_no_derived_block(self, sys3):
        assert not sys3.invertible
        assert sys3.p_inv is None and sys3.eta is None
        assert sys3.inertia == (1, 1, 0)

    def test_eta_infinity_is_tagged(self, sys1):
        assert sys1.eta[0] is b.INFINITY
        assert not isinstance(sys1.eta[0], float)

    def test_companion_rows(self, sys2):
        assert sys2.E == (F(1), F(0))
        assert sys2.C == (F(0), F(-1))
        assert sys2.X == (F(1), F(0))

    def test_signature_matrix(self):
        S = SYMPLECTIC_S
        # S^T = -S and S^2 = -I, so J = i S has J* = J and J^2 = I
        assert all(S[i][j] == -S[j][i] for i in range(2) for j in range(2))
        square = [[sum(S[i][k] * S[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert square == [[-1, 0], [0, -1]]


class TestLyapunov:
    def test_golden_residual_zero(self, sys1, sys3):
        assert b.check_lyapunov(sys1).is_zero
        assert b.check_lyapunov(sys3).is_zero

    def test_perturbed_off_diagonal(self, sys1):
        # bumping the coupling entry to 2 breaks the identity by exactly 1
        bad = b.HermitianMatrix([[F(-1), F(2)], [F(2), F(1)]])
        report = b.check_lyapunov(dataclasses.replace(sys1, P=bad))
        assert not report.is_zero
        assert report.max_abs == 1
        assert report.location in ((0, 1), (1, 0))

    def test_random_instances_exact(self):
        rng = random.Random(101)
        for _ in range(40):
            sys_ = b.build_system(random_data(rng))
            assert b.check_lyapunov(sys_).is_zero

    def test_exact_upper_triangle_reports_like_every_entry(self):
        # the exact residual is antisymmetric with a zero diagonal, so the
        # pairs i < j give the worst value and its first row-major location
        rng = random.Random(103)
        systems = [b.build_system(b.InterpolationData((), (), (), ()))]
        systems += [b.build_system(random_data(rng, n_max=n, n_min=n)) for n in (1, 2, 3, 4, 6)]
        perturbed = []
        for sys_ in systems[2:]:
            rows = [list(row) for row in sys_.P.rows]
            i, j = sorted(rng.sample(range(sys_.n), 2))
            rows[i][j] = rows[j][i] = rows[i][j] + rng.choice([F(1, 3), F(-2)])
            k, m = sorted(rng.sample(range(sys_.n), 2))
            rows[k][m] = rows[m][k] = rows[k][m] - F(1, 7)
            perturbed.append(dataclasses.replace(sys_, P=b.HermitianMatrix(rows)))
        for sys_ in systems + perturbed:
            report = b.check_lyapunov(sys_)
            worst, location = scalar_lyapunov(sys_.P.rows, sys_.X, sys_.E, sys_.C)
            want = b.problem.LyapunovReport(
                max_abs=worst if worst is not None else 0,
                location=location if worst else None,
                is_zero=not worst, exact=True)
            assert repr(report) == repr(want)
            assert json.dumps(report.to_json()) == json.dumps(want.to_json())
        assert sum(not b.check_lyapunov(s).is_zero for s in perturbed) == len(perturbed)


class TestFloatSystemAsOneArray:
    """The float P is one array from the data to P^(-1), and every field of
    the system is bit-identical to the scalar route."""

    @staticmethod
    def assert_matches_scalar_route(data):
        sys_ = b.build_system(data)
        assert sys_.invertible and not sys_.exact
        want = scalar_float_system(data)
        assert system_fingerprint(sys_) == want
        assert all(type(v) is complex for row in sys_.P.rows for v in row)
        assert all(type(v) is float for v in sys_.tilde_e + sys_.tilde_c)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_grid_systems(self, n):
        for seed in range(3):
            self.assert_matches_scalar_route(grid_system(random.Random(100 * n + seed), n).data)

    @pytest.mark.parametrize("regular", ["all", "none"])
    def test_all_regular_and_all_singular_data(self, regular):
        rng = random.Random(f"one-array-{regular}")
        negative_zeros = checked = 0
        for n in (1, 2, 3, 5, 8):
            for _ in range(4):
                data = float_thirds_data(rng, n, n if regular == "all" else 0)
                try:
                    sys_ = b.build_system(data)
                except b.SingularMatrixError:
                    continue
                if sys_.invertible:
                    self.assert_matches_scalar_route(data)
                    checked += 1
                    negative_zeros += sum(
                        v.real == 0 and math.copysign(1.0, v.real) < 0
                        for row in sys_.P.rows for v in row
                    )
        # -0.0 entries: 0 * xi_k in the row of a negative residue, and
        # 0.0 / (x_j - x_i) for equal values at a decreasing pair of nodes
        assert checked >= 12 and negative_zeros > 0

    def test_one_spectrum_and_one_inverse_per_system(self, monkeypatch):
        # the inertia and the conditioning gate share one eigvalsh; no SVD
        data = grid_system(random.Random(5), 8).data
        calls = []
        for name in ("eigvalsh", "inv", "svd"):
            original = getattr(np.linalg, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        b.build_system(data)
        assert calls == ["eigvalsh", "inv"]

    def test_conditioning_gate_at_rank_tol_zero(self):
        # P = [[1, 1], [1, 1 + 4e-15]] has |lambda| min / max near 1e-15,
        # below RCOND_MIN, and no eigenvalue that rank_tol = 0 counts as zero
        data = b.InterpolationData(nodes=(0.0, 1.0), values=(0.0, 1.0),
                                   derivative_bounds=(1.0, 1.0 + 4e-15), residues=())
        eigs = np.abs(np.linalg.eigvalsh(b.build_pick(data).to_numpy()))
        assert 0 < eigs.min() / eigs.max() < b.algebra.RCOND_MIN
        with pytest.raises(b.SingularMatrixError):
            b.build_system(data, rank_tol=0)
        assert not b.build_system(data).invertible

    def test_kept_array_is_not_shared(self):
        sys_ = grid_system(random.Random(9), 4)
        copy = sys_.P.to_numpy()
        copy[0, 0] = 1e9
        assert sys_.P.to_numpy()[0, 0] == sys_.P.rows[0][0] != 1e9


class TestNegativeSquares:
    def test_goldens(self, sys1, sys3):
        assert sys1.kappa == 1
        assert sys3.kappa == 1

    def test_positive_definite(self):
        d = b.InterpolationData(nodes=(F(0), F(1)), values=(F(0), F(0)),
                                derivative_bounds=(F(1), F(1)), residues=())
        sys_ = b.build_system(d)
        assert sys_.P == b.HermitianMatrix([[1, 0], [0, 1]])
        assert sys_.kappa == 0

    def test_invariant_under_node_permutation(self):
        rng = random.Random(23)
        for _ in range(15):
            data = random_data(rng, n_max=5, n_min=2)
            kappa = b.build_system(data).kappa
            ell = data.ell
            reg = list(range(ell))
            sing = list(range(ell, data.n))
            rng.shuffle(reg)
            rng.shuffle(sing)
            shuffled = b.InterpolationData(
                nodes=tuple(data.nodes[i] for i in reg + sing),
                values=tuple(data.values[i] for i in reg),
                derivative_bounds=tuple(data.derivative_bounds[i] for i in reg),
                residues=tuple(data.residues[i - ell] for i in sing),
            )
            assert b.build_system(shuffled).kappa == kappa


class TestDerivedIdentities:
    def test_off_diagonal_reconstruction(self):
        # p~_ij == (te_i tc_j - tc_i te_j) / (x_i - x_j) off the diagonal
        rng = random.Random(59)
        for _ in range(25):
            sys_ = random_invertible_system(rng)
            n = sys_.n
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    lhs = sys_.p_inv[i][j]
                    rhs = (sys_.tilde_e[i] * sys_.tilde_c[j]
                           - sys_.tilde_c[i] * sys_.tilde_e[j]) / (sys_.X[i] - sys_.X[j])
                    assert lhs == rhs

    def test_tilde_rows_never_jointly_vanish(self):
        rng = random.Random(61)
        for _ in range(25):
            sys_ = random_invertible_system(rng)
            for i in range(sys_.n):
                assert bool(sys_.tilde_e[i]) or bool(sys_.tilde_c[i])

    def test_tilde_e_sums_the_regular_rows(self):
        # reference: te = E P^(-1) as products with E's ones and zeros, which
        # the sum over the regular rows must equal bit for bit on both lanes
        rng = random.Random(67)
        systems = [grid_system(rng, n) for n in (8, 13, 16)]
        for _ in range(30):
            d = random_data(rng)
            floats = b.InterpolationData(
                nodes=tuple(map(float, d.nodes)),
                values=tuple(map(float, d.values)),
                derivative_bounds=tuple(map(float, d.derivative_bounds)),
                residues=tuple(map(float, d.residues)),
            )
            systems += [b.build_system(d), b.build_system(floats)]
        ells = set()
        for sys_ in systems:
            if not sys_.invertible:
                continue
            n, zero = sys_.n, F(0) if sys_.exact else 0.0
            products = tuple(
                ordered_sum((sys_.E[i] * sys_.p_inv[i][j] for i in range(n)), zero)
                for j in range(n)
            )
            assert [repr(v) for v in sys_.tilde_e] == [repr(v) for v in products]
            ells.add((sys_.exact, "none" if sys_.ell == 0 else "all" if sys_.ell == n else "some"))
        assert len(ells) == 6

    def test_one_elimination_per_exact_system(self, monkeypatch):
        # one symmetric_elimination per exact system gives the inertia,
        # P^(-1) and the tilde rows: no Fraction product or sum forms them
        datas = [data_two_regular(), data_mixed(), data_degenerate()]
        datas.append(grid_system(random.Random(15), 8, exact=True).data)
        calls, arithmetic = [], []
        original = problem.symmetric_elimination

        def counted(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(problem, "symmetric_elimination", counted)
        for name in ("__mul__", "__add__"):
            op = getattr(F, name)

            def spied(x, y, op=op, name=name):
                arithmetic.append(name)
                return op(x, y)

            monkeypatch.setattr(F, name, spied)
        systems = [b.build_system(d) for d in datas]
        monkeypatch.undo()
        assert calls == [2, 2, 2, 8] and arithmetic == []
        assert [s.invertible for s in systems] == [True, True, False, True]

    @pytest.mark.parametrize("n", [16, 32])
    def test_grid_system_matches_fraction_products(self, n):
        # reference: P P^(-1) = I, te = E P^(-1), tc = C P^(-1) and
        # eta = tc / te, all in Fraction arithmetic
        sys_ = grid_system(random.Random(7 + n), n, exact=True)
        P = sys_.P.rows
        inv = sys_.p_inv
        for i in range(n):
            for j in range(n):
                assert sum(P[i][k] * inv[k][j] for k in range(n)) == (i == j)
        for row, tilde in ((sys_.E, sys_.tilde_e), (sys_.C, sys_.tilde_c)):
            assert tilde == tuple(sum((row[i] * inv[i][j] for i in range(n)), F(0)) for j in range(n))
        assert sys_.eta == tuple(
            sys_.tilde_c[i] / sys_.tilde_e[i] if sys_.tilde_e[i] else b.INFINITY for i in range(n)
        )
        assert sys_.tilde_p_diag == tuple(inv[i][i] for i in range(n))
        assert all(type(v) is F for row in inv for v in row)

    def test_float_backend_matches_exact(self):
        d = data_two_regular()
        df = b.InterpolationData(
            nodes=tuple(map(float, d.nodes)),
            values=tuple(map(float, d.values)),
            derivative_bounds=tuple(map(float, d.derivative_bounds)),
            residues=(),
        )
        sf = b.build_system(df)
        assert not sf.exact and sf.kappa == 1
        assert abs(sf.tilde_c[0] - 0.5) < 1e-12
        assert b.is_infinite(sf.eta[0])


class TestSystemFloats:
    """A system's float span, node data and eta are converted once."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_floats_are_the_conversions_kept_once(self, exact):
        for data in (data_two_regular(), data_mixed(), data_degenerate()):
            if not exact:
                data = b.InterpolationData(*(tuple(map(float, v)) for v in (
                    data.nodes, data.values, data.derivative_bounds, data.residues)))
            sys_ = b.build_system(data)
            floats = sys_.floats
            assert sys_.floats is floats
            xs = [float(x) for x in sys_.X]
            assert floats.span == (min(xs), max(xs))
            ell = data.ell
            assert floats.data == tuple(
                [(float(data.values[i]), float(data.derivative_bounds[i])) for i in range(ell)]
                + [(float(xi),) for xi in data.residues])
            if sys_.invertible:
                assert floats.eta == tuple(
                    None if problem.is_infinite(v) else float(v) for v in sys_.eta)
            else:
                assert floats.eta == ()

    def test_a_warm_certify_op_converts_no_system_scalar(self, monkeypatch):
        # the span, the limit errors, the bounds and eta are read from
        # sys.floats; what a warm exact op still converts is phi's own jets
        import numbers
        import traceback

        callers = []
        to_float = numbers.Rational.__float__

        def recorded(value):
            callers.append(traceback.extract_stack(limit=2)[0].name)
            return to_float(value)

        ops = [(grid_system(random.Random(n), n, exact=True), phi)
               for n in (4, 6) for phi in (b.Parameter.constant(F(1, 2)), b.Parameter.infinity())]
        want = [repr(b.classify_and_verify(sys_, phi)) for sys_, phi in ops]
        monkeypatch.setattr(numbers.Rational, "__float__", recorded)
        got = [repr(b.classify_and_verify(sys_, phi)) for sys_, phi in ops]
        monkeypatch.undo()
        assert got == want and callers == []


def as_float(data):
    return b.InterpolationData(*(tuple(map(float, v)) for v in (
        data.nodes, data.values, data.derivative_bounds, data.residues)))


class TestSystemKernel:
    """A singular P carries ker P, from the decomposition that counted its
    inertia."""

    def test_exact_kernel_is_the_elimination_basis(self):
        rng = random.Random(7)
        systems = [b.build_system(data_degenerate())]
        systems += [b.build_system(random_singular_data(rng)) for _ in range(30)]
        systems += [singular_probe(n, s) for n in (8, 16) for s in range(3)]
        for sys_ in systems:
            want = b.algebra.symmetric_elimination(sys_.P.rows).kernel
            assert [list(y) for y in sys_.kernel] == want
            assert len(sys_.kernel) == sys_.inertia.zeros > 0
            assert all(type(v) is F for y in sys_.kernel for v in y)

    def test_float_kernel_has_the_inertia_zero_count(self):
        rng = random.Random(7)
        probes = [(n, s) for n in (8, 16, 24) for s in range(3)] + [(32, 0)]
        systems = [singular_probe(n, s, exact=False) for n, s in probes]
        systems += [b.build_system(as_float(random_singular_data(rng))) for _ in range(30)]
        zeros = set()
        for sys_ in systems:
            assert len(sys_.kernel) == sys_.inertia.zeros
            zeros.add(sys_.inertia.zeros)
            for y in sys_.kernel:
                assert all(type(v) is float for v in y)
                # a unit singular vector that P sends to rounding
                residual = np.linalg.norm(sys_.P.to_numpy().real @ np.array(y))
                assert math.isclose(np.linalg.norm(y), 1.0) and residual < 1e-8
        assert 0 not in zeros

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_invertible_system_has_no_kernel(self, exact):
        for n in (1, 4, 8):
            sys_ = grid_system(random.Random(n), n, exact)
            assert sys_.invertible and sys_.kernel == ()

import dataclasses
import random
from fractions import Fraction

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
)

F = Fraction


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
                sum((sys_.E[i] * sys_.p_inv[i][j] for i in range(n)), start=zero)
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

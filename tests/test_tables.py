"""Theta's parameter-independent tables and the checks on ``GridConfig``.

Theta keeps its sampling grid with its values there, for the last span and
config, and one node table at its own nodes, so that certifying several
parameters of one system, and reading w's limits at single nodes, builds
each once.  The reports must not depend on whether a table was warm.
"""

import math
import random

import numpy as np
import pytest

import bnpick as b
from bnpick import resolvent
from bnpick._sections import DEFAULT_GRID, GridConfig, span_of
from bnpick.boundary import JET_ORDERS

from conftest import DENSE_GRID, grid_system, lane_parameters

NodeTable = resolvent._NodeTable
LANES = [(n, exact) for n in (8, 32) for exact in (False, True)]
LANE_IDS = [f"n{n}-{'exact' if exact else 'float'}" for n, exact in LANES]


@pytest.fixture(scope="module", params=LANES, ids=LANE_IDS)
def lane(request):
    # the first system of probe_set(n, exact), built on its own
    n, exact = request.param
    return grid_system(random.Random(1000 * n), n, exact), exact


def counted_builds(monkeypatch):
    """Count the grids a table is built on and the node tables built."""
    built = {"grid": 0, "nodes": 0}
    grid, node_table = resolvent.upper_half_grid, resolvent._NodeTable

    def grid_counting(*args):
        built["grid"] += 1
        return grid(*args)

    def node_counting(*args):
        built["nodes"] += 1
        return node_table(*args)

    monkeypatch.setattr(resolvent, "upper_half_grid", grid_counting)
    monkeypatch.setattr(resolvent, "_NodeTable", node_counting)
    return built


def node_tables(theta) -> list:
    """The names under which theta holds a node table itself, not behind a
    key of the point set it was built for."""
    return [k for k, v in vars(theta).items() if isinstance(v, NodeTable)]


def fresh(sys_):
    """A system built again from the same data, whose Theta holds no table."""
    return b.build_system(sys_.data)


def certify(sys_, phi):
    report, w, sampled = b.classify_and_verify(sys_, phi)
    return repr(report), repr(w), sampled


class TestTables:
    def test_each_table_is_built_once_per_system(self, lane, monkeypatch):
        sys_, exact = lane
        sys_ = fresh(sys_)
        built = counted_builds(monkeypatch)
        theta = b.build_theta(sys_)
        b.kernel_theta_negative_squares(sys_, theta)
        for phi in lane_parameters(exact):
            b.classify_and_verify(sys_, phi)
        assert built == {"grid": 1, "nodes": 1}

    def test_single_node_limits_reuse_the_node_table(self, lane, monkeypatch):
        # nt_limit at one node reads that node's row of Theta's one table,
        # so it neither rebuilds the table nor evicts the one apply_lft reads
        sys_, exact = lane
        sys_ = fresh(sys_)
        built = counted_builds(monkeypatch)
        theta = b.build_theta(sys_)
        for phi in lane_parameters(exact):
            _, w, _ = b.classify_and_verify(sys_, phi)
            for x in sys_.X:
                for kind in b.LimitKind:
                    b.nt_limit(w, x, kind)
            assert b.apply_lft(theta, phi) == w
        assert built["nodes"] == 1
        assert node_tables(theta) == ["_node_table"]

    def test_warm_reports_equal_fresh_ones(self, lane):
        sys_, exact = lane
        warm = fresh(sys_)
        for phi in lane_parameters(exact) * 2:
            # margins, zero tests and every limit are in the report's repr
            assert certify(warm, phi) == certify(fresh(sys_), phi)
        theta, cold = b.build_theta(warm), fresh(sys_)
        assert b.kernel_theta_negative_squares(warm, theta) == b.kernel_theta_negative_squares(
            cold, b.build_theta(cold))

    def test_one_table_of_each_kind(self, lane):
        sys_, exact = lane
        sys_ = fresh(sys_)
        theta = b.build_theta(sys_)
        for phi in lane_parameters(exact):
            b.classify_and_verify(sys_, phi)
            b.apply_lft(theta, phi)
        b.kernel_theta_negative_squares(sys_, theta, DENSE_GRID)
        b.kernel_theta_negative_squares(sys_, theta, DEFAULT_GRID)
        span = span_of(sys_.X)
        key, (z, values) = vars(theta)["_grid"]
        assert key == (span[0], span[1], DEFAULT_GRID)
        assert len(z) == len(values) == 12
        assert node_tables(theta) == ["_node_table"]
        table = theta._node_table
        assert table.weights.shape == (JET_ORDERS, sys_.n, sys_.n)
        assert (table.weights[0] == np.eye(sys_.n)).all()
        for array in (z, values, *table):
            assert not array.flags.writeable


class TestGridConfig:
    @pytest.mark.parametrize("fields,named", [
        ({"im_levels": (0.0,)}, "im_levels"),
        ({"im_levels": (0.3, -1.1)}, "im_levels"),
        ({"im_levels": ()}, "im_levels"),
        ({"im_levels": (math.inf,)}, "im_levels"),
        ({"im_levels": (math.nan, 0.3)}, "im_levels"),
        ({"points_per_level": 0}, "points_per_level"),
        ({"points_per_level": 2.5}, "points_per_level"),
        ({"re_margin": math.nan}, "re_margin"),
        ({"re_margin": -math.inf}, "re_margin"),
        ({"eig_tol": -1}, "eig_tol"),
        ({"eig_tol": -1e-300}, "eig_tol"),
        ({"eig_tol": math.inf}, "eig_tol"),
        # a boolean is no number, though Python counts it as an int
        ({"im_levels": (True,)}, "im_levels"),
        ({"points_per_level": True}, "points_per_level"),
        ({"re_margin": False}, "re_margin"),
        ({"eig_tol": True}, "eig_tol"),
        # im_levels is a tuple: a number is no sequence of levels
        ({"im_levels": 5}, "im_levels"),
        # every field is read in floats: an int beyond their range is rejected
        ({"re_margin": 10 ** 400}, "re_margin"),
        ({"im_levels": (10 ** 400,)}, "im_levels"),
    ])
    def test_rejected_fields_are_named(self, fields, named):
        with pytest.raises(ValueError, match=f"GridConfig.{named} "):
            GridConfig(**fields)

    def test_accepted_fields(self):
        config = GridConfig(im_levels=(1e-300, 5), points_per_level=1, re_margin=-1.0, eig_tol=0)
        assert config.points_per_level == 1 and config.eig_tol == 0

    def test_a_list_of_levels_is_stored_as_a_tuple(self):
        # as a JSON config gives the levels; the config stays hashable
        config, want = GridConfig(im_levels=[0.5, 2]), GridConfig(im_levels=(0.5, 2))
        assert type(config.im_levels) is tuple
        assert config == want and hash(config) == hash(want)

    def test_zero_level_raises_before_any_count(self):
        # a level at zero puts the grid line through the nodes 0 and 3
        data = b.InterpolationData(nodes=(0.0, 3.0), values=(0.0, 1.0),
                                   derivative_bounds=(-1.0, 1.0), residues=())
        sys_ = b.build_system(data)
        assert b.kernel_theta_negative_squares(sys_, b.build_theta(sys_)) <= sys_.kappa
        with pytest.raises(ValueError, match="GridConfig.im_levels"):
            b.kernel_theta_negative_squares(sys_, b.build_theta(sys_), GridConfig(im_levels=(0.0,)))

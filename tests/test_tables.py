"""Theta's parameter-independent tables and the checks on ``GridConfig``.

Theta keeps its sampling grid with its values there, and its node table at a
point set, so that certifying several parameters of one system builds each
once.  The reports must not depend on whether a table was warm.
"""

import math
import random

import pytest

import bnpick as b
from bnpick import resolvent
from bnpick._sections import DEFAULT_GRID, GridConfig, span_of

from conftest import DENSE_GRID, grid_system, lane_parameters

LANES = [(n, exact) for n in (8, 32) for exact in (False, True)]
LANE_IDS = [f"n{n}-{'exact' if exact else 'float'}" for n, exact in LANES]


@pytest.fixture(scope="module", params=LANES, ids=LANE_IDS)
def lane(request):
    # the first system of probe_set(n, exact), built on its own
    n, exact = request.param
    return grid_system(random.Random(1000 * n), n, exact), exact


def counted_builds(monkeypatch):
    built = {"_build_grid_table": 0, "_build_node_table": 0}
    for name in built:
        original = getattr(resolvent.RationalMatrix2x2, name)

        def counting(self, *args, _name=name, _original=original):
            built[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(resolvent.RationalMatrix2x2, name, counting)
    return built


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
        assert built == {"_build_grid_table": 1, "_build_node_table": 1}

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
        held = {k: v for k, v in vars(theta).items() if k in ("_grid", "_nodes")}
        assert set(held) == {"_grid", "_nodes"}
        span = span_of(sys_.X)
        assert held["_grid"][0] == (span[0], span[1], DEFAULT_GRID)
        assert held["_nodes"][0] == tuple(sys_.X)
        z, values = held["_grid"][1]
        assert len(z) == len(values) == 12
        for array in (z, values, *held["_nodes"][1]):
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
    ])
    def test_rejected_fields_are_named(self, fields, named):
        with pytest.raises(ValueError, match=f"GridConfig.{named} "):
            GridConfig(**fields)

    def test_accepted_fields(self):
        config = GridConfig(im_levels=(1e-300, 5), points_per_level=1, re_margin=-1.0, eig_tol=0)
        assert config.points_per_level == 1 and config.eig_tol == 0

    def test_zero_level_raises_before_any_count(self):
        # a level at zero puts the grid line through the nodes 0 and 3
        data = b.InterpolationData(nodes=(0.0, 3.0), values=(0.0, 1.0),
                                   derivative_bounds=(-1.0, 1.0), residues=())
        sys_ = b.build_system(data)
        assert b.kernel_theta_negative_squares(sys_, b.build_theta(sys_)) <= sys_.kappa
        with pytest.raises(ValueError, match="GridConfig.im_levels"):
            b.kernel_theta_negative_squares(sys_, b.build_theta(sys_), GridConfig(im_levels=(0.0,)))

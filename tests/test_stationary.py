import numpy as np
import pytest

import multinv as mi
from multinv.model import (DemandModel, InfiniteAveraged,
                           UnsupportedDemandError)
from multinv.stationary import (cost_decomposition, expected_ordering_term,
                                optimize_individual, optimize_joint,
                                stationary_cost, total_demand_pmf)
from multinv.testing import random_small_problem


@pytest.fixture(scope="module")
def fig1():
    return mi.instances.build("fig1_linear")


class TestStationaryCost:
    def test_small_instance_by_enumeration(self, fig1):
        # four joint demand outcomes: ordering 2*E(w1+w2) = 2, holding
        # 2 * E r(1 - w) = 1
        got = stationary_cost((1.0, 1.0), fig1)
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_costless_ordering_leaves_holding_only(self, fig1):
        from dataclasses import replace
        q = replace(fig1, ordering=mi.linear_cost(0.0))
        got = stationary_cost((1.0, 1.0), q)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_deep_backlog_levels_strictly_worse(self, fig1):
        low = stationary_cost((-2.0, -2.0), fig1)
        zero = stationary_cost((0.0, 0.0), fig1)
        assert low > zero

    def test_total_demand_pmf_convolves(self, fig1):
        values, probs = total_demand_pmf(fig1)
        assert np.array_equal(values, [0.0, 1.0, 2.0])
        assert np.allclose(probs, [0.25, 0.5, 0.25])

    def test_continuous_demand_unsupported(self):
        p = mi.instances.build("tightness:M=2,eps=0.1,l=1,h=4,p=100")
        with pytest.raises(UnsupportedDemandError):
            stationary_cost((1.0, 1.0), p)


class TestOptimizers:
    def test_heavy_backlog_orders_up_to_one(self, fig1):
        levels = optimize_individual(fig1)
        assert levels == (1.0, 1.0)

    def test_holding_only_prefers_grid_floor(self, fig1):
        from dataclasses import replace
        from multinv.model import HoldingBacklogCost
        q = replace(fig1, holding=HoldingBacklogCost((1.0, 1.0), (0.0, 0.0)))
        levels = optimize_individual(q)
        assert levels == (q.grid.lo, q.grid.lo)

    def test_symmetric_locations_get_equal_levels(self):
        p = mi.instances.build("sector_sim")
        levels = optimize_individual(p)
        assert levels[0] == levels[1]

    def test_joint_equals_individual_on_corpus(self):
        rng = np.random.default_rng(2718)
        problems = [mi.instances.build("fig1_linear"),
                    mi.instances.build("fig1_nonlinear"),
                    mi.instances.build("sector_sim"),
                    mi.instances.build("affine_sim")]
        problems += [random_small_problem(rng) for _ in range(5)]
        for p in problems:
            joint = optimize_joint(p)
            indiv = optimize_individual(p)
            assert joint == indiv
            gap = abs(stationary_cost(joint, p) - stationary_cost(indiv, p))
            assert gap <= 1e-12

    def test_ordering_term_independent_of_levels(self, fig1):
        base = expected_ordering_term(fig1)
        for levels in ((0.0, 0.0), (1.0, 2.0), (-1.0, 4.0)):
            parts = cost_decomposition(levels, fig1)
            assert parts["ordering"] == base

    def test_size_guard(self):
        from dataclasses import replace
        from multinv.model import HoldingBacklogCost
        from multinv.stationary import SizeError
        p = mi.instances.build("sector_sim")
        q = replace(p, m=5,
                    holding=HoldingBacklogCost((0.1,) * 5, (10.0,) * 5),
                    demand=DemandModel(marginals=(p.demand.marginals[0],) * 5))
        with pytest.raises(SizeError):
            optimize_joint(q)


class TestSimulationConsistency:
    @pytest.mark.parametrize("periods", [1000, 10000])
    def test_long_run_average_approaches_analytic(self, fig1, periods):
        from dataclasses import replace
        from multinv.sim import SimConfig, estimate_cost
        levels = optimize_individual(fig1)
        analytic = stationary_cost(levels, fig1)
        q = replace(fig1, horizon=InfiniteAveraged(sim_periods=periods))
        policy = mi.BaseStockPolicy(np.asarray(levels))
        mean, se = estimate_cost(q, policy, [0.0, 0.0],
                                 SimConfig(runs=30, seed=4))
        # the first period orders from x0 instead of replacing demand, a
        # transient worth O(1/periods)
        assert abs(mean - analytic) <= 3 * se + 4.0 / periods

import csv
import io
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv.model import (DemandModel, DiscreteMarginal, InfiniteAveraged,
                           UniformMarginal)
from multinv.policies import GridTabulationError
from multinv.sim import (SimConfig, _draw_runs, _estimate_over_states,
                         _grid_states, _simulate_batch, estimate_cost,
                         exact_ineligibility, ratio_heatmap,
                         shift_ordering_slopes, simulate_run,
                         verify_cost_transformation)
from multinv import rng
from multinv.testing import random_order_table, random_small_problem


@pytest.fixture(scope="module")
def fig1():
    return mi.instances.build("fig1_linear")


@pytest.fixture(scope="module")
def fig1_solved(fig1):
    vf, tab = mi.solve_joint_dp(fig1)
    return vf, tab


def zero_demand(p):
    return replace(p, demand=DemandModel(
        marginals=(DiscreteMarginal((0.0,), (1.0,)),) * p.m))


class TestSimulateRun:
    def test_zero_demand_never_order_is_free(self, fig1):
        q = zero_demand(fig1)
        policy = mi.BaseStockPolicy(np.array([q.grid.lo] * 2))
        cost = simulate_run(q, policy, [0.0, 0.0], rng.stream(1))
        assert cost == 0.0

    def test_deterministic_setting_ignores_streams(self, fig1):
        q = replace(fig1, demand=DemandModel(
            marginals=(DiscreteMarginal((1.0,), (1.0,)),) * 2))
        policy = mi.BaseStockPolicy(np.array([1.0, 1.0]))
        costs = {simulate_run(q, policy, [0.0, 0.0], rng.stream(s))
                 for s in range(5)}
        assert len(costs) == 1

    def test_mc_agrees_with_exact_evaluation(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        exact = mi.evaluate_policy_exact(fig1, policy)
        i0 = fig1.grid.index(0.0)
        mean, se = estimate_cost(fig1, policy, [0.0, 0.0],
                                 SimConfig(runs=20_000, seed=8))
        assert abs(mean - exact[i0, i0]) <= 3 * se

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=hs.integers(0, 2 ** 32 - 1))
    def test_property_mc_within_z_bound_of_exact(self, seed):
        # random problem, random (non-optimal) order table, random state
        gen = np.random.default_rng(seed)
        p = random_small_problem(gen)
        table = random_order_table(p, gen)
        policy = mi.TabularGridPolicy(mi.dp.TabularPolicy(
            grid=p.grid, m=p.m, orders=table,
            cap_steps=p.grid.to_steps(p.max_order_per_location)))
        exact = mi.evaluate_policy_exact(p, policy)
        state = np.unravel_index(int(gen.integers(exact.size)), exact.shape)
        mean, se = estimate_cost(p, policy, [p.grid.point(j) for j in state],
                                 SimConfig(runs=400, seed=seed))
        assert abs(mean - exact[state]) <= 5.0 * se + 1e-12

    def test_cost_charged_before_clamping(self, fig1):
        # from the grid floor with no orders, backlog accrues on the
        # pre-clamp level even though the state cannot leave the box
        policy = mi.BaseStockPolicy(np.array([fig1.grid.lo] * 2))
        cost = simulate_run(fig1, policy, [fig1.grid.lo] * 2,
                            rng.stream(3, "clamp"))
        assert cost > 0


class TestEstimateCost:
    def test_single_run_has_no_stderr(self, fig1):
        policy = mi.BaseStockPolicy(np.array([1.0, 1.0]))
        mean, se = estimate_cost(fig1, policy, [0.0, 0.0],
                                 SimConfig(runs=1, seed=1))
        assert np.isnan(se)

    def test_deterministic_setting_zero_stderr(self, fig1):
        q = replace(fig1, demand=DemandModel(
            marginals=(DiscreteMarginal((1.0,), (1.0,)),) * 2))
        policy = mi.BaseStockPolicy(np.array([1.0, 1.0]))
        mean, se = estimate_cost(q, policy, [0.0, 0.0], SimConfig(runs=50, seed=1))
        assert se == 0.0

    def test_stderr_shrinks_with_run_count(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        _, se1 = estimate_cost(fig1, policy, [0.0, 0.0],
                               SimConfig(runs=2000, seed=21))
        _, se4 = estimate_cost(fig1, policy, [0.0, 0.0],
                               SimConfig(runs=8000, seed=22))
        assert se4 == pytest.approx(se1 / 2, rel=0.2)


class TestRatioHeatmap:
    def test_policy_against_itself_is_unity(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        rep = ratio_heatmap(fig1, policy, mi.make_pi_square(fig1, 2.0),
                            SimConfig(runs=20, seed=3, crn=True))
        assert np.all(rep.ratio == 1.0)

    def test_exact_denominator_for_optimal_policy(self, fig1, fig1_solved):
        vf, tab = fig1_solved
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0),
                            mi.TabularGridPolicy(tab),
                            SimConfig(runs=50, seed=3))
        assert rep.den_exact
        assert np.all(rep.se_den == 0.0)
        idx = tuple(np.rint((rep.states[:, i] - fig1.grid.lo) / fig1.grid.step).astype(int)
                    for i in range(2))
        assert np.array_equal(rep.mean_den, (vf.values[0] / 2)[idx])

    def test_ratios_respect_optimality_up_to_noise(self, fig1, fig1_solved):
        _, tab = fig1_solved
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0),
                            mi.TabularGridPolicy(tab),
                            SimConfig(runs=200, seed=5))
        floor = 1.0 - 3.0 * rep.se_num / rep.mean_den
        assert np.all(rep.ratio >= floor)

    def test_aggregates_recomputable_from_csv(self, fig1, fig1_solved):
        _, tab = fig1_solved
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0),
                            mi.TabularGridPolicy(tab),
                            SimConfig(runs=20, seed=5))
        rows = list(csv.DictReader(io.StringIO(rep.csv_text())))
        ratios = np.array([float(r["ratio"]) for r in rows])
        assert np.mean(ratios) == rep.mean_ratio
        assert np.max(ratios) == rep.max_ratio

    def test_byte_identical_across_thread_counts(self, fig1, fig1_solved):
        _, tab = fig1_solved
        num = mi.make_pi_square(fig1, 2.0)
        texts = set()
        for threads in (1, 2, 5):
            rep = ratio_heatmap(fig1, num, mi.TabularGridPolicy(tab),
                                SimConfig(runs=30, seed=7, threads=threads))
            texts.add(rep.csv_text())
        assert len(texts) == 1

    def test_zero_cost_state_has_unit_ratio(self, fig1):
        # with no demand, the state at 0 costs nothing under either policy:
        # its ratio is defined as 1, without a 0/0 warning, and every other
        # ratio is the plain quotient of the mean costs
        p = zero_demand(fig1).validate()
        _, tab = mi.solve_joint_dp(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = ratio_heatmap(p, mi.make_pi_square(p, 2.0), mi.TabularGridPolicy(tab),
                                SimConfig(runs=3, seed=1))
        free = (rep.mean_num == 0) & (rep.mean_den == 0)
        assert np.array_equal(rep.states[free], [[0.0, 0.0]])
        assert rep.ratio[free].tolist() == [1.0]
        assert np.array_equal(rep.ratio[~free], rep.mean_num[~free] / rep.mean_den[~free])

    def test_nonpositive_horizon_override_rejected_before_simulating(self, fig1, fig1_solved):
        _, tab = fig1_solved
        with pytest.raises(ValueError, match="horizon_override"):
            ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0), mi.TabularGridPolicy(tab),
                          SimConfig(runs=2, seed=1, horizon_override=0))

    def test_explicit_initial_state_list(self, fig1, fig1_solved):
        _, tab = fig1_solved
        states = [[0.0, 0.0], [1.0, -1.0]]
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0),
                            mi.TabularGridPolicy(tab),
                            SimConfig(runs=10, seed=2, initial_states=states))
        assert rep.states.shape == (2, 2)


class TestEstimateFold:
    """estimate_cost at state_index j is row j of the grid estimator."""

    @pytest.mark.parametrize("crn", [False, True])
    def test_single_state_matches_heatmap_row(self, fig1, crn):
        policy = mi.make_balancing_policy(fig1, K=2.0)
        assert policy.uses_randomness
        states = _grid_states(fig1)[::5]
        cfg = SimConfig(runs=9, seed=21, crn=crn, initial_states=states)
        mean_num, se_num = _estimate_over_states(fig1, policy, states, cfg)
        block_d, block_u = _draw_runs(fig1, policy, cfg, range(len(states)))
        rep = ratio_heatmap(fig1, policy, mi.make_pi_square(fig1, 2.0), cfg)
        assert np.array_equal(rep.mean_num, mean_num)
        for j in (0, 3, len(states) - 1):
            rows = slice(j * cfg.runs, (j + 1) * cfg.runs)
            d, u = _draw_runs(fig1, policy, cfg, range(j, j + 1))
            assert np.array_equal(d, block_d[rows]) and np.array_equal(u, block_u[rows])
            x0 = np.repeat(states[j:j + 1], cfg.runs, axis=0)
            single = _simulate_batch(fig1, policy, x0, d, u)
            block = _simulate_batch(fig1, policy, x0, block_d[rows], block_u[rows])
            assert np.array_equal(single, block)
            mean, se = estimate_cost(fig1, policy, states[j], cfg, state_index=j)
            assert mean == pytest.approx(mean_num[j], rel=1e-12, abs=0.0)
            assert se == pytest.approx(se_num[j], rel=1e-12, abs=0.0)


class TestExactDenominator:
    def test_exact_evaluation_errors_propagate(self, fig1, fig1_solved, monkeypatch):
        _, tab = fig1_solved
        optimal = mi.TabularGridPolicy(tab)
        original = mi.dp.evaluate_policy_exact

        def broken(problem, policy):
            if policy is optimal:
                raise ValueError("boom")
            return original(problem, policy)

        monkeypatch.setattr(mi.dp, "evaluate_policy_exact", broken)
        with pytest.raises(ValueError, match="boom"):
            ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0), optimal,
                          SimConfig(runs=3, seed=1))

    def test_randomized_denominator_falls_back_to_monte_carlo(self, fig1):
        den = mi.make_balancing_policy(fig1, K=2.0)
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0), den,
                            SimConfig(runs=4, seed=2))
        assert not rep.den_exact
        assert rep.den_reason == "randomized policy"
        assert np.all(rep.se_den > 0.0)
        assert "Monte Carlo: randomized policy" in rep.summary_text()

    def test_off_grid_orders_fall_back_to_monte_carlo(self, fig1):
        den = mi.BaseStockPolicy(np.array([0.5, 0.5]))
        with pytest.raises(GridTabulationError):
            den.tabulate(fig1)
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0), den,
                            SimConfig(runs=4, seed=2))
        assert not rep.den_exact
        assert "leave the grid" in rep.den_reason

    def test_ineligibility_reasons(self, fig1):
        det = mi.make_pi_square(fig1, 2.0)
        assert exact_ineligibility(fig1, det) is None
        cont = replace(fig1, demand=DemandModel(
            marginals=(UniformMarginal(0.0, 1.0),) * 2))
        assert "discrete" in exact_ineligibility(cont, det)
        off = replace(fig1, demand=DemandModel(
            marginals=(DiscreteMarginal((0.5,), (1.0,)),) * 2))
        assert "off-grid" in exact_ineligibility(off, det)
        infinite = replace(fig1, horizon=InfiniteAveraged(sim_periods=5, burn_in=1))
        assert exact_ineligibility(infinite, det) == "infinite horizon"


class TestCommonRandomNumbers:
    def test_crn_shares_demand_paths(self, fig1):
        a = mi.BaseStockPolicy(np.array([1.0, 1.0]))
        b = mi.BaseStockPolicy(np.array([2.0, 2.0]))
        ds_a = rng.demand_stream(9, 0, 0, a.tag, crn=True)
        ds_b = rng.demand_stream(9, 0, 0, b.tag, crn=True)
        assert np.array_equal(ds_a.random(8), ds_b.random(8))

    def test_crn_reduces_difference_variance(self, fig1):
        a = mi.BaseStockPolicy(np.array([1.0, 1.0]))
        b = mi.BaseStockPolicy(np.array([2.0, 2.0]))

        def diff_costs(crn, seed):
            out = []
            for run in range(400):
                ca = simulate_run(fig1, a, [0.0, 0.0],
                                  rng.demand_stream(seed, 0, run, a.tag, crn))
                cb = simulate_run(fig1, b, [0.0, 0.0],
                                  rng.demand_stream(seed, 0, run, b.tag, crn))
                out.append(ca - cb)
            return np.var(out)

        assert diff_costs(True, 13) <= diff_costs(False, 13)


class TestCostTransformation:
    def test_zero_slope_is_identity(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        rep = verify_cost_transformation(fig1, policy, 0.0)
        assert rep["max_abs_formula_gap"] == 0.0

    def test_demand_term_value(self):
        p = mi.instances.build("sector_sim")
        policy = mi.make_pi_square(p, 2.0)
        rep = verify_cost_transformation(p, policy, 2.0)
        # two locations, per-period mean demand 0.75 each
        assert rep["demand_term"] == pytest.approx(2.0 * 1.5)

    def test_order_accounting_identity_exact(self, fig1):
        # the slope really moves ordering cost only: the gap between the
        # two problems equals the slope times expected orders, exactly
        for policy in (mi.make_pi_square(fig1, 2.0),
                       mi.make_pi_diamond(fig1, 1.0, 2.0)):
            rep = verify_cost_transformation(fig1, policy, 2.0)
            assert rep["mode"] == "exact"
            assert rep["max_abs_accounting_gap"] <= 1e-12

    def test_slope_exceeding_pieces_rejected(self, fig1):
        with pytest.raises(ValueError):
            shift_ordering_slopes(fig1, 3.0)

    def test_randomized_policy_checked_by_crn(self):
        p = mi.instances.build("affine_sim")
        policy = mi.make_balancing_policy(p, variant="printed")
        rep = verify_cost_transformation(
            p, policy, 1.0,
            SimConfig(runs=60, seed=3, initial_states=[[0.0, 0.0]]))
        assert rep["mode"] == "monte_carlo"
        assert "max_gap_in_se" in rep

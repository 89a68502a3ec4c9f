import csv
import io
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv.model import (DemandModel, DiscreteMarginal, Grid, InfiniteAveraged,
                           UniformMarginal, location_sum, transform_uniform_draws)
from multinv.policies import GridTabulationError
from multinv.sim import (RatioReport, SimConfig, _estimate_over_states, _keyed_draws,
                         _simulate_batch, estimate_cost,
                         exact_ineligibility, ratio_heatmap,
                         shift_ordering_slopes, verify_cost_transformation)
from multinv import rng
from multinv import sim as sim_mod
from multinv.testing import (random_order_table, random_small_problem,
                             reference_holding_backlog)


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
        cost, _ = estimate_cost(q, policy, [0.0, 0.0], SimConfig(runs=1, seed=1))
        assert cost == 0.0

    def test_deterministic_setting_ignores_streams(self, fig1):
        q = replace(fig1, demand=DemandModel(
            marginals=(DiscreteMarginal((1.0,), (1.0,)),) * 2))
        policy = mi.BaseStockPolicy(np.array([1.0, 1.0]))
        costs = {estimate_cost(q, policy, [0.0, 0.0], SimConfig(runs=1, seed=s))[0]
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
        cost, _ = estimate_cost(fig1, policy, [fig1.grid.lo] * 2,
                                SimConfig(runs=1, seed=3))
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


class TestEstimateCostStart:
    """x0 must hold M levels inside the grid box: above grid.hi the order
    cap would be negative."""

    @pytest.fixture(scope="class")
    def sector(self):
        problem = mi.instances.build("sector_sim")
        return problem, mi.make_pi_square(problem, 2.0)

    @pytest.mark.parametrize("x0", [[8.5, 0.0], [100.0, 100.0], [0.0, -2.5],
                                    [float("nan"), 0.0], [0.0, float("inf")],
                                    [0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]],
                             ids=["above_top", "far_above", "below_floor", "nan", "inf",
                                  "short", "long", "nested"])
    def test_outside_the_box_or_wrong_length_raises(self, sector, x0):
        problem, policy = sector
        with pytest.raises(ValueError, match=r"^x0 must hold 2 levels inside \[-2.0, 8.0\]"):
            estimate_cost(problem, policy, x0, SimConfig(runs=4))

    def test_box_edges_and_off_grid_levels_are_accepted(self, sector):
        problem, policy = sector
        for x0 in ([-2.0, 8.0], [8.0, -2.0], [0.3, 7.9]):
            mean, _ = estimate_cost(problem, policy, x0, SimConfig(runs=4))
            assert np.isfinite(mean)


class TestSimConfigFields:
    """Stream keys hash repr(seed): a numpy integer has to key as the
    equal int, and a field that is not an integer is refused by name, as
    is a crn that is not a bool."""

    @pytest.fixture(scope="class")
    def sector_square(self):
        p = mi.instances.build("sector_sim")
        return p, mi.make_pi_square(p, l=2.0)

    def test_int_seed_keeps_its_streams(self, sector_square):
        p, policy = sector_square
        mean, _ = estimate_cost(p, policy, (0, 0), SimConfig(runs=50, seed=5))
        assert mean == 6.4732

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_seed_draws_the_int_streams(self, sector_square, kind):
        p, policy = sector_square
        want = estimate_cost(p, policy, (0, 0), SimConfig(runs=50, seed=5))
        assert estimate_cost(p, policy, (0, 0), SimConfig(runs=50, seed=kind(5))) == want

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = SimConfig(runs=np.int64(20), seed=np.uint32(7), threads=np.int8(2))
        assert (cfg.runs, cfg.seed, cfg.threads) == (20, 7, 2)
        assert all(type(v) is int for v in (cfg.runs, cfg.seed, cfg.threads))
        assert repr(cfg.seed) == "7"

    @pytest.mark.parametrize("field", ["runs", "seed", "threads"])
    @pytest.mark.parametrize("value", [5.0, 2.5, True, np.float64(5.0), np.bool_(True), "5"])
    def test_non_integer_fields_raise_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"runs": 0}, "runs must be >= 1"),
        ({"runs": -3}, "runs must be >= 1"),
        ({"threads": 0}, "threads must be >= 1"),
    ])
    def test_counts_below_one_raise_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimConfig(**fields)

    def test_replace_checks_the_new_fields(self):
        with pytest.raises(ValueError, match="^runs must be >= 1$"):
            replace(SimConfig(runs=5), runs=0)

    @pytest.mark.parametrize("value", ["false", 1, 0, None])
    def test_non_bool_crn_raises_naming_the_field(self, value):
        # a string "false" is truthy: the streams would share demand while
        # the report printed "crn: false"
        with pytest.raises(ValueError, match="^crn must be a bool"):
            SimConfig(crn=value)

    @pytest.mark.parametrize("value", [np.True_, np.False_])
    def test_numpy_bool_crn_is_stored_as_bool(self, sector_square, value):
        cfg = SimConfig(runs=20, seed=3, crn=value)
        assert type(cfg.crn) is bool and cfg.crn == bool(value)
        p, policy = sector_square
        want = estimate_cost(p, policy, (0, 0), SimConfig(runs=20, seed=3, crn=bool(value)))
        assert estimate_cost(p, policy, (0, 0), cfg) == want


class TestRatioHeatmap:
    def test_policy_against_itself_is_unity(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        rep = ratio_heatmap(fig1, policy, mi.make_pi_square(fig1, 2.0),
                            SimConfig(runs=20, seed=3, crn=True))
        assert np.all(rep.ratio == 1.0)

    def test_same_policy_reuses_the_numerator(self, fig1):
        # equal tags derive equal streams: the denominator is the
        # numerator's estimate, neither exact nor simulated again
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0),
                            mi.make_pi_square(fig1, 2.0), SimConfig(runs=20, seed=3))
        assert rep.den_exact is False and rep.den_reason == "same policy"
        assert rep.ratio.tobytes() == np.ones(len(rep.states)).tobytes()
        assert rep.mean_den.tobytes() == rep.mean_num.tobytes()
        assert rep.se_den.tobytes() == rep.se_num.tobytes()
        assert "(Monte Carlo: same policy)" in rep.summary_text()

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

    def test_explicit_initial_state_list(self, fig1, fig1_solved):
        _, tab = fig1_solved
        states = [[0.0, 0.0], [1.0, -1.0]]
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0),
                            mi.TabularGridPolicy(tab),
                            SimConfig(runs=10, seed=2, initial_states=states))
        assert rep.states.shape == (2, 2)

    @pytest.mark.parametrize("state", [(0.4, 0.4), (-3.0, 0.0)])
    def test_initial_state_off_or_outside_the_grid_raises(self, fig1, fig1_solved,
                                                          state):
        # exact denominators are read from the grid table by index: a
        # non-grid state must not read another state's cost
        _, tab = fig1_solved
        with pytest.raises(ValueError, match=re.escape(f"value {state[0]} ")):
            ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0), mi.TabularGridPolicy(tab),
                          SimConfig(runs=2, seed=1, initial_states=[state]))

    def test_empty_initial_state_list_raises(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        with pytest.raises(ValueError, match="initial_states"):
            ratio_heatmap(fig1, policy, policy, SimConfig(runs=2, initial_states=[]))

    @pytest.mark.parametrize("states", [[[0.0, 0.0, 1.0, 1.0]], [[0.0, 0.0, 1.0]],
                                        [[0.0, 0.0], [1.0]], [[0.0, 0.0], 1.0],
                                        [0.0, 0.0], [[[0.0, 0.0]]]],
                             ids=["two_states_flat", "three_levels", "second_short",
                                  "scalar", "flat_state", "nested"])
    def test_state_without_m_levels_raises(self, fig1, states):
        with pytest.raises(ValueError, match=r"^initial_states: state .* does not have 2 levels"):
            sim_mod.initial_states(fig1, SimConfig(runs=2, initial_states=states))

    def test_empty_initial_state_list_message(self, fig1):
        with pytest.raises(ValueError, match="^initial_states must list at least one state$"):
            sim_mod.initial_states(fig1, SimConfig(runs=2, initial_states=[]))

    def test_tabular_policy_rejects_state_outside_the_grid(self, fig1, fig1_solved):
        _, tab = fig1_solved
        with pytest.raises(ValueError, match=re.escape("value -3.0 ")):
            mi.TabularGridPolicy(tab).act_batch(fig1, 0, np.array([[-3.0, 0.0]]), None)


def reference_csv_text(rep):
    """The report CSV formatted cell by cell from numpy scalars."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    m = rep.states.shape[1]
    writer.writerow([f"x{i + 1}" for i in range(m)]
                    + ["mean_num", "se_num", "mean_den", "se_den", "ratio"])
    for j in range(rep.states.shape[0]):
        writer.writerow([repr(float(v)) for v in rep.states[j]]
                        + [repr(float(rep.mean_num[j])), repr(float(rep.se_num[j])),
                           repr(float(rep.mean_den[j])), repr(float(rep.se_den[j])),
                           repr(float(rep.ratio[j]))])
    return buf.getvalue()


CSV_EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300,
                   -1e300, 3.0, -2.0, 1e16, 2.0 ** 53 + 2, 0.1, 1 / 3]


def report_from_columns(columns, m):
    cols = np.asarray(columns, dtype=float).reshape(-1, m + 5)
    return RatioReport(states=cols[:, :m], mean_num=cols[:, m], se_num=cols[:, m + 1],
                       mean_den=cols[:, m + 2], se_den=cols[:, m + 3],
                       ratio=cols[:, m + 4], num_tag="a", den_tag="b",
                       config=SimConfig(runs=1), den_exact=False)


class TestCsvText:
    @settings(max_examples=80, deadline=None)
    @given(m=hs.integers(1, 3), rows=hs.integers(0, 5), data=hs.data())
    def test_property_bytes_match_cell_formatter(self, m, rows, data):
        cell = hs.one_of(hs.sampled_from(CSV_EDGE_FLOATS), hs.floats(),
                         hs.integers(-10 ** 6, 10 ** 6).map(float))
        cells = data.draw(hs.lists(cell, min_size=rows * (m + 5), max_size=rows * (m + 5)))
        rep = report_from_columns(cells, m)
        assert rep.csv_text() == reference_csv_text(rep)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_edge_value_in_every_column(self, m):
        cells = [CSV_EDGE_FLOATS[(i * 7) % len(CSV_EDGE_FLOATS)]
                 for i in range(len(CSV_EDGE_FLOATS) * (m + 5))]
        rep = report_from_columns(cells, m)
        text = rep.csv_text()
        assert text == reference_csv_text(rep)
        for token in ("nan", "inf", "-inf", "-0.0", "5e-324", "1e+300", "3.0"):
            assert token in text.replace("\n", ",").split(",")

    def test_single_run_report_with_nan_errors(self, fig1, fig1_solved):
        _, tab = fig1_solved
        rep = ratio_heatmap(fig1, mi.make_pi_square(fig1, 2.0), mi.TabularGridPolicy(tab),
                            SimConfig(runs=1, seed=4))
        assert np.all(np.isnan(rep.se_num)) and np.all(rep.se_den == 0.0)
        assert rep.csv_text() == reference_csv_text(rep)


class TestEstimateFold:
    """estimate_cost at state_index j is row j of the grid estimator."""

    @pytest.mark.parametrize("crn", [False, True])
    def test_single_state_matches_heatmap_row(self, fig1, crn):
        policy = mi.make_balancing_policy(fig1, K=2.0)
        assert policy.uses_randomness
        states = fig1.grid.states(fig1.m)[::5]
        cfg = SimConfig(runs=9, seed=21, crn=crn, initial_states=states)
        mean_num, se_num = _estimate_over_states(fig1, policy, states, cfg)
        block_d, block_u = _keyed_draws(fig1, policy, cfg, range(len(states)))(
            0, fig1.periods)
        rep = ratio_heatmap(fig1, policy, mi.make_pi_square(fig1, 2.0), cfg)
        assert np.array_equal(rep.mean_num, mean_num)
        for j in (0, 3, len(states) - 1):
            rows = slice(j * cfg.runs, (j + 1) * cfg.runs)
            d, u = _keyed_draws(fig1, policy, cfg, range(j, j + 1))(0, fig1.periods)
            assert np.array_equal(d, block_d[rows]) and np.array_equal(u, block_u[rows])
            x0 = np.repeat(states[j:j + 1], cfg.runs, axis=0)
            single = _simulate_batch(fig1, policy, x0,
                                     _keyed_draws(fig1, policy, cfg, range(j, j + 1)))
            block = _simulate_batch(fig1, policy, x0, sliced(block_d[rows], block_u[rows]))
            assert np.array_equal(single, block)
            # one chunk driver reduces both from the same per-run costs
            mean, se = estimate_cost(fig1, policy, states[j], cfg, state_index=j)
            assert (mean, se) == (mean_num[j], se_num[j])


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

    def test_table_of_another_grid_is_not_tabulated(self, fig1, fig1_solved):
        # same shape, grid shifted by one step: read as if it were fig1's
        # grid, the optimum would cost 10.0 at (lo, lo) instead of 8.0
        _, tab = fig1_solved
        shifted = replace(fig1, grid=Grid(fig1.grid.lo + 1.0, fig1.grid.hi + 1.0,
                                          fig1.grid.step))
        with pytest.raises(GridTabulationError, match="grid"):
            mi.evaluate_policy_exact(shifted, mi.TabularGridPolicy(tab))

    def test_table_of_another_grid_falls_back_to_monte_carlo(self, fig1, fig1_solved):
        # an all-zero table: trajectories only fall, and the shifted
        # grid's floor lies inside the table's grid
        _, tab = fig1_solved
        shifted = replace(fig1, grid=Grid(fig1.grid.lo + 1.0, fig1.grid.hi + 1.0,
                                          fig1.grid.step))
        den = mi.TabularGridPolicy(mi.dp.TabularPolicy(
            grid=fig1.grid, m=fig1.m, orders=np.zeros_like(tab.orders),
            cap_steps=tab.cap_steps))
        rep = ratio_heatmap(shifted, mi.make_pi_square(shifted, 2.0), den,
                            SimConfig(runs=4, seed=2,
                                      initial_states=[[0.0, 0.0], [4.0, -1.0]]))
        assert not rep.den_exact
        assert "grid" in rep.den_reason
        assert np.all(np.isfinite(rep.mean_den))

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
            cfg = SimConfig(runs=400, seed=seed, crn=crn)
            x0 = np.zeros((cfg.runs, 2))
            ca, cb = (_simulate_batch(fig1, p, x0, _keyed_draws(fig1, p, cfg, range(1)))
                      for p in (a, b))
            return np.var(ca - cb)

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

    def test_exact_branch_reads_initial_states(self, fig1):
        # a one-state list reports the full-grid gaps at that state, and
        # the grid's report is the largest of them
        policy = mi.make_pi_square(fig1, 2.0)
        full = verify_cost_transformation(fig1, policy, 2.0)
        ex = mi.dp.exact_expectations(fig1, policy)
        rhs = mi.evaluate_policy_exact(shift_ordering_slopes(fig1, 2.0), policy)
        formula_gap = np.abs(ex.cost - (rhs + full["demand_term"]))
        seen = []
        for x0 in fig1.grid.states(fig1.m):
            rep = verify_cost_transformation(fig1, policy, 2.0,
                                             SimConfig(initial_states=[x0]))
            assert rep["mode"] == "exact"
            assert rep["max_abs_formula_gap"] == formula_gap[tuple(fig1.grid.indices(x0))]
            assert rep["max_abs_accounting_gap"] <= full["max_abs_accounting_gap"]
            assert rep["max_abs_displacement_gap"] <= full["max_abs_displacement_gap"]
            seen.append(rep["max_abs_formula_gap"])
        assert max(seen) == full["max_abs_formula_gap"]
        assert min(seen) < max(seen)

    @pytest.mark.parametrize("states", [[], [[99.0, 0.0]]])
    def test_exact_branch_rejects_bad_state_lists(self, fig1, states):
        policy = mi.make_pi_square(fig1, 2.0)
        with pytest.raises(ValueError):
            verify_cost_transformation(fig1, policy, 2.0,
                                       SimConfig(initial_states=states))

    def test_randomized_policy_checked_by_crn(self):
        p = mi.instances.build("affine_sim")
        policy = mi.make_balancing_policy(p, variant="printed")
        rep = verify_cost_transformation(
            p, policy, 1.0,
            SimConfig(runs=60, seed=3, initial_states=[[0.0, 0.0]]))
        assert rep["mode"] == "monte_carlo"
        assert "max_gap_in_se" in rep


# ---------------------------------------------------------------------------
# Block-accounting stepper against the per-period reference
# ---------------------------------------------------------------------------

def sliced(demand, uniforms):
    """Block source (see ``sim._simulate_batch``) of whole-horizon arrays."""
    def draws(k0, n):
        return (demand[:, k0:k0 + n],
                None if uniforms is None else uniforms[:, k0:k0 + n])
    return draws


def reference_simulate_batch(problem, policy, x0, demand, uniforms,
                             collect_orders=False):
    """The per-period stepper: every period's costs are evaluated as it is
    stepped, with ``sum(axis=1)`` row reductions and the two-sided
    holding/backlog expression as written."""
    grid = problem.grid
    burn = 0 if isinstance(problem.horizon, mi.model.Finite) else problem.horizon.burn_in
    periods = demand.shape[1]
    x = np.array(x0, dtype=float)
    total = np.zeros(x.shape[0])
    z_trace = np.zeros((x.shape[0], periods))
    c_trace = np.zeros((x.shape[0], periods))
    for k in range(periods):
        uni = None if uniforms is None else uniforms[:, k, :]
        orders = policy.act_batch(problem, k, x, uni)
        z = orders.sum(axis=1)
        order_cost = problem.ordering.eval_array(z)
        post = x + orders - demand[:, k, :]
        stage = order_cost + reference_holding_backlog(
            np.asarray(problem.holding.holding), np.asarray(problem.holding.backlog),
            post).sum(axis=1)
        if k >= burn:
            total += stage
        z_trace[:, k] = z
        c_trace[:, k] = order_cost
        x = np.clip(post, grid.lo, grid.hi)
    costs = total / (periods - burn)
    if collect_orders:
        return costs, z_trace, c_trace
    return costs


def reference_waterfill(X, v):
    """Waterfilling by a row sort and a cumulative sum along the rows."""
    B, m = X.shape
    xs = np.sort(X, axis=1)
    prefix = np.cumsum(xs, axis=1)
    level = (v + prefix[:, m - 1]) / m
    found = np.zeros(B, dtype=bool)
    out_level = np.empty(B)
    for q in range(1, m + 1):
        cand = (v + prefix[:, q - 1]) / q
        ok = cand >= xs[:, q - 1] - 1e-15
        if q < m:
            ok &= cand <= xs[:, q] + 1e-15
        newly = ok & ~found
        out_level[newly] = cand[newly]
        found |= newly
    out_level[~found] = level[~found]
    return np.maximum(out_level[:, None] - X, 0.0)


class ReferenceExplicitV(mi.ExplicitVPolicy):
    """pi_v that waterfills only the rows with a positive order total."""

    def act_batch(self, problem, k, X, uniforms):
        self._check_instance(problem)
        sx = X.sum(axis=1)
        total = np.full(X.shape[0], self.v_values[0])
        for v in reversed(self.v_values):
            total[sx + v >= self.threshold] = v
        total[sx >= self.threshold] = 0.0
        orders = np.zeros_like(X)
        active = total > 0
        if np.any(active):
            orders[active] = reference_waterfill(X[active], total[active])
        return mi.policies._truncate(orders, problem, X, self.kind)


class MaskedCopyExplicitV(mi.ExplicitVPolicy):
    """pi_v with the order total set by one masked copy per size and the
    waterfill level computed out of place, dividing at every q."""

    def act_batch(self, problem, k, X, uniforms):
        self._check_instance(problem)
        sx = location_sum(X)
        total = np.full(X.shape[0], self.v_values[0])
        for v in reversed(self.v_values):
            np.copyto(total, v, where=sx + v >= self.threshold)
        np.copyto(total, 0.0, where=sx >= self.threshold)
        m = X.shape[1]
        xs = mi.policies._sorted_columns(X)
        prefix = [xs[0]]
        for i in range(1, m):
            prefix.append(prefix[-1] + xs[i])
        level = (total + prefix[m - 1]) / m
        for q in range(m - 1, 0, -1):
            cand = (total + prefix[q - 1]) / q
            ok = (cand >= xs[q - 1] - 1e-15) & (cand <= xs[q] + 1e-15)
            level = np.where(ok, cand, level)
        orders = np.maximum(level[:, None] - X, 0.0)
        return mi.policies._truncate(orders, problem, X, self.kind)


class TestExplicitVTotals:
    @settings(max_examples=150, deadline=None)
    @given(m=hs.integers(1, 8), seed=hs.integers(0, 2 ** 32 - 1))
    def test_pick_bit_equal_to_masked_copies(self, m, seed):
        # grid points, signed zeros and off-grid levels, with half the rows'
        # level sums set onto the threshold or a size below it, +-1 ulp
        p = mi.instances.build(f"tightness:M={m}")
        policy = mi.make_pi_v(m, mi.instances.tightness_delta(0.1, 1.0))
        ref = MaskedCopyExplicitV(policy.v_values, policy.threshold)
        gen = np.random.default_rng(seed)
        pool = np.concatenate((p.grid.points(), [-0.0, 0.0],
                               gen.uniform(p.grid.lo, p.grid.hi, 8)))
        X = pool[gen.integers(0, len(pool), (64, m))]
        t = policy.threshold
        edges = gen.choice([t, *(t - v for v in policy.v_values)], 32)
        edges = np.nextafter(edges, edges + gen.integers(-1, 2, 32))
        X[32:, -1] = edges - (location_sum(X[32:, :-1]) if m > 1 else 0.0)
        got = policy.act_batch(p, 0, X, None)
        assert got.tobytes() == ref.act_batch(p, 0, X, None).tobytes()

    def test_instance_checked_on_every_call(self):
        # the policy keeps nothing from a problem it has acted on: one whose
        # discounts lack a size still raises afterwards
        p = mi.instances.build("tightness:M=2")
        policy = mi.make_pi_v(2, mi.instances.tightness_delta(0.1, 1.0))
        X = np.zeros((3, 2))
        policy.act_batch(p, 0, X, None)
        lacking = replace(p, ordering=replace(p.ordering,
                                              discounts=p.ordering.discounts[:1]))
        assert set(policy.v_values) - lacking.ordering.discount_points
        with pytest.raises(ValueError, match="discount set contains its order sizes"):
            policy.act_batch(lacking, 0, X, None)
        assert location_sum(policy.act_batch(p, 0, X, None)).tolist() == [
            policy.v_values[-1]] * 3

    @pytest.mark.parametrize("sizes", [(), (0.0, 2.0), (-1.0, 2.0)])
    def test_order_sizes_must_be_positive(self, sizes):
        with pytest.raises(ValueError, match="all > 0"):
            mi.ExplicitVPolicy(sizes, 2.0)

    def test_rows_on_the_threshold_boundaries(self):
        # system inventory exactly at the threshold orders nothing, and
        # exactly v below it orders v; a ULP either side picks the neighbour
        p = mi.instances.build("tightness:M=2")
        policy = mi.make_pi_v(2, mi.instances.tightness_delta(0.1, 1.0))
        ref = ReferenceExplicitV(policy.v_values, policy.threshold)
        t = policy.threshold
        edges = [t] + [t - v for v in policy.v_values]
        firsts = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)] + edges
        X = np.column_stack((firsts, np.zeros(len(firsts))))
        got = policy.act_batch(p, 0, X, None)
        assert got.tobytes() == ref.act_batch(p, 0, X, None).tobytes()
        assert got[len(firsts) - 3:].sum(axis=1).tolist() == [0.0, *policy.v_values]


def stepper_case(kind, m, batch, periods, burn, gen):
    """(problem, policy, reference policy, x0, demand, uniforms) for one
    policy family: pi_square on sector_sim and randomized balancing on
    affine_sim, widened to m locations, and pi_v on a tightness instance
    with burn-in."""
    if kind == "pi_v":
        p = mi.instances.build(f"tightness:M={m}")
        p = replace(p, horizon=InfiniteAveraged(sim_periods=periods, burn_in=burn))
        delta = mi.instances.tightness_delta(0.1, 1.0)
        policy = mi.make_pi_v(m, delta)
        ref = ReferenceExplicitV(policy.v_values, policy.threshold)
        x0 = gen.uniform(p.grid.lo, p.grid.hi, (batch, m))
    else:
        base = mi.instances.build("sector_sim" if kind == "pi_square" else "affine_sim")
        p = replace(base, m=m, horizon=mi.model.Finite(periods),
                    holding=mi.model.HoldingBacklogCost(base.holding.holding[:1] * m,
                                                        base.holding.backlog[:1] * m),
                    demand=DemandModel(base.demand.marginals[:1] * m))
        policy = (mi.make_pi_square(p, 2.0) if kind == "pi_square"
                  else mi.make_balancing_policy(p))
        ref = policy
        x0 = p.grid.points()[gen.integers(0, p.grid.count, (batch, m))]
    demand = mi.model.transform_uniform_draws(p.demand, gen.random((batch, periods, m)))
    uniforms = gen.random((batch, periods, m)) if policy.uses_randomness else None
    return p, policy, ref, x0, demand, uniforms


def run_both(case):
    p, policy, ref, x0, demand, uniforms = case
    inputs = (demand.copy(), None if uniforms is None else uniforms.copy())
    got = _simulate_batch(p, policy, x0, sliced(demand, uniforms), collect_orders=True)
    assert np.array_equal(demand, inputs[0])
    assert uniforms is None or np.array_equal(uniforms, inputs[1])
    want = reference_simulate_batch(p, ref, x0, demand, uniforms, collect_orders=True)
    return got, want


# horizons around the block span: one block cut short, one full block,
# one period into the second block, two full blocks and a partial third
HORIZONS = {"span-1": lambda s: max(1, s - 1), "span": lambda s: s,
            "span+1": lambda s: s + 1, "2*span+3": lambda s: 2 * s + 3}


def across_default_blocks(batch):
    """(batch, periods, burn) of two full cost blocks of the default size
    and a partial third, with the burn-in ending inside the second."""
    span = sim_mod._BLOCK_ROWS // batch
    assert 2 <= span and 2 * span + 3 <= sim_mod._DRAW_PERIODS
    return batch, 2 * span + 3, span + span // 2


class TestBlockStepper:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=hs.sampled_from(["pi_square", "balancing", "pi_v"]),
           m=hs.integers(1, 4), batch=hs.sampled_from([1, 7, 600]),
           span=hs.sampled_from([1, 2, 5]), horizon=hs.sampled_from(list(HORIZONS)),
           burn_frac=hs.floats(0.0, 0.999), seed=hs.integers(0, 2 ** 32 - 1),
           draw=hs.sampled_from([3, 4, 1024]))
    def test_bit_equal_to_per_period_stepper(self, kind, m, batch, span, horizon,
                                             burn_frac, seed, draw):
        # block rows = span * batch makes the cost blocks span periods long;
        # draw blocks of 3 or 4 periods cut them short or line up with them
        periods = HORIZONS[horizon](span)
        burn = int(burn_frac * periods) if kind == "pi_v" else 0
        case = stepper_case(kind, m, batch, periods, burn, np.random.default_rng(seed))
        with mock.patch.object(sim_mod, "_BLOCK_ROWS", span * batch), \
                mock.patch.object(sim_mod, "_DRAW_PERIODS", draw):
            got, want = run_both(case)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch, periods, burn", [
        (600, 15, 7),      # one cost block of the whole horizon
        (7, 1173, 586),    # four 256-period draw blocks of cost blocks, then 149
        (1, 50, 3),        # one block of the whole horizon
        across_default_blocks(600),
        across_default_blocks(500),
    ])
    def test_bit_equal_at_default_block_size(self, batch, periods, burn):
        case = stepper_case("pi_v", 2, batch, periods, burn, np.random.default_rng(batch))
        got, want = run_both(case)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["pi_square", "balancing", "pi_v"])
    def test_nan_demand_propagates_with_the_same_bits(self, kind):
        # a NaN level passes the clamp and the order truncation as NaN
        p, policy, ref, x0, demand, uniforms = stepper_case(
            kind, 2, 7, 6, 0, np.random.default_rng(5))
        demand[1, 2, 0] = demand[3, 0, 1] = np.nan
        got = _simulate_batch(p, policy, x0, sliced(demand, uniforms),
                              collect_orders=True)
        want = reference_simulate_batch(p, ref, x0, demand, uniforms,
                                        collect_orders=True)
        assert np.isnan(got[0]).sum() == 2
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["pi_square", "pi_v"])
    @pytest.mark.parametrize("m", [8, 9, 12])
    def test_many_locations_within_rounding(self, kind, m):
        # numpy sums 8 or more terms pairwise, the stepper column by column
        case = stepper_case(kind, m, 50, 12, 4 if kind == "pi_v" else 0,
                            np.random.default_rng(m))
        got, want = run_both(case)
        for a, b in zip(got, want):
            assert np.allclose(a, b, rtol=1e-14, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(m=hs.integers(1, 6), seed=hs.integers(0, 2 ** 32 - 1),
           ties=hs.booleans())
    def test_waterfill_bit_equal_to_sorted_reference(self, m, seed, ties):
        # rows of signed zeros and rows of NaN of either sign as well; a
        # NaN's sign bit is whatever numpy's loops pass on, so only the
        # other entries' sign bits are compared
        gen = np.random.default_rng(seed)
        X = gen.uniform(-4.0, 4.0, (40, m))
        if ties:
            X = np.round(X)
        X[:4] = gen.choice([0.0, -0.0], (4, m))
        X[4] = np.nan
        X[5] = np.copysign(np.nan, -1.0)
        v = gen.choice([0.0, 0.5, 1.0, 2.0 + 1e-3, 7.0], 40)
        got, want = mi.policies._waterfill(X, v), reference_waterfill(X, v)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got[~np.isnan(got)]),
                              np.signbit(want[~np.isnan(got)]))


# ---------------------------------------------------------------------------
# Draws streamed in blocks of periods
# ---------------------------------------------------------------------------

TIGHTNESS = "tightness:M=2,eps=0.1,l=1,h=4,p=100"


def tightness_policies(instance_id=TIGHTNESS):
    defaults = mi.instances.policy_defaults(instance_id)
    base = mi.BaseStockPolicy(np.full(2, defaults["base_stock_auto"]))
    return {"base_stock": base,
            "pi_v": mi.make_pi_v(defaults["pi_v"]["m"], defaults["pi_v"]["delta"])}


@pytest.fixture(scope="module")
def small_heatmaps():
    """(problem, numerator, denominator) of a deterministic and a
    randomized heatmap over every 8th grid state, and their CSVs at the
    default block and chunk sizes."""
    cases = {}
    sector = mi.instances.build("sector_sim")
    cases["sector pi_square"] = (sector, mi.make_pi_square(sector, 2.0),
                                 mi.TabularGridPolicy(mi.solve_joint_dp(sector)[1]))
    affine = mi.instances.build("affine_sim")
    cases["affine balancing"] = (affine, mi.make_balancing_policy(affine,
                                                                  variant="cumulative"),
                                 mi.TabularGridPolicy(mi.solve_joint_dp(affine)[1]))
    cfg = SimConfig(runs=3, seed=5, initial_states=sector.grid.states(2)[::8])
    return cfg, {name: (case, ratio_heatmap(*case, cfg).csv_text())
                 for name, case in cases.items()}


class TestDrawBlocks:
    @pytest.mark.parametrize("kind", ["base_stock", "pi_v"])
    def test_estimate_equals_whole_horizon_draws(self, kind):
        # three draw blocks, the last 7 periods long; the burn-in ends 5
        # periods into the second
        block = sim_mod._DRAW_PERIODS
        periods, burn = 2 * block + 7, block + 5
        p = replace(mi.instances.build(TIGHTNESS),
                    horizon=InfiniteAveraged(sim_periods=periods, burn_in=burn))
        policy = tightness_policies()[kind]
        ref = (ReferenceExplicitV(policy.v_values, policy.threshold)
               if kind == "pi_v" else policy)
        cfg = SimConfig(runs=4, seed=11)
        mean, se, z, c = estimate_cost(p, policy, np.zeros(2), cfg, state_index=3,
                                       collect_orders=True)
        raw = np.stack([rng.demand_stream(11, 3, run, policy.tag, False)
                        .random((periods, 2)) for run in range(cfg.runs)])
        demand = transform_uniform_draws(p.demand, raw)
        costs, z_ref, c_ref = reference_simulate_batch(
            p, ref, np.zeros((cfg.runs, 2)), demand, None, collect_orders=True)
        assert z.tobytes() == z_ref.tobytes() and c.tobytes() == c_ref.tobytes()
        assert mean == float(np.mean(costs))
        assert se == float(np.std(costs, ddof=1) / np.sqrt(cfg.runs))

    @pytest.mark.parametrize("case", ["sector pi_square", "affine balancing"])
    def test_heatmap_csv_independent_of_draw_block_size(self, small_heatmaps, case):
        # 20-period horizons in blocks of 8, 8 and 4 periods
        cfg, cases = small_heatmaps
        problem_and_policies, want = cases[case]
        with mock.patch.object(sim_mod, "_DRAW_PERIODS", 8), \
                mock.patch.object(sim_mod, "transform_uniform_draws",
                                  wraps=sim_mod.transform_uniform_draws) as spy:
            got = ratio_heatmap(*problem_and_policies, cfg).csv_text()
        assert spy.call_count == 3
        assert got == want

    @pytest.mark.parametrize("case, one_run", [
        ("sector pi_square", False), ("affine balancing", False),
        ("sector pi_square", True), ("affine balancing", True)],
        ids=["sector pi_square", "affine balancing",
             "sector pi_square-one run", "affine balancing-one run"])
    def test_heatmap_csv_independent_of_chunk_size(self, small_heatmaps, case, one_run):
        # a budget of one state's runs makes one chunk per state, and a
        # budget of 1 double one chunk per run of every state
        cfg, cases = small_heatmaps
        problem_and_policies, want = cases[case]
        p = problem_and_policies[0]
        budget = 1 if one_run else cfg.runs * p.periods * p.m
        with mock.patch.object(sim_mod, "_CHUNK_DOUBLES", budget), \
                mock.patch.object(sim_mod, "_keyed_draws",
                                  wraps=sim_mod._keyed_draws) as spy:
            got = ratio_heatmap(*problem_and_policies, cfg).csv_text()
        chunks = len(cfg.initial_states) * (cfg.runs if one_run else 1)
        assert spy.call_count == chunks
        assert got == want

    @pytest.mark.parametrize("kind", ["base_stock", "pi_v", "balancing"])
    def test_estimate_independent_of_chunk_size(self, kind):
        # 10 runs of 2 runs each, or of 4, 4 and 2: every result, the
        # order traces included, is the unchunked estimate's to the bit
        if kind == "balancing":
            p = mi.instances.build("affine_sim")
            policy = mi.make_balancing_policy(p, variant="cumulative")
            assert policy.uses_randomness
        else:
            p = replace(mi.instances.build(TIGHTNESS),
                        horizon=InfiniteAveraged(sim_periods=30, burn_in=12))
            policy = tightness_policies()[kind]
        cfg = SimConfig(runs=10, seed=13)
        x0 = np.full(p.m, p.grid.point(2))
        want = estimate_cost(p, policy, x0, cfg, state_index=4, collect_orders=True)
        for per_chunk, chunks in ((2, 5), (4, 3)):
            with mock.patch.object(sim_mod, "_CHUNK_DOUBLES", per_chunk * p.periods * p.m), \
                    mock.patch.object(sim_mod, "_keyed_draws",
                                      wraps=sim_mod._keyed_draws) as spy:
                got = estimate_cost(p, policy, x0, cfg, state_index=4, collect_orders=True)
            assert spy.call_count == chunks
            assert got[:2] == want[:2]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[2:], want[2:]))

    @pytest.mark.parametrize("budget", [1, 100, 1000, None])
    def test_no_draw_buffer_exceeds_the_chunk_budget(self, budget):
        # 40 doubles per run and stream (20 periods, 2 locations): one run
        # per chunk where one run's block alone is over the budget, 2 runs
        # of a state per chunk, 6 whole states per chunk, and the default
        # budget's one chunk; each chunk draws exactly its runs' rows
        p = mi.instances.build("affine_sim")
        policy = mi.make_balancing_policy(p, variant="cumulative")
        states = p.grid.states(2)[::40]
        cfg = SimConfig(runs=4, seed=9, initial_states=states)
        sizes, rows = [], []
        keyed_draws = sim_mod._keyed_draws

        def recording(*args):
            draws = keyed_draws(*args)

            def record(k0, n):
                blocks = draws(k0, n)
                sizes.extend(b.base.size for b in blocks)
                rows.append(len(blocks[0]))
                return blocks
            return record

        limit = sim_mod._CHUNK_DOUBLES if budget is None else budget
        with mock.patch.object(sim_mod, "_CHUNK_DOUBLES", limit), \
                mock.patch.object(sim_mod, "_keyed_draws", recording):
            got = ratio_heatmap(p, policy, policy, cfg).csv_text()
        assert got == ratio_heatmap(p, policy, policy, cfg).csv_text()
        assert len(sizes) == 2 * len(rows) and sum(rows) == len(states) * cfg.runs
        assert 0 < max(sizes) <= max(limit, p.periods * p.m)

    def test_long_horizon_estimates_are_pinned(self):
        # nine draw blocks (eight of 256 periods and one of 52) of
        # continuous demand; the heatmap CSV hashes cover only 20-period
        # horizons
        p = mi.instances.build(f"{TIGHTNESS},sim_periods=2100")
        cfg = SimConfig(runs=64, seed=2024)
        got = {kind: repr(estimate_cost(p, policy, np.zeros(2), cfg))
               for kind, policy in tightness_policies().items()}
        assert got == {
            "base_stock": "(8.131654483794868, 0.00014554606429267476)",
            "pi_v": "(2.0355355846470196, 3.6152026742951504e-05)",
        }

    @pytest.mark.parametrize("case", ["heatmap", "long estimate"])
    def test_no_call_exceeds_the_fill_chunk(self, case):
        # every fill and lookup handles at most one fill chunk, or one
        # run's block when that alone is larger: 1764 balancing rows of 20
        # periods in 3 chunks (demand and policy fills), and 40 runs of
        # 2100 periods in 1 chunk per draw block, 9 blocks
        if case == "heatmap":
            p = mi.instances.build("affine_sim")
            policy = mi.make_balancing_policy(p, variant="cumulative")
            fills, lookups = 6, 3

            def run():
                ratio_heatmap(p, policy, policy, SimConfig(runs=4, seed=2))
        else:
            p = mi.instances.build(f"{TIGHTNESS},sim_periods=2100")
            policy = tightness_policies()["pi_v"]
            fills = lookups = 9

            def run():
                estimate_cost(p, policy, np.zeros(2), SimConfig(runs=40, seed=2))
        with mock.patch.object(rng, "fill_streams", wraps=rng.fill_streams) as fill, \
                mock.patch.object(sim_mod, "transform_uniform_draws",
                                  wraps=sim_mod.transform_uniform_draws) as lookup:
            run()
        span = min(p.periods, sim_mod._DRAW_PERIODS)
        bound = max(sim_mod._FILL_DOUBLES, span * p.m)
        sizes = [c.args[0].size for c in fill.call_args_list]
        sizes += [c.args[1].size for c in lookup.call_args_list]
        assert (fill.call_count, lookup.call_count) == (fills, lookups)
        assert 0 < max(sizes) <= bound

    def test_long_horizon_draw_memory_is_bounded(self):
        # 500 runs x 2000 periods x 2 locations is 16 MB of demand drawn
        # at once; in blocks of 256 periods the buffer is 2 MB, and the
        # peaks read 4.5 MB (base-stock) and 3.8 MB (pi_v)
        p = mi.instances.build(f"{TIGHTNESS},sim_periods=2000")
        cfg = SimConfig(runs=500, seed=1)
        peaks = []
        for policy in tightness_policies().values():
            tracemalloc.start()
            try:
                estimate_cost(p, policy, np.zeros(2), cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 6_000_000


class TestVerifyConfig:
    """verify_cost_transformation never runs on a bad config: SimConfig
    refuses runs < 1 when built, and the initial states are checked
    where they are read."""

    @pytest.fixture(scope="class")
    def affine_balancing(self):
        p = mi.instances.build("affine_sim")
        return p, mi.make_balancing_policy(p, variant="cumulative")

    def test_zero_runs_raises(self, affine_balancing):
        p, policy = affine_balancing
        with pytest.raises(ValueError, match="runs must be >= 1"):
            verify_cost_transformation(p, policy, 1.0, SimConfig(runs=0))

    def test_empty_initial_state_list_raises(self, affine_balancing):
        # a randomized policy takes the Monte Carlo branch, which reads
        # the initial states
        p, policy = affine_balancing
        with pytest.raises(ValueError, match="initial_states"):
            verify_cost_transformation(p, policy, 1.0,
                                       SimConfig(runs=2, initial_states=[]))

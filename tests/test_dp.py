from dataclasses import replace

import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv import dp
from multinv.dp import (SizeError, StructureError, TabularPolicy,
                        extract_base_stock, extract_sS)
from multinv.model import (DemandModel, DiscreteMarginal, Finite, Grid,
                           HoldingBacklogCost, OrderingCost, Piece, Problem,
                           affine_cost, demand_pmf, expected_holding_backlog,
                           linear_cost, single_location_problem)
from multinv.testing import (brute_force_final_levels, brute_force_policy_cost,
                             brute_force_values, random_order_table, random_problem,
                             random_small_problem, sector_three_locations)


@pytest.fixture(scope="module")
def fig1_linear():
    p = mi.instances.build("fig1_linear")
    vf, tab = mi.solve_joint_dp(p)
    return p, vf, tab


@pytest.fixture(scope="module")
def fig1_nonlinear():
    p = mi.instances.build("fig1_nonlinear")
    vf, tab = mi.solve_joint_dp(p)
    return p, vf, tab


def single_problem(c, demand, holding=(1.0, 10.0), periods=1,
                   grid=Grid(-2.0, 4.0, 1.0), cap=4.0):
    return Problem(m=1, horizon=Finite(periods), ordering=c,
                   holding=HoldingBacklogCost((holding[0],), (holding[1],)),
                   demand=DemandModel(marginals=(demand,)),
                   grid=grid, max_order_per_location=cap).validate(dp=True)


class TestSolveDP:
    def test_one_period_costless_order(self):
        # enumerating u in {0,1,2,...}: ordering to 1 costs 0.5 in
        # expectation, everything else is worse
        p = single_problem(linear_cost(0.0), DiscreteMarginal((0.0, 1.0), (0.5, 0.5)))
        vf, tab = mi.solve_joint_dp(p)
        i0 = p.grid.index(0.0)
        assert tab.orders[0][i0, 0] == 1
        assert vf.values[0][i0] == pytest.approx(0.5, abs=1e-12)

    def test_linear_cost_gives_decoupled_base_stock(self, fig1_linear):
        p, vf, tab = fig1_linear
        pts = p.grid.points()
        for k in range(2):
            for i1 in range(p.grid.count):
                for i2 in range(p.grid.count):
                    want = np.maximum(1.0 - pts[[i1, i2]], 0.0)
                    assert np.array_equal(tab.orders[k][i1, i2] * p.grid.step, want)

    def test_nonlinear_final_stage_orders_one_unit_once(self, fig1_nonlinear):
        p, vf, tab = fig1_nonlinear
        i0 = p.grid.index(0.0)
        last = tab.orders[p.horizon.periods - 1][i0, i0]
        assert last.sum() == 1
        assert np.count_nonzero(last) == 1

    def test_nonlinear_value_symmetric(self, fig1_nonlinear):
        _, vf, _ = fig1_nonlinear
        v0 = vf.values[0]
        assert np.max(np.abs(v0 - v0.T)) <= 1e-12

    def test_zero_demand_orders_nothing_from_nonnegative_states(self):
        p = single_problem(linear_cost(2.0), DiscreteMarginal((0.0,), (1.0,)),
                           periods=2)
        _, tab = mi.solve_joint_dp(p)
        nonneg = p.grid.points() >= 0
        assert np.all(tab.orders[:, nonneg, 0] == 0)

    def test_requires_finite_horizon_and_discrete_demand(self):
        p = mi.instances.build("tightness:M=2,eps=0.1,l=1,h=4,p=100")
        with pytest.raises(mi.ValidationError):
            mi.solve_joint_dp(p)

    def test_size_guard(self):
        p = mi.instances.build("sector_sim")
        from dataclasses import replace
        q = replace(p, m=4, holding=HoldingBacklogCost((0.1,) * 4, (10.0,) * 4),
                    demand=DemandModel(marginals=p.demand.marginals * 2))
        with pytest.raises(SizeError):
            mi.solve_joint_dp(q)

    def test_one_size_error_class(self):
        from multinv import stationary
        assert stationary.SizeError is SizeError is mi.SizeError
        p = mi.instances.build("sector_sim")
        q = replace(p, m=5, holding=HoldingBacklogCost((0.1,) * 5, (10.0,) * 5),
                    demand=DemandModel(marginals=p.demand.marginals * 5))
        with pytest.raises(mi.SizeError, match="candidates"):
            stationary.optimize_joint(q)

    def test_terminal_values_zero_and_tables_nonnegative(self, fig1_nonlinear):
        _, vf, _ = fig1_nonlinear
        assert np.all(vf.values[-1] == 0.0)
        assert np.all(vf.values >= 0.0)


class TestOracleEquivalence:
    def test_dp_matches_brute_force(self):
        rng = np.random.default_rng(424242)
        for _ in range(6):
            p = random_small_problem(rng)
            vf, _ = mi.solve_joint_dp(p)
            assert np.max(np.abs(vf.values[0] - brute_force_values(p))) <= 1e-12

    def test_linear_cost_decouples(self, fig1_linear):
        p, vf, _ = fig1_linear
        sub = single_location_problem(p, 0)
        vf1, _ = mi.solve_joint_dp(sub)
        v1 = vf1.values[0]
        joint = vf.values[0]
        split = v1[:, None] + v1[None, :]
        assert np.max(np.abs(joint - split)) <= 1e-9

    def test_linear_cost_decouples_on_six_locations(self):
        # sector_sim's 4-atom demand at six locations: 4096 joint outcomes
        # per stage, summed in 4**2 + 4 * 4 slices
        base = mi.instances.build("sector_sim")
        m = 6
        p = Problem(m=m, horizon=Finite(3), ordering=linear_cost(2.0),
                    holding=HoldingBacklogCost(tuple(0.1 + 0.05 * i for i in range(m)),
                                               tuple(5.0 + i for i in range(m))),
                    demand=DemandModel(marginals=base.demand.marginals[:1] * m),
                    grid=Grid(-0.5, 1.0, 0.5), max_order_per_location=0.5).validate(dp=True)
        vf, _ = mi.solve_joint_dp(p)
        split = functools.reduce(np.add.outer, [
            mi.solve_joint_dp(single_location_problem(p, i))[0].values[0] for i in range(m)])
        assert np.all(np.abs(vf.values[0] - split) <= 1e-9 * np.abs(split))

    def test_optimality_dominates_random_policies(self, fig1_nonlinear):
        p, vf, tab = fig1_nonlinear
        periods = p.horizon.periods
        cap = p.grid.to_steps(p.max_order_per_location)
        rng = np.random.default_rng(5)
        for _ in range(5):
            table = random_order_table(p, rng)
            policy = mi.TabularGridPolicy(TabularPolicy(
                grid=p.grid, m=2, orders=table, cap_steps=cap))
            j = mi.evaluate_policy_exact(p, policy)
            assert np.all(vf.values[0] / periods <= j + 1e-9)


def gather_expectation(problem, w):
    """The expectation by np.ix_ gathers, in the association that
    dp._expectation documents: location 1's outcomes summed first, then
    location 2's over that, and so on, the last two locations (or the
    only one) jointly over their outcome pairs.  Each outcome gathers the
    running table at the clamped next state, in the same outcome order
    and with the same probabilities."""
    n, m = problem.grid.count, problem.m
    per_loc = []
    for i in range(m):
        values, probs = demand_pmf(problem.demand, i)
        per_loc.append([(np.maximum(np.arange(n) - problem.grid.to_steps(v), 0), p)
                        for v, p in zip(values, probs)])
    for group in [[i] for i in range(m - 2)] + [list(range(max(m - 2, 0), m))]:
        ev = np.zeros_like(w)
        for combo in itertools.product(*(per_loc[i] for i in group)):
            index = [np.arange(n)] * m
            for i, c in zip(group, combo):
                index[i] = c[0]
            ev += float(np.prod([c[1] for c in combo])) * w[np.ix_(*index)]
        w = ev
    return w


def state_loop_dp(problem):
    """The per-state backward induction that the action-major scan
    replaced: each state takes np.argmin over its own feasible box, whose
    first minimum in C order is the lexicographic tie-break."""
    grid, m, n = problem.grid, problem.m, problem.grid.count
    periods = problem.horizon.periods
    cap_steps = grid.to_steps(problem.max_order_per_location)
    hold = functools.reduce(np.add.outer, dp._expected_holding_tables(problem))
    order_cost = dp._order_cost_box(problem, cap_steps)
    values = np.zeros((periods + 1,) + (n,) * m)
    orders = np.zeros((periods,) + (n,) * m + (m,), dtype=np.int32)
    for k in range(periods - 1, -1, -1):
        goal = hold + gather_expectation(problem, values[k + 1])
        for state in np.ndindex(*(n,) * m):
            sizes = tuple(min(cap_steps, n - 1 - j) + 1 for j in state)
            cand = order_cost[tuple(slice(0, b) for b in sizes)] \
                + goal[tuple(slice(j, j + b) for j, b in zip(state, sizes))]
            u = np.unravel_index(int(np.argmin(cand)), sizes)
            values[k][state] = cand[u]
            orders[k][state] = u
    return values, orders


# ordering costs with many exact ties (free or linear orders) and with
# fixed charges and concave pieces
TIE_COSTS = [linear_cost(0.0), linear_cost(1.0), affine_cost(1.0, 0.5),
             OrderingCost(pieces=(Piece(1.0, 0.0, 2.0), Piece(math.inf, 1.0, 1.0)))]


@hs.composite
def dp_problems(draw):
    m = draw(hs.integers(1, 4))
    step = draw(hs.sampled_from([0.5, 1.0]))
    # four locations on grids of at most four points keep the state loop
    # at 256 states
    count = draw(hs.integers(2, 6 if m < 4 else 4))
    lo = -step * draw(hs.integers(0, 2))
    marginals = []
    for _ in range(m):
        offsets = draw(hs.lists(hs.integers(0, 3), min_size=1, max_size=3, unique=True))
        weights = draw(hs.lists(hs.integers(1, 5), min_size=len(offsets),
                                max_size=len(offsets)))
        marginals.append(DiscreteMarginal(
            tuple(step * o for o in sorted(offsets)),
            tuple(w / sum(weights) for w in weights)))
    # zero holding or zero backlog rates, never both
    rates = [draw(hs.sampled_from([(0.0, 1.0), (0.0, 10.0), (0.5, 0.0),
                                   (0.5, 4.0), (1.0, 1.0)])) for _ in range(m)]
    return Problem(
        m=m,
        horizon=Finite(draw(hs.integers(1, 3))),
        ordering=draw(hs.sampled_from(TIE_COSTS)),
        holding=HoldingBacklogCost(tuple(a for a, _ in rates), tuple(b for _, b in rates)),
        demand=DemandModel(marginals=tuple(marginals)),
        grid=Grid(lo, lo + step * (count - 1), step),
        # order caps below, at and above the grid span count - 1
        max_order_per_location=step * draw(hs.integers(0, 8)),
    ).validate(dp=True)


class TestSolveAgainstStateLoop:
    """Both stage minimizations, the scan (one or two locations) and the
    per-axis recursion (three or more), against the per-state loop."""

    def assert_same(self, problem):
        vf, tab = mi.solve_joint_dp(problem)
        values, orders = state_loop_dp(problem)
        assert np.array_equal(vf.values, values)
        assert np.array_equal(tab.orders, orders)

    @settings(max_examples=60, deadline=None)
    @given(problem=dp_problems())
    def test_random_problems(self, problem):
        self.assert_same(problem)

    @pytest.mark.parametrize("cap", [1.0, 5.0])
    def test_free_orders_and_no_holding_tie_everywhere(self, cap):
        # with free orders and no holding cost every order that covers the
        # demand ties; the smallest order vector has to win
        p = Problem(m=3, horizon=Finite(2), ordering=linear_cost(0.0),
                    holding=HoldingBacklogCost((0.0,) * 3, (1.0,) * 3),
                    demand=DemandModel(marginals=(DiscreteMarginal((0.0, 1.0), (0.5, 0.5)),) * 3),
                    grid=Grid(-1.0, 2.0, 1.0), max_order_per_location=cap).validate(dp=True)
        self.assert_same(p)

    def test_instances(self, fig1_linear, fig1_nonlinear):
        for p, _, _ in (fig1_linear, fig1_nonlinear):
            self.assert_same(p)


def action_major_scan(problem):
    """The stage minimization that the tile scan replaced: every order
    vector of the action box in C order, one slab of states each, kept
    where it is strictly better."""
    grid, m, n = problem.grid, problem.m, problem.grid.count
    periods = problem.horizon.periods
    cap_steps = grid.to_steps(problem.max_order_per_location)
    box = (min(cap_steps, n - 1) + 1,) * m
    passes = dp._demand_passes(problem)
    hold = functools.reduce(np.add.outer, dp._expected_holding_tables(problem))
    order_cost = dp._order_cost_box(problem, box[0] - 1)
    heads = [slice(0, n - s) for s in range(box[0])]
    tails = [slice(s, None) for s in range(box[0])]
    values = np.zeros((periods + 1,) + (n,) * m)
    orders = np.zeros((periods,) + (n,) * m + (m,), dtype=np.int32)
    arg = np.empty((n,) * m, dtype=np.intp)
    for k in range(periods - 1, -1, -1):
        goal = hold + dp._expectation(values[k + 1], passes)
        best = values[k]
        best.fill(np.inf)
        scan = zip(order_cost.flat, itertools.product(heads, repeat=m),
                   itertools.product(tails, repeat=m))
        for flat, (cost, states, post) in enumerate(scan):
            cand = cost + goal[post]
            better = cand < best[states]
            np.copyto(best[states], cand, where=better)
            np.copyto(arg[states], flat, where=better)
        orders[k] = np.stack(np.unravel_index(arg, box), axis=-1)
    return values, orders


# chunk budgets: one row per chunk ("scan"), chunks of 64 entries, the
# default, and every tile in one chunk ("whole_box"); three or more
# locations take the per-axis stage whatever the budget
TILE_BUDGETS = [1, 64, dp._TILE_ELEMENTS, 2 ** 40]


@pytest.fixture(scope="class", params=TILE_BUDGETS,
                ids=["scan", "tiles64", "default", "whole_box"])
def chunk_budget(request):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp, "_TILE_ELEMENTS", request.param)
        yield request.param


def two_location_problem(grid, cap):
    marginal = DiscreteMarginal((0.0, grid.step, 2 * grid.step), (0.25, 0.5, 0.25))
    return Problem(m=2, horizon=Finite(3), ordering=affine_cost(1.0, 0.5),
                   holding=HoldingBacklogCost((0.5, 1.0), (4.0, 10.0)),
                   demand=DemandModel(marginals=(marginal, marginal)),
                   grid=grid, max_order_per_location=cap).validate(dp=True)


@pytest.mark.usefixtures("chunk_budget")
class TestTileWidths(TestSolveAgainstStateLoop):
    """The state-loop comparisons rerun at every chunk budget, plus the
    degenerate action boxes."""

    @pytest.mark.parametrize("cap", [0.0, 5.0, 5.5, 40.0])
    def test_order_cap_at_zero_and_at_or_above_the_span(self, cap):
        # b = 1, b = n and a cap beyond the grid span
        self.assert_same(two_location_problem(Grid(-2.0, 3.0, 0.5), cap))

    @pytest.mark.parametrize("cap", [0.0, 1.0, 3.0])
    def test_two_point_grid(self, cap):
        self.assert_same(two_location_problem(Grid(0.0, 1.0, 1.0), cap))
        self.assert_same(single_problem(affine_cost(1.0, 0.5),
                                        DiscreteMarginal((0.0, 1.0), (0.5, 0.5)),
                                        periods=2, grid=Grid(0.0, 1.0, 1.0), cap=cap))


def many_location_problem(grid, cap, m):
    """``two_location_problem`` with m locations, the first two as
    there and the rest like the second."""
    marginal = DiscreteMarginal((0.0, grid.step, 2 * grid.step), (0.25, 0.5, 0.25))
    return Problem(m=m, horizon=Finite(3), ordering=affine_cost(1.0, 0.5),
                   holding=HoldingBacklogCost((0.5,) + (1.0,) * (m - 1),
                                              (4.0,) + (10.0,) * (m - 1)),
                   demand=DemandModel(marginals=(marginal,) * m),
                   grid=grid, max_order_per_location=cap).validate(dp=True)


class TestAxisStage:
    """The degenerate action boxes of ``TestTileWidths`` on three and four
    locations, where each stage is minimized one axis at a time."""

    assert_same = TestSolveAgainstStateLoop.assert_same

    @pytest.mark.parametrize("cap", [0.0, 2.0, 2.5, 40.0])
    def test_order_cap_at_zero_and_at_or_above_the_span(self, cap):
        # b = 1, a cap below the grid span, b = n and a cap beyond the span
        self.assert_same(many_location_problem(Grid(-1.0, 1.5, 0.5), cap, 3))

    @pytest.mark.parametrize("cap", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("m", [3, 4])
    def test_two_point_grid(self, m, cap):
        self.assert_same(many_location_problem(Grid(0.0, 1.0, 1.0), cap, m))

    @pytest.mark.parametrize("cap", [1.0, 5.0])
    def test_identical_locations_tie_everywhere(self, cap):
        # free orders, no holding cost and four identical locations: every
        # order that covers the demand ties, and the smallest order vector
        # has to win on each axis
        p = Problem(m=4, horizon=Finite(2), ordering=linear_cost(0.0),
                    holding=HoldingBacklogCost((0.0,) * 4, (1.0,) * 4),
                    demand=DemandModel(marginals=(DiscreteMarginal((0.0, 1.0), (0.5, 0.5)),) * 4),
                    grid=Grid(-1.0, 2.0, 1.0), max_order_per_location=cap).validate(dp=True)
        self.assert_same(p)

    def test_one_byte_orders_hold_the_widest_box(self):
        # MAX_JOINT_STATES keeps n <= 46 from three locations on, so no
        # per-axis order exceeds an int8
        n = max(n for n in range(1, 100) if n ** 3 <= dp.MAX_JOINT_STATES)
        assert n - 1 <= np.iinfo(np.int8).max


def scan_problems():
    named = {name: mi.instances.build(name)
             for name in ("sector_sim", "affine_sim", "fig1_linear", "fig1_nonlinear")}
    named["sector_sim_m3"] = sector_three_locations()
    # the single-location problems that make_pi_square solves
    for name in ("sector_sim", "affine_sim", "sector_sim_m3"):
        problem = named[name]
        for i in range(problem.m):
            named[f"{name}_square{i}"] = single_location_problem(
                problem, i, ordering=linear_cost(2.0))
    named["two_location_cap_below_span"] = two_location_problem(Grid(-2.0, 3.0, 0.5), 1.5)
    return named


SCAN_PROBLEMS = scan_problems()


@functools.lru_cache(maxsize=None)
def scanned(name):
    return action_major_scan(SCAN_PROBLEMS[name])


class TestSolveAgainstScan:
    """Bit for bit against a copy of the action-major scan."""

    @pytest.mark.parametrize("name", list(SCAN_PROBLEMS))
    @pytest.mark.parametrize("budget", [TILE_BUDGETS[0], TILE_BUDGETS[2], TILE_BUDGETS[3]],
                             ids=["scan", "default", "whole_box"])
    def test_instances(self, name, budget, monkeypatch):
        monkeypatch.setattr(dp, "_TILE_ELEMENTS", budget)
        vf, tab = mi.solve_joint_dp(SCAN_PROBLEMS[name])
        values, orders = scanned(name)
        assert np.array_equal(vf.values, values)
        assert np.array_equal(tab.orders, orders)

    def test_three_locations_minimize_one_axis_at_a_time(self, monkeypatch):
        def no_tiles(*args):
            raise AssertionError("three locations reached the tile scan")

        monkeypatch.setattr(dp, "_tile_stage", no_tiles)
        vf, tab = mi.solve_joint_dp(SCAN_PROBLEMS["sector_sim_m3"])
        values, orders = scanned("sector_sim_m3")
        assert np.array_equal(vf.values, values)
        assert np.array_equal(tab.orders, orders)

    @pytest.mark.parametrize("name", ["sector_sim", "sector_sim_square0"])
    def test_one_or_two_locations_keep_the_tile_scan(self, name, monkeypatch):
        def no_axes(*args):
            raise AssertionError("one or two locations reached the per-axis stage")

        monkeypatch.setattr(dp, "_axis_stage", no_axes)
        vf, tab = mi.solve_joint_dp(SCAN_PROBLEMS[name])
        values, orders = scanned(name)
        assert np.array_equal(vf.values, values)
        assert np.array_equal(tab.orders, orders)


class TestTileChunks:
    """Tiles cut into chunks of rows at the edges of the chunk budget,
    against both oracles."""

    # 11 points, 4 orders per axis: a row is 11 states by 4 orders
    PROBLEM = two_location_problem(Grid(-2.0, 3.0, 0.5), 1.5)
    ROW = 11 * 4

    def assert_same(self, problem, budget, monkeypatch):
        monkeypatch.setattr(dp, "_TILE_ELEMENTS", budget)
        vf, tab = mi.solve_joint_dp(problem)
        for values, orders in (state_loop_dp(problem), action_major_scan(problem)):
            assert np.array_equal(vf.values, values)
            assert np.array_equal(tab.orders, orders)

    def test_block_of_exactly_the_budget(self, monkeypatch):
        # chunks of three rows, the last of each tile shorter
        self.assert_same(self.PROBLEM, 3 * self.ROW, monkeypatch)

    def test_one_row_over_the_budget(self, monkeypatch):
        # three rows are one entry over, so chunks take two
        self.assert_same(self.PROBLEM, 3 * self.ROW - 1, monkeypatch)

    def test_row_larger_than_the_budget(self, monkeypatch):
        # every chunk is one whole row
        self.assert_same(self.PROBLEM, self.ROW - 1, monkeypatch)

    def test_one_location_one_state_per_chunk(self, monkeypatch):
        # b = 6 orders per state, above the budget
        problem = single_problem(affine_cost(1.0, 0.5),
                                 DiscreteMarginal((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)),
                                 periods=3, grid=Grid(-3.0, 6.0, 1.0), cap=5.0)
        self.assert_same(problem, 5, monkeypatch)


def expectation_problem(marginals, count):
    """A DP problem on the unit-step grid of ``count`` points whose only
    use here is its joint demand."""
    m = len(marginals)
    return Problem(m=m, horizon=Finite(1), ordering=linear_cost(1.0),
                   holding=HoldingBacklogCost((1.0,) * m, (2.0,) * m),
                   demand=DemandModel(marginals=tuple(marginals)),
                   grid=Grid(-1.0, count - 2.0, 1.0),
                   max_order_per_location=1.0).validate(dp=True)


def random_table(rng, shape):
    """Signed entries over seven decades, so rounding order would show."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)


def all_outcome_demand(problem):
    """The joint demand that the per-pass demand replaced: all joint
    demand outcomes in C order of the per-location atoms, (shifts,
    probs), the per-location demands in grid steps as an int array of
    shape (outcomes, M) and each outcome's probability, the product of
    its atoms' probabilities taken from location 1 on."""
    pmfs = [demand_pmf(problem.demand, i) for i in range(problem.m)]
    steps = [[problem.grid.to_steps(v) for v in values] for values, _ in pmfs]
    shifts = np.array(list(itertools.product(*steps)), dtype=np.intp).reshape(-1, problem.m)
    probs = functools.reduce(np.multiply.outer, [np.asarray(p, dtype=float) for _, p in pmfs])
    return shifts, probs.ravel()


def all_outcome_expectation(w, combos):
    """The expectation that the per-location passes replaced: one slice
    of one edge-padded copy of w per joint demand outcome, summed in the
    outcome order of ``all_outcome_demand``."""
    shifts, probs = combos
    m, n = shifts.shape[1], w.shape[0]
    pad = min(int(shifts.max()), n - 1)
    side, rest = n + pad, w.shape[m:]
    padded = np.empty((side,) * m + rest, dtype=w.dtype)
    padded[(slice(pad, None),) * m] = w
    for a in range(m):
        lead = (slice(None),) * a
        padded[lead + (slice(0, pad),)] = padded[lead + (slice(pad, pad + 1),)]
    strides = side ** np.arange(m - 1, -1, -1)
    span = (n - 1) * int(strides.sum()) + 1
    offsets = (pad - np.minimum(shifts, pad)) @ strides
    flat = padded.reshape((-1,) + rest)
    ev = np.zeros((n * side ** (m - 1),) + rest, dtype=w.dtype)
    acc = ev[:span]
    for off, prob in zip(offsets.tolist(), probs.tolist()):
        acc += prob * flat[off:off + span]
    return ev.reshape((n,) + (side,) * (m - 1) + rest)[(slice(0, n),) * m]


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of doubles:
    a product of k factors (1 + delta), |delta| <= u, is 1 + theta with
    |theta| <= gamma_k."""
    u = 2.0 ** -53
    return k * u / (1 - k * u)


def rounding_bound(problem, w):
    """An a-priori bound on |dp._expectation(w) - all_outcome_expectation(w)|
    per cell, from the term counts and E|w|.

    A pass over k locations with T outcomes rounds each term's
    probability k - 1 times, its product with w once and the running
    sum T - 1 times (the first add, to 0, is exact): K = T + k - 1
    roundings.  So the pass returns sum_c p_c w_c (1 + theta_c) with
    |theta_c| <= gamma_K; nested passes multiply the factors, so the
    passes' result is within gamma of their summed K, times E|w|, of the
    exact E w, and the all-outcome sum is one pass over all M locations.
    E|w| is taken from the all-outcome sum of |w|, whose terms are all
    nonnegative, so it is at least 1 - gamma of the exact E|w|."""
    k_passes = sum(len(probs) + shifts.shape[1] - 1
                   for shifts, probs in dp._demand_passes(problem))
    combos = all_outcome_demand(problem)
    k_all = len(combos[1]) + problem.m - 1
    mean_abs = all_outcome_expectation(np.abs(w), combos) / (1 - gamma(k_all))
    return (gamma(k_passes) + gamma(k_all)) * mean_abs


@hs.composite
def expectation_cases(draw):
    # demand atoms from 0 (no shift) up to twice the grid (shifts >= n),
    # with or without the 2 + 2M trailing quantities of exact_expectations;
    # from four locations on fewer points and atoms keep the all-outcome
    # sum at 729 outcomes of 729 states
    m = draw(hs.integers(1, 6))
    count = draw(hs.integers(2, {4: 4, 5: 3, 6: 3}.get(m, 7)))
    marginals = []
    for _ in range(m):
        steps = draw(hs.lists(hs.integers(0, 2 * count), min_size=1,
                              max_size=4 if m <= 4 else 3, unique=True))
        weights = draw(hs.lists(hs.integers(1, 9), min_size=len(steps), max_size=len(steps)))
        marginals.append(DiscreteMarginal(tuple(float(v) for v in steps),
                                          tuple(w / sum(weights) for w in weights)))
    shape = (count,) * m + ((2 + 2 * m,) if draw(hs.booleans()) else ())
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    return expectation_problem(marginals, count), random_table(rng, shape)


class TestExpectationViews:
    """dp._expectation (flat slices of one edge-padded copy per pass)
    against the np.ix_ gathers of the same association, bit for bit, and
    against the all-outcome sum it replaced: bit for bit with one or two
    locations, within ``rounding_bound`` from three on."""

    def assert_same(self, problem, w):
        ev = dp._expectation(w, dp._demand_passes(problem))
        assert np.array_equal(ev, gather_expectation(problem, w))
        joint = all_outcome_expectation(w, all_outcome_demand(problem))
        if problem.m <= 2:
            assert np.array_equal(ev, joint)
        else:
            assert np.all(np.abs(ev - joint) <= rounding_bound(problem, w))

    @settings(max_examples=200, deadline=None)
    @given(case=expectation_cases())
    def test_random_tables(self, case):
        self.assert_same(*case)

    # zero demand only (pad width 0), every shift >= n, and a mix of both
    @pytest.mark.parametrize("steps", [(0.0,), (5.0, 9.0), (0.0, 2.0, 6.0)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("trailing", [False, True])
    def test_edge_shifts(self, steps, m, trailing):
        probs = tuple(np.full(len(steps), 1.0 / len(steps)))
        p = expectation_problem([DiscreteMarginal(steps, probs)] * m, 4)
        rng = np.random.default_rng(len(steps) * 10 + m)
        self.assert_same(p, random_table(rng, (4,) * m + ((2 + 2 * m,) if trailing else ())))

    # dp_joint3's tables: 21**3 states and sector_sim's 4-atom demand per
    # location, with and without exact_expectations' 2 + 2M quantities
    @pytest.mark.parametrize("trailing", [False, True])
    def test_three_location_sector_tables(self, trailing):
        rng = np.random.default_rng(21)
        p = SCAN_PROBLEMS["sector_sim_m3"]
        self.assert_same(p, random_table(rng, (21,) * 3 + ((8,) if trailing else ())))

    def test_passes(self):
        # one pass per location, the last two (or the only one) joint
        marginal = DiscreteMarginal((0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
        for m, widths in [(1, [1]), (2, [2]), (3, [1, 2]), (6, [1, 1, 1, 1, 2])]:
            passes = dp._demand_passes(expectation_problem([marginal] * m, 4))
            assert [shifts.shape for shifts, _ in passes] == [(3 ** k, k) for k in widths]


def random_three_location_problem(rng):
    """A random three-location problem within the brute force's reach:
    three or four grid points, one or two periods, two demand atoms per
    location, an order cap of one step, and an affine or concave ordering
    cost."""
    step = float(rng.choice([0.5, 1.0]))
    count = int(rng.integers(3, 5))
    lo = -step * int(rng.integers(0, 2))

    def pieces(rng):
        if rng.random() < 0.5:
            b, m1, m2 = step, float(rng.uniform(2.0, 4.0)), float(rng.uniform(0.5, 2.0))
            return Piece(b, 0.0, m1), Piece(math.inf, (m1 - m2) * b, m2)
        return (Piece(math.inf, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.5, 4.0))),)

    return random_problem(rng, 3, int(rng.integers(1, 3)),
                          Grid(lo, lo + step * (count - 1), step),
                          atoms=(2, 3), support=3, pieces=pieces, cap=lambda rng: step)


def table_policy(problem, table):
    return mi.TabularGridPolicy(TabularPolicy(
        grid=problem.grid, m=problem.m, orders=table,
        cap_steps=problem.grid.to_steps(problem.max_order_per_location)))


def assert_expectations_match_scenario_tree(p, table):
    """Every quantity of exact_expectations of a (non-optimal) order table
    is a scenario-tree number: the cost; the total orders, as the cost
    under c(z) = z and no holding; the final levels; and location i's
    floor clamp, as its backlog at rate 1 on the same grid shifted to
    start at 0."""
    policy = table_policy(p, table)
    periods = p.horizon.periods
    brute = brute_force_policy_cost(p, table) / periods
    assert np.max(np.abs(mi.evaluate_policy_exact(p, policy) - brute)) <= 1e-12
    ex = mi.dp.exact_expectations(p, policy)
    assert np.max(np.abs(ex.cost - brute)) <= 1e-12
    zeros = (0.0,) * p.m
    counted = replace(p, ordering=linear_cost(1.0),
                      holding=HoldingBacklogCost(zeros, zeros))
    assert np.max(np.abs(ex.orders - brute_force_policy_cost(counted, table))) <= 1e-12
    assert np.max(np.abs(ex.final_level - brute_force_final_levels(p, table))) <= 1e-12
    floor = Grid(0.0, p.grid.hi - p.grid.lo, p.grid.step)
    for i in range(p.m):
        rates = tuple(float(j == i) for j in range(p.m))
        clamped = replace(counted, ordering=linear_cost(0.0), grid=floor,
                          holding=HoldingBacklogCost(zeros, rates))
        assert np.max(np.abs(ex.clamp[..., i]
                             - brute_force_policy_cost(clamped, table))) <= 1e-12
    rep = mi.verify_cost_transformation(p, policy, 0.5)
    assert rep["max_abs_accounting_gap"] <= 1e-12
    assert rep["max_abs_displacement_gap"] <= 1e-12


class TestExactEvaluation:
    def test_optimal_policy_reproduces_value_function(self, fig1_nonlinear):
        p, vf, tab = fig1_nonlinear
        j = mi.evaluate_policy_exact(p, mi.TabularGridPolicy(tab))
        assert np.max(np.abs(j - vf.values[0] / 2)) <= 1e-12

    def test_matches_scenario_tree_for_fixed_policy(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            p = random_small_problem(rng)
            _, tab = mi.solve_joint_dp(p)
            policy = mi.TabularGridPolicy(tab)
            exact = mi.evaluate_policy_exact(p, policy)
            brute = brute_force_policy_cost(p, tab.orders)
            assert np.max(np.abs(exact - brute / p.horizon.periods)) <= 1e-12

    def test_random_tables_match_scenario_tree(self):
        rng = np.random.default_rng(47)
        for _ in range(6):
            p = random_small_problem(rng)
            assert_expectations_match_scenario_tree(p, random_order_table(p, rng))

    def test_three_locations_match_scenario_tree(self):
        # the factored expectation's association differs from the
        # all-outcome sum only from three locations on
        rng = np.random.default_rng(303)
        for _ in range(3):
            p = random_three_location_problem(rng)
            vf, _ = mi.solve_joint_dp(p)
            assert np.max(np.abs(vf.values[0] - brute_force_values(p))) <= 1e-12
            assert_expectations_match_scenario_tree(p, random_order_table(p, rng))

    def test_final_level_without_demand_or_clamp(self):
        # deterministic zero demand: x_N = x_0 + all orders, no clamping
        p = single_problem(linear_cost(2.0), DiscreteMarginal((0.0,), (1.0,)),
                           periods=2, cap=1.0)
        policy = mi.BaseStockPolicy(np.array([1.0]))
        ex = mi.dp.exact_expectations(p, policy)
        x0 = p.grid.points()
        assert np.array_equal(ex.final_level[:, 0], np.maximum(x0, np.minimum(x0 + 2, 1.0)))
        assert np.array_equal(ex.orders, ex.final_level[:, 0] - x0)
        assert np.all(ex.clamp == 0.0)

    def test_zero_demand_never_order_costs_nothing(self):
        p = single_problem(linear_cost(2.0), DiscreteMarginal((0.0,), (1.0,)),
                           periods=2)
        policy = mi.BaseStockPolicy(np.array([p.grid.lo]))
        j = mi.evaluate_policy_exact(p, policy)
        assert j[p.grid.index(0.0)] == 0.0

    def test_square_policy_dominated_and_strictly_worse_somewhere(self, fig1_nonlinear):
        p, vf, tab = fig1_nonlinear
        j_opt = mi.evaluate_policy_exact(p, mi.TabularGridPolicy(tab))
        j_sq = mi.evaluate_policy_exact(p, mi.make_pi_square(p, 2.0))
        assert np.all(j_sq >= j_opt - 1e-9)
        assert np.any(j_sq > j_opt + 1e-9)

    def test_exchangeable_value_symmetry_long_horizon(self):
        p = mi.instances.build("sector_sim")
        vf, _ = mi.solve_joint_dp(p)
        for k in range(0, 21, 5):
            v = vf.values[k]
            assert np.max(np.abs(v - v.T)) <= 1e-12


class TestOrderTableGrid:
    def test_raw_table_from_another_grid_raises(self, fig1_linear):
        # same shape, grid shifted by one step: read as fig1's grid, the
        # optimum would cost 10.0 at (lo, lo) where 8.0 is right
        p, _, tab = fig1_linear
        shifted = replace(p, grid=Grid(p.grid.lo + 1.0, p.grid.hi + 1.0, p.grid.step))
        with pytest.raises(ValueError, match="grid"):
            mi.evaluate_policy_exact(shifted, mi.TabularGridPolicy(tab))
        with pytest.raises(ValueError, match="grid"):
            dp.exact_expectations(shifted, mi.TabularGridPolicy(tab))

    def test_raw_table_on_its_own_grid(self, fig1_linear):
        p, vf, tab = fig1_linear
        assert np.max(np.abs(mi.evaluate_policy_exact(p, mi.TabularGridPolicy(tab))
                             - vf.values[0] / 2)) <= 1e-12


def reference_recursion(problem, table, stage, w):
    """The per-stage recursion that flat cells replaced: each location's
    post-order index as an (n,)*M array, the expectation read by a tuple
    fancy index and the stage's order total by ``u.sum(axis=-1)``."""
    m, n = problem.m, problem.grid.count
    passes = dp._demand_passes(problem)
    idx = np.indices((n,) * m)
    for k in range(problem.horizon.periods - 1, -1, -1):
        u = table[k]
        post = tuple(idx[i] + u[..., i] for i in range(m))
        w = stage(u, post) + dp._expectation(w, passes)[post]
    return w


def reference_stage_cost(problem, u, post, eh):
    cost = problem.ordering.eval_array(u.sum(axis=-1) * problem.grid.step)
    for i in range(problem.m):
        cost = cost + eh[i][post[i]]
    return cost


def reference_evaluation(problem, policy):
    """``evaluate_policy_exact`` and the fields of ``exact_expectations``
    (cost, orders, final levels, clamp) through ``reference_recursion``."""
    table = dp._order_table(problem, policy)
    grid, m, n = problem.grid, problem.m, problem.grid.count
    periods = problem.horizon.periods
    eh = dp._expected_holding_tables(problem)
    cost = reference_recursion(problem, table,
                               lambda u, post: reference_stage_cost(problem, u, post, eh),
                               np.zeros((n,) * m)) / periods
    ec = [expected_holding_backlog(0.0, 1.0, grid.step * np.arange(n), problem.demand, i)
          for i in range(m)]
    zeros = np.zeros((n,) * m)

    def stage(u, post):
        return np.stack([reference_stage_cost(problem, u, post, eh), u.sum(axis=-1) * grid.step]
                        + [zeros] * m + [ec[i][post[i]] for i in range(m)], axis=-1)

    w = np.zeros((n,) * m + (2 + 2 * m,))
    w[..., 2:2 + m] = grid.states(m).reshape((n,) * m + (m,))
    w = reference_recursion(problem, table, stage, w)
    return cost, (w[..., 0] / periods, w[..., 1], w[..., 2:2 + m], w[..., 2 + m:])


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def assert_matches_reference(problem, policy):
    cost, fields = reference_evaluation(problem, policy)
    assert_bits_equal(mi.evaluate_policy_exact(problem, policy), cost)
    ex = dp.exact_expectations(problem, policy)
    for got, want in zip((ex.cost, ex.orders, ex.final_level, ex.clamp), fields):
        assert_bits_equal(got, want)


def oracle_problems():
    named = {name: mi.instances.build(name)
             for name in ("fig1_linear", "fig1_nonlinear", "sector_sim", "affine_sim")}
    named["sector_sim_m3"] = sector_three_locations(1)
    named["sector_sim_m3_2024"] = sector_three_locations(2024)
    return named


ORACLE_PROBLEMS = oracle_problems()


@functools.lru_cache(maxsize=None)
def oracle_policy(name, kind):
    """The DP optimum, pi_square (l = 2), pi_diamond (the instance's
    defaults, else K_h = 1, h = 2) or a random feasible order table."""
    p = ORACLE_PROBLEMS[name]
    if kind == "optimum":
        return mi.TabularGridPolicy(mi.solve_joint_dp(p)[1])
    if kind == "pi_square":
        return mi.make_pi_square(p, 2.0)
    if kind == "pi_diamond":
        return mi.make_pi_diamond(p, *mi.instances.DIAMOND_DEFAULTS.get(name, (1.0, 2.0)))
    return table_policy(p, random_order_table(p, np.random.default_rng(11)))


class TestPolicyRecursionOracle:
    """The flat-cell recursion bit for bit against a copy of the per-stage
    recursion it replaced."""

    @pytest.mark.parametrize("kind", ["optimum", "pi_square", "pi_diamond", "random"])
    @pytest.mark.parametrize("name", list(ORACLE_PROBLEMS))
    def test_instances(self, name, kind):
        assert_matches_reference(ORACLE_PROBLEMS[name], oracle_policy(name, kind))

    @settings(max_examples=40, deadline=None)
    @given(problem=dp_problems(), seed=hs.integers(0, 2 ** 32 - 1))
    def test_random_problems(self, problem, seed):
        policies = [mi.TabularGridPolicy(mi.solve_joint_dp(problem)[1]),
                    table_policy(problem, random_order_table(problem,
                                                             np.random.default_rng(seed)))]
        # a single-location optimum need not be base-stock or (s,S) under
        # the order cap; such a decoupled policy does not exist
        for make in (lambda: mi.make_pi_square(problem, 2.0),
                     lambda: mi.make_pi_diamond(problem, 1.0, 2.0)):
            try:
                policies.append(make())
            except StructureError:
                pass
        for policy in policies:
            assert_matches_reference(problem, policy)

    @pytest.mark.parametrize("evaluate", [mi.evaluate_policy_exact, dp.exact_expectations],
                             ids=["evaluate", "expectations"])
    @pytest.mark.parametrize("state, order, message", [
        ((0, 0), -1, "order table contains negative orders"),
        ((6, 0), 1, "order table leaves the grid box or exceeds the order cap"),
        ((0, 0), 5, "order table leaves the grid box or exceeds the order cap"),
    ], ids=["negative", "off_box", "over_cap"])
    def test_infeasible_tables_keep_their_messages(self, fig1_linear, evaluate,
                                                   state, order, message):
        # fig1: seven grid points and an order cap of four steps; location
        # 1 orders from state (0, 0) or from the grid's top (6, 0)
        p, _, tab = fig1_linear
        table = tab.orders.copy()
        table[1][state + (0,)] = order
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(p, table_policy(p, table))


class TestStructureExtraction:
    def grid7(self):
        return Grid(-2.0, 4.0, 1.0)

    def policy_from_orders(self, u):
        u = np.asarray(u, dtype=np.int32)
        return TabularPolicy(grid=self.grid7(), m=1,
                             orders=u.reshape(1, -1, 1), cap_steps=100)

    def test_base_stock_by_construction(self):
        pts = self.grid7().points()
        u = np.maximum(1.0 - pts, 0).astype(int)
        assert extract_base_stock(self.policy_from_orders(u), 0) == 1.0

    def test_dp_output_is_base_stock(self, fig1_linear):
        p, _, _ = fig1_linear
        sub = single_location_problem(p, 0)
        _, tab = mi.solve_joint_dp(sub)
        assert extract_base_stock(tab, 0) == 1.0

    def test_jump_breaks_structure(self):
        policy = TabularPolicy(grid=Grid(0.0, 1.0, 1.0), m=1,
                               orders=np.array([[[2], [0]]], dtype=np.int32),
                               cap_steps=100)
        with pytest.raises(StructureError):
            extract_base_stock(policy, 0)

    def test_base_stock_is_degenerate_ss(self):
        pts = self.grid7().points()
        u = np.maximum(1.0 - pts, 0).astype(int)
        assert extract_sS(self.policy_from_orders(u), 0) == (1.0, 1.0)

    def test_fixed_charge_dp_yields_ss(self):
        p = single_problem(mi.affine_cost(4.0, 2.0), DiscreteMarginal(
            (0.0, 0.5, 1.0, 1.5), (0.125, 0.375, 0.375, 0.125)),
            periods=3, grid=Grid(-2.0, 8.0, 0.5), cap=10.0)
        _, tab = mi.solve_joint_dp(p)
        for k in range(3):
            s, S = extract_sS(tab, k)
            assert s <= S

    def test_ss_table_with_gap_is_not_base_stock(self):
        # below s = 0 order up to S = 2; the base-stock scan fails at s
        policy = self.policy_from_orders([4, 3, 0, 0, 0, 0, 0])
        assert extract_sS(policy, 0) == (0.0, 2.0)
        with pytest.raises(StructureError, match="not base-stock") as info:
            extract_base_stock(policy, 0)
        assert info.value.state == 0.0

    def test_non_monotone_table_rejected(self):
        u = np.array([3, 0, 1, 0, 0, 0, 0])
        with pytest.raises(StructureError):
            extract_sS(self.policy_from_orders(u), 0)

    def test_never_ordering_conventions(self):
        u = np.zeros(7, dtype=int)
        policy = self.policy_from_orders(u)
        assert extract_base_stock(policy, 0) == -2.0
        assert extract_sS(policy, 0) == (-2.0, -2.0)

    def test_truncated_base_stock_accepted(self):
        # cap 2 truncates the order-up-to-1 policy at the grid floor
        pts = self.grid7().points()
        u = np.minimum(np.maximum(1.0 - pts, 0), 2).astype(int)
        policy = TabularPolicy(grid=self.grid7(), m=1,
                               orders=u.reshape(1, -1, 1), cap_steps=2)
        assert extract_base_stock(policy, 0) == 1.0

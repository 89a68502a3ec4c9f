from dataclasses import replace

import functools
import itertools
import math

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
                           affine_cost, demand_pmf, linear_cost,
                           single_location_problem)
from multinv.testing import (brute_force_policy_cost, brute_force_values,
                             random_order_table, random_small_problem)


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
        vf, tab = mi.solve_single_dp(p)
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
        _, tab = mi.solve_single_dp(p)
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
        vf1, _ = mi.solve_single_dp(sub)
        v1 = vf1.values[0]
        joint = vf.values[0]
        split = v1[:, None] + v1[None, :]
        assert np.max(np.abs(joint - split)) <= 1e-9

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
    """The expectation that the edge-padded views replaced: each joint
    demand outcome gathers w at the clamped next state with np.ix_, in
    the same outcome order and with the same probabilities."""
    n = problem.grid.count
    per_loc = []
    for i in range(problem.m):
        values, probs = demand_pmf(problem.demand, i)
        per_loc.append([(np.maximum(np.arange(n) - problem.grid.to_steps(v), 0), p)
                        for v, p in zip(values, probs)])
    ev = np.zeros_like(w)
    for combo in itertools.product(*per_loc):
        ev += float(np.prod([c[1] for c in combo])) * w[np.ix_(*(c[0] for c in combo))]
    return ev


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
    m = draw(hs.integers(1, 3))
    step = draw(hs.sampled_from([0.5, 1.0]))
    count = draw(hs.integers(2, 6))
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
    """The action-major scan against the per-state loop it replaced."""

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


@hs.composite
def expectation_cases(draw):
    # demand atoms from 0 (no shift) up to twice the grid (shifts >= n),
    # with or without the 2 + 2M trailing quantities of exact_expectations
    m = draw(hs.integers(1, 3))
    count = draw(hs.integers(2, 7))
    marginals = []
    for _ in range(m):
        steps = draw(hs.lists(hs.integers(0, 2 * count), min_size=1, max_size=4, unique=True))
        weights = draw(hs.lists(hs.integers(1, 9), min_size=len(steps), max_size=len(steps)))
        marginals.append(DiscreteMarginal(tuple(float(v) for v in steps),
                                          tuple(w / sum(weights) for w in weights)))
    shape = (count,) * m + ((2 + 2 * m,) if draw(hs.booleans()) else ())
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    return expectation_problem(marginals, count), random_table(rng, shape)


class TestExpectationViews:
    """dp._expectation (slice views of one edge-padded copy) against the
    np.ix_ gather it replaced, bit for bit."""

    def assert_same(self, problem, w):
        ev = dp._expectation(w, dp._joint_demand(problem))
        assert np.array_equal(ev, gather_expectation(problem, w))

    @settings(max_examples=150, deadline=None)
    @given(case=expectation_cases())
    def test_random_tables(self, case):
        self.assert_same(*case)

    # zero demand only (pad width 0), every shift >= n, and a mix of both
    @pytest.mark.parametrize("steps", [(0.0,), (5.0, 9.0), (0.0, 2.0, 6.0)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("trailing", [False, True])
    def test_edge_shifts(self, steps, m, trailing):
        probs = tuple(np.full(len(steps), 1.0 / len(steps)))
        p = expectation_problem([DiscreteMarginal(steps, probs)] * m, 4)
        rng = np.random.default_rng(len(steps) * 10 + m)
        self.assert_same(p, random_table(rng, (4,) * m + ((2 + 2 * m,) if trailing else ())))


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
        # non-optimal tables; each expectation of the one recursion is a
        # scenario-tree cost: total orders under c(z) = z and no holding,
        # and location i's floor clamp as its backlog at rate 1 on the
        # same grid shifted to start at 0
        rng = np.random.default_rng(47)
        for _ in range(6):
            p = random_small_problem(rng)
            table = random_order_table(p, rng)
            policy = mi.TabularGridPolicy(TabularPolicy(
                grid=p.grid, m=p.m, orders=table,
                cap_steps=p.grid.to_steps(p.max_order_per_location)))
            periods = p.horizon.periods
            brute = brute_force_policy_cost(p, table) / periods
            assert np.max(np.abs(mi.evaluate_policy_exact(p, policy) - brute)) <= 1e-12
            ex = mi.dp.exact_expectations(p, policy)
            assert np.max(np.abs(ex.cost - brute)) <= 1e-12
            zeros = (0.0,) * p.m
            counted = replace(p, ordering=linear_cost(1.0),
                              holding=HoldingBacklogCost(zeros, zeros))
            assert np.max(np.abs(ex.orders
                                 - brute_force_policy_cost(counted, table))) <= 1e-12
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
        _, tab = mi.solve_single_dp(sub)
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
        _, tab = mi.solve_single_dp(p)
        for k in range(3):
            s, S = extract_sS(tab, k)
            assert s <= S

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

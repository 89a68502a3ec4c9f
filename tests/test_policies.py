from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv.model import single_location_problem
from multinv.policies import (BaseStockPolicy, DecoupledPolicy, GridTabulationError,
                              Policy, SSPolicy, _sorted_columns, _waterfill)
from multinv.testing import sector_three_locations
from multinv import rng

TIGHT = "tightness:M=2,eps=0.1,l=1,h=4,p=100"


@pytest.fixture(scope="module")
def fig1():
    return mi.instances.build("fig1_linear")


class TestActInterface:
    def test_base_stock_orders_up_to_level(self, fig1):
        policy = BaseStockPolicy(np.array([1.0, 1.0]))
        assert np.array_equal(policy.act(fig1, 0, [0.0, 2.0]), [1.0, 0.0])

    def test_ss_waits_above_reorder_point(self):
        p = mi.instances.build("sector_sim")
        policy = SSPolicy(np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        assert np.array_equal(policy.act(p, 0, [1.0, 1.0]), [0.0, 0.0])
        assert np.array_equal(policy.act(p, 3, [0.0, 3.0]), [2.0, 0.0])

    def test_decoupled_single_location_optima(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        assert np.array_equal(policy.act(fig1, 0, [0.0, 0.0]), [1.0, 1.0])

    def test_feasibility_and_truncation(self, fig1):
        policy = BaseStockPolicy(np.array([100.0, 100.0]))
        u = policy.act(fig1, 0, [0.0, 3.0])
        assert np.array_equal(u, [4.0, 1.0])  # order cap, then grid ceiling
        assert np.all(u >= 0)

    def test_determinism_ignores_stream(self, fig1):
        policy = BaseStockPolicy(np.array([1.0, 1.0]))
        a = policy.act(fig1, 0, [0.0, 0.0], rng.stream(1).random(2))
        b = policy.act(fig1, 0, [0.0, 0.0], rng.stream(2).random(2))
        assert np.array_equal(a, b)

    def test_randomized_act_is_a_row_of_act_batch(self):
        p = mi.instances.build("affine_sim")
        policy = mi.make_balancing_policy(p, variant="cumulative")
        X = p.grid.states(p.m)
        U = rng.stream(4, "act").random(X.shape)
        for k in (0, p.periods - 1):
            batch = policy.act_batch(p, k, X, U)
            # the uniforms pick the order: the randomized branch is taken
            assert not np.array_equal(batch, policy.act_batch(p, k, X, np.ones_like(U)))
            for x, u, want in zip(X, U, batch):
                assert policy.act(p, k, x, u).tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            policy.act(p, 0, X[0])

    def test_decoupled_composition_is_componentwise(self, fig1):
        comp0 = BaseStockPolicy(np.array([[1.0], [0.0]]))
        comp1 = SSPolicy(np.array([[0.0], [0.0]]), np.array([[2.0], [1.0]]))
        policy = DecoupledPolicy([comp0, comp1])
        for k in range(2):
            for x in ([0.0, -1.0], [2.0, 0.5], [-2.0, 4.0]):
                joint = policy.act(fig1, k, x)
                assert joint[0] == comp0.act(fig1, k, [x[0]])[0]
                assert joint[1] == comp1.act(fig1, k, [x[1]])[0]

    @pytest.mark.parametrize("x", [[8.5, 0.0], [-2.5, 0.0], [0.0, np.nan]],
                             ids=["above", "below", "nan"])
    def test_one_state_outside_the_grid_box_raises(self, x):
        # sector_sim's grid is [-2, 8]: above the top, order_cap is
        # negative and act_batch would order -0.5
        p = mi.instances.build("sector_sim")
        with pytest.raises(ValueError, match=r"state \[.*\] has a level outside the grid box"):
            BaseStockPolicy([9.0, 9.0]).act(p, 0, x)

    def test_stage_out_of_range(self, fig1):
        policy = BaseStockPolicy(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(IndexError):
            policy.act(fig1, 2, [0.0, 0.0])

    def test_ss_requires_s_below_big_s(self):
        with pytest.raises(ValueError):
            SSPolicy(np.array([2.0]), np.array([1.0]))

    @pytest.mark.parametrize("make", [
        lambda: BaseStockPolicy(np.array([np.nan, 1.0])),
        lambda: BaseStockPolicy(np.array([[1.0], [np.inf]])),
        lambda: SSPolicy(np.array([np.nan]), np.array([1.0])),
        lambda: SSPolicy(np.array([0.0]), np.array([np.inf])),
        lambda: mi.ExplicitVPolicy((2.0, np.nan), 2.2),
        lambda: mi.ExplicitVPolicy((2.0, np.inf), 2.2),
        lambda: mi.ExplicitVPolicy((2.0, 2.2), np.nan),
    ], ids=["S-nan", "S-inf", "sS-s-nan", "sS-S-inf", "v-nan", "v-inf", "threshold-nan"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestMakePiSquare:
    def test_unit_level_on_small_instance(self, fig1):
        policy = mi.make_pi_square(fig1, 2.0)
        for comp in policy.components:
            assert np.array_equal(comp.levels, [[1.0], [1.0]])

    def test_volume_discount_instance_levels_on_grid(self):
        p = mi.instances.build("sector_sim")
        policy = mi.make_pi_square(p, 2.0)
        for comp in policy.components:
            levels = comp.levels.ravel()
            assert set(levels) <= set(p.grid.points())
            assert len(levels) == 20

    def test_zero_demand_never_orders_from_nonnegative(self):
        from dataclasses import replace
        from multinv.model import DemandModel, DiscreteMarginal
        p = mi.instances.build("fig1_linear")
        q = replace(p, demand=DemandModel(
            marginals=(DiscreteMarginal((0.0,), (1.0,)),) * 2))
        policy = mi.make_pi_square(q, 2.0)
        for x in ([0.0, 0.0], [2.0, 1.0]):
            assert np.array_equal(policy.act(q, 0, x), [0.0, 0.0])


class TestMakePiDiamond:
    def test_no_fixed_charge_reduces_to_base_stock(self, fig1):
        policy = mi.make_pi_diamond(fig1, 0.0, 2.0)
        for comp in policy.components:
            assert np.array_equal(comp.small_s, comp.big_s)

    def test_prohibitive_fixed_charge_never_orders(self, fig1):
        policy = mi.make_pi_diamond(fig1, 1e6, 2.0)
        pts = fig1.grid.points()
        for x1 in pts:
            for x2 in pts:
                assert np.array_equal(policy.act(fig1, 0, [x1, x2]), [0.0, 0.0])

    def test_reproduction_parameters_give_valid_ss(self):
        p = mi.instances.build("affine_sim")
        Kh, h = mi.instances.DIAMOND_DEFAULTS["affine_sim"]
        policy = mi.make_pi_diamond(p, Kh, h)
        for comp in policy.components:
            assert np.all(comp.small_s <= comp.big_s)


class TestExplicitV:
    def build(self):
        p = mi.instances.build(TIGHT)
        d = mi.instances.policy_defaults(TIGHT)["pi_v"]
        return p, mi.make_pi_v(d["m"], d["delta"])

    def test_equal_split_from_empty(self):
        policy = mi.make_pi_v(2, 0.1)
        p = mi.instances.build("tightness:M=2,eps=0.3,l=1,h=4,p=100")
        # eps=0.3 with l=1 gives delta exactly 0.1
        u = policy.act(p, 0, [0.0, 0.0])
        assert u.sum() == pytest.approx(2.2, abs=1e-12)
        assert np.allclose(np.array([0.0, 0.0]) + u, [1.1, 1.1])

    def test_above_threshold_orders_nothing(self):
        p, policy = self.build()
        assert np.array_equal(policy.act(p, 0, [2.0, 2.0]), [0.0, 0.0])

    def test_waterfill_when_equal_split_infeasible(self):
        policy = mi.make_pi_v(2, 0.1)
        p = mi.instances.build("tightness:M=2,eps=0.3,l=1,h=4,p=100")
        u = policy.act(p, 0, [2.0, 0.0])
        # the smallest size reaching the threshold is 2; raising the lower
        # location to the common level consumes exactly that
        assert u.sum() == pytest.approx(2.0, abs=1e-12)
        assert np.allclose([2.0, 0.0] + u, [2.0, 2.0])
        assert np.all(u >= 0)

    def test_post_order_levels_equal_and_total_meets_threshold(self):
        p, policy = self.build()
        threshold = policy.threshold
        stream = rng.stream(17)
        for _ in range(50):
            x = stream.uniform(0.0, 0.4, size=2)
            u = policy.act(p, 0, x)
            post = x + u
            assert post.sum() >= threshold - 1e-12
            assert abs(post[0] - post[1]) <= 1e-12

    def test_exact_order_sizes_hit_discounted_prices(self):
        p, policy = self.build()
        u = policy.act(p, 0, [0.0, 0.0])
        total = float(u[0] + u[1])
        h = 4.0
        assert p.ordering(total) < h * total  # discounted, not the h price

    def test_requires_matching_instance(self, fig1):
        policy = mi.make_pi_v(2, 0.1)
        with pytest.raises(ValueError):
            policy.act(fig1, 0, [0.0, 0.0])

    def test_partial_nan_row_orders_nan_everywhere(self):
        p = mi.instances.build("tightness:M=3,eps=0.1,l=1,h=4,p=100")
        d = mi.instances.policy_defaults("tightness:M=3,eps=0.1,l=1,h=4,p=100")["pi_v"]
        policy = mi.make_pi_v(d["m"], d["delta"])
        X = np.array([[0.0, np.nan, 1.0], [0.0, 0.5, 1.0]])
        u = policy.act_batch(p, 0, X, None)
        assert np.all(np.isnan(u[0]))
        assert u[1].tobytes() == policy.act_batch(p, 0, X[1:], None)[0].tobytes()

    def test_exact_evaluation_rejected_off_grid(self):
        p, policy = self.build()
        with pytest.raises(ValueError):
            policy.tabulate(p)



def tabulation_problems():
    named = {name: mi.instances.build(name) for name in
             ("fig1_linear", "fig1_nonlinear", "sector_sim", "affine_sim", "transform_check")}
    named["sector_sim_m3"] = sector_three_locations()
    return named


TABULATION_PROBLEMS = tabulation_problems()


def assert_generic_table(policy, problem):
    """The decoupled override's table is the generic method's, byte for
    byte."""
    got, want = policy.tabulate(problem), Policy.tabulate(policy, problem)
    assert got.shape == want.shape and got.dtype == want.dtype == np.int32
    assert got.tobytes() == want.tobytes()


def generic_error(policy, problem):
    with pytest.raises(ValueError) as generic:
        Policy.tabulate(policy, problem)
    return generic.type, str(generic.value)


class TestDecoupledTabulation:
    """``DecoupledPolicy.tabulate``, one location at a time, against the
    generic ``Policy.tabulate`` over every joint state."""

    @pytest.mark.parametrize("name", list(TABULATION_PROBLEMS))
    def test_pi_square_and_pi_diamond(self, name):
        p = TABULATION_PROBLEMS[name]
        assert_generic_table(mi.make_pi_square(p, 2.0), p)
        kh, h = mi.instances.DIAMOND_DEFAULTS.get(name, (1.0, 2.0))
        assert_generic_table(mi.make_pi_diamond(p, kh, h), p)

    def test_mixed_stationary_and_stage_indexed_components(self, fig1):
        # levels below the floor, inside and above the top (truncated)
        assert_generic_table(DecoupledPolicy([
            SSPolicy(np.array([0.0]), np.array([2.0])),
            BaseStockPolicy(np.array([[100.0], [-5.0]]))]), fig1)
        p = TABULATION_PROBLEMS["sector_sim_m3"]
        stages = np.arange(p.periods, dtype=float)[:, None]
        assert_generic_table(DecoupledPolicy([
            BaseStockPolicy(np.array([3.0])),
            SSPolicy(stages / 2 - 1.0, stages + 1.5),
            BaseStockPolicy(9.0 - stages * 2.5)]), p)

    def test_components_act_on_their_own_grid_points(self):
        shapes = []

        class Recording(BaseStockPolicy):
            def act_batch(self, problem, k, X, uniforms):
                shapes.append(X.shape)
                return super().act_batch(problem, k, X, uniforms)

        p = TABULATION_PROBLEMS["sector_sim_m3"]
        DecoupledPolicy([Recording(np.array([1.0]))] * 3).tabulate(p)
        assert shapes == [(p.grid.count, 1)] * (3 * p.periods)

    def test_off_grid_order_raises_as_generic(self):
        p = mi.instances.build("sector_sim")  # grid step 0.5
        policy = DecoupledPolicy([BaseStockPolicy(np.array([1.0])),
                                  BaseStockPolicy(np.array([0.25]))])
        with pytest.raises(GridTabulationError) as err:
            policy.tabulate(p)
        assert generic_error(policy, p) == (GridTabulationError, str(err.value))

    def test_randomized_component_raises_as_generic(self):
        p = mi.instances.build("affine_sim")
        coin = mi.make_balancing_policy(single_location_problem(p, 0), variant="cumulative")
        policy = DecoupledPolicy([BaseStockPolicy(np.array([1.0])), coin])
        with pytest.raises(ValueError, match="randomized") as err:
            policy.tabulate(p)
        assert generic_error(policy, p) == (ValueError, str(err.value))

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_component_count_raises_as_generic(self, fig1, count):
        policy = DecoupledPolicy([BaseStockPolicy(np.array([1.0]))] * count)
        with pytest.raises(ValueError, match="component count") as err:
            policy.tabulate(fig1)
        assert generic_error(policy, fig1) == (ValueError, str(err.value))


def waterfill_inputs(m, seed, ties):
    """Levels on [-4, 4] (whole numbers when ``ties``, so rows repeat
    values), signed zeros included, and order totals with zeros."""
    gen = np.random.default_rng(seed)
    X = gen.uniform(-4.0, 4.0, (64, m))
    if ties:
        X = np.round(X)
    X[gen.random(X.shape) < 0.1] = -0.0
    v = gen.choice([0.0, 0.5, 1.0, 2.0 + 1e-3, 7.0, 30.0], 64)
    return X, v


class TestWaterfill:
    @settings(max_examples=100, deadline=None)
    @given(m=hs.integers(1, 6), seed=hs.integers(0, 2 ** 32 - 1), ties=hs.booleans())
    def test_zero_total_orders_positive_zero(self, m, seed, ties):
        X, _ = waterfill_inputs(m, seed, ties)
        u = _waterfill(X, np.zeros(X.shape[0]))
        assert np.all(u == 0.0) and not np.any(np.signbit(u))

    @settings(max_examples=100, deadline=None)
    @given(m=hs.integers(1, 6), seed=hs.integers(0, 2 ** 32 - 1), ties=hs.booleans())
    def test_rows_sum_to_total(self, m, seed, ties):
        X, v = waterfill_inputs(m, seed, ties)
        u = _waterfill(X, v)
        assert np.all(u >= 0)
        assert np.allclose(u.sum(axis=1), v, rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(m=hs.integers(1, 6), seed=hs.integers(0, 2 ** 32 - 1), ties=hs.booleans())
    def test_equal_split_whenever_feasible(self, m, seed, ties):
        X, v = waterfill_inputs(m, seed, ties)
        level = (X.sum(axis=1) + v) / m
        feasible = level >= X.max(axis=1)
        u = _waterfill(X, v)
        assert np.allclose(u[feasible], level[feasible, None] - X[feasible],
                           rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(m=hs.integers(1, 6), seed=hs.integers(0, 2 ** 32 - 1), ties=hs.booleans())
    def test_column_sort_equals_row_sort(self, m, seed, ties):
        X, _ = waterfill_inputs(m, seed, ties)
        assert np.array_equal(np.column_stack(_sorted_columns(X)), np.sort(X, axis=1))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_partial_nan_row_orders_nan_everywhere(self, m):
        # one NaN level, at each position and of either sign, leaves the
        # row's common level undefined; the other rows are untouched
        X, v = waterfill_inputs(m, m, False)
        for j in range(m):
            X[j, j] = np.copysign(np.nan, -1.0) if j % 2 else np.nan
        X[m, :m - 1] = np.nan
        nan_rows = np.isnan(X).any(axis=1)
        u = _waterfill(X, v)
        assert np.all(np.isnan(u[nan_rows]))
        assert u[~nan_rows].tobytes() == _waterfill(X[~nan_rows], v[~nan_rows]).tobytes()


def round_trip_cases():
    """(name, problem, policy) of every kind ``policy_from_config``
    rebuilds, each on a problem it acts on."""
    affine = mi.instances.build("affine_sim")
    tight = mi.instances.build(TIGHT)
    gen = np.random.default_rng(3)
    small = gen.uniform(-1.0, 2.0, (affine.periods, 2))
    d = mi.instances.policy_defaults(TIGHT)["pi_v"]
    return [
        ("base_stock", affine, BaseStockPolicy(gen.uniform(0.0, 4.0, (affine.periods, 2)))),
        ("sS", affine, SSPolicy(small, small + gen.uniform(0.0, 3.0, small.shape))),
        ("pi_square", affine, mi.make_pi_square(affine, 2.0)),
        ("pi_diamond", affine, mi.make_pi_diamond(affine, 16.0 / 3.0, 4.0 / 3.0)),
        ("pi_v", tight, mi.make_pi_v(d["m"], d["delta"])),
        ("balancing printed", affine, mi.make_balancing_policy(affine, variant="printed")),
        ("balancing cumulative", affine,
         mi.make_balancing_policy(affine, variant="cumulative")),
    ]


def one_parameter_pairs():
    """(name, problem, a, b): policies of one kind that differ in one
    parameter, each pair on a problem they act on."""
    affine = mi.instances.build("affine_sim")
    tight = mi.instances.build(TIGHT)
    pi_v = mi.make_pi_v(**mi.instances.policy_defaults(TIGHT)["pi_v"])
    table = mi.solve_joint_dp(affine)[1]
    edited = replace(table, orders=table.orders.copy())
    edited.orders[3, 10, 10, 0] += 1
    s, S = np.array([0.5, 0.5]), np.array([2.0, 2.0])
    return [
        ("base_stock", affine, BaseStockPolicy([1.0, 1.5]), BaseStockPolicy([1.0, 2.0])),
        ("sS small_s", affine, SSPolicy(s, S), SSPolicy([0.5, 1.0], S)),
        ("sS big_s", affine, SSPolicy(s, S), SSPolicy(s, [2.0, 2.5])),
        ("pi_square l", affine, mi.make_pi_square(affine, 1.0), mi.make_pi_square(affine, 3.0)),
        ("pi_diamond K_h", affine, mi.make_pi_diamond(affine, 4.0, 1.0),
         mi.make_pi_diamond(affine, 6.4, 1.0)),
        ("pi_diamond h", affine, mi.make_pi_diamond(affine, 4.0, 1.0),
         mi.make_pi_diamond(affine, 4.0, 1.6)),
        ("pi_v threshold", tight, pi_v,
         mi.ExplicitVPolicy(pi_v.v_values, pi_v.threshold + 1.0)),
        ("balancing K", affine, mi.make_balancing_policy(affine, K=4.0, variant="cumulative"),
         mi.make_balancing_policy(affine, K=2.0, variant="cumulative")),
        ("balancing variant", affine, mi.make_balancing_policy(affine, variant="printed"),
         mi.make_balancing_policy(affine, variant="cumulative")),
        ("tabular entry", affine, mi.TabularGridPolicy(table), mi.TabularGridPolicy(edited)),
    ]


class TestDistinctTags:
    @pytest.mark.parametrize("case", one_parameter_pairs(), ids=lambda c: c[0])
    def test_policies_that_act_apart_have_distinct_tags(self, case):
        # tags key every random stream, and ratio_heatmap reads equal tags
        # as one policy: a pair ordering apart somewhere must not share one
        _, problem, a, b = case
        X = problem.grid.states(problem.m)
        U = np.random.default_rng(0).random(X.shape)
        assert any(not np.array_equal(a.act_batch(problem, k, X, U),
                                      b.act_batch(problem, k, X, U))
                   for k in range(problem.periods))
        assert a.tag != b.tag


class TestSerialization:
    @pytest.mark.parametrize("case", round_trip_cases(), ids=lambda c: c[0])
    def test_rebuilt_policy_acts_alike(self, case):
        # the same tag and the same order bytes at every grid state and stage
        from multinv.config import policy_from_config
        _, problem, policy = case
        clone = policy_from_config(policy.to_config(), problem)
        assert type(clone) is type(policy) and clone.tag == policy.tag
        X = problem.grid.states(problem.m)
        gen = np.random.default_rng(0)
        for k in range(problem.periods):
            U = gen.random(X.shape) if policy.uses_randomness else None
            got = clone.act_batch(problem, k, X, U)
            assert got.tobytes() == policy.act_batch(problem, k, X, U).tobytes(), k

    def test_round_trip_through_config(self, fig1):
        from multinv.config import policy_from_config
        policies = [
            BaseStockPolicy(np.array([1.0, 1.5])),
            SSPolicy(np.array([0.5, 0.5]), np.array([2.0, 2.0])),
            mi.make_pi_square(fig1, 2.0),
            mi.make_pi_v(2, 0.05),
            mi.make_balancing_policy(fig1, K=1.0, variant="cumulative"),
        ]
        for policy in policies:
            clone = policy_from_config(policy.to_config(), fig1)
            assert clone.to_config() == policy.to_config()
            assert clone.tag == policy.tag

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv.balancing import VARIANTS, BalancingPolicy, BalancingState
from multinv.model import DiscreteMarginal, single_location_problem
from multinv.policies import (BaseStockPolicy, DecoupledPolicy, GridTabulationError,
                              ParameterError, Policy, SSPolicy, _sorted_columns, _waterfill)
from multinv.testing import sector_three_locations
from multinv import rng

TIGHT = "tightness:M=2,eps=0.1,l=1,h=4,p=100"
FIG2 = DiscreteMarginal((0.0, 0.5, 1.0, 1.5), (0.125, 0.375, 0.375, 0.125))


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("decoupled", [False, True], ids=["generic", "decoupled"])
    def test_non_finite_order_raises_before_the_cast(self, bad, decoupled):
        # a NaN order used to pass the rounding test and tabulate to
        # -2147483648, with a RuntimeWarning from the int32 cast
        class Broken(BaseStockPolicy):
            def act_batch(self, problem, k, X, uniforms):
                orders = super().act_batch(problem, k, X, uniforms)
                orders[-1, 0] = bad
                return orders

        p = mi.instances.build("sector_sim")
        policy = (DecoupledPolicy([Broken(np.array([1.0])), BaseStockPolicy(np.array([1.0]))])
                  if decoupled else Broken(np.array([1.0, 1.0])))
        with pytest.raises(GridTabulationError, match="orders leave the grid"):
            policy.tabulate(p)

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

    @pytest.mark.parametrize("cfg, where", [
        ({"kind": "balancing", "fixed_charge": True, "variant": "printed"}, "fixed_charge"),
        ({"kind": "balancing", "fixed_charge": 4.0, "variant": "printed", "periods": True},
         "periods"),
        ({"kind": "balancing", "fixed_charge": 4.0, "variant": "printed",
          "holding": [0.2, "0.2"]}, "holding[1]"),
        ({"kind": "base_stock", "levels": ["1", "2"]}, "levels[0]"),
        ({"kind": "base_stock", "levels": [[1.0, 2.0], [1.0, False]]}, "levels[1][1]"),
        ({"kind": "sS", "small_s": [True, 0], "big_s": [2.0, 2.0]}, "small_s[0]"),
        ({"kind": "sS", "small_s": [0.0, 0.0], "big_s": None}, "big_s"),
        ({"kind": "decoupled", "components": [{"kind": "base_stock", "levels": [1.0]},
                                              {"kind": "base_stock", "levels": [None]}]},
         "components[1].levels[0]"),
        ({"kind": "pi_v", "v_values": ["2", 2.2], "threshold": 1.0}, "v_values[0]"),
        ({"kind": "pi_v", "v_values": [2.0, 2.2], "threshold": "1"}, "threshold"),
    ])
    def test_non_number_field_raises_naming_it(self, cfg, where):
        # a bool or a numeric string used to be read as a number: a
        # fixed_charge of true built K = True, whose tag differs from K = 1.0's
        from multinv.config import policy_from_config
        with pytest.raises(ValueError, match=re.escape(f"config: field {where!r} must be "
                                                       "a number, got")):
            policy_from_config(cfg, mi.instances.build("affine_sim"))

    def test_null_fixed_charge_is_the_cost_jump(self):
        from multinv.config import policy_from_config
        affine = mi.instances.build("affine_sim")
        clone = policy_from_config({"kind": "balancing", "fixed_charge": None,
                                    "variant": "printed"}, affine)
        assert clone.tag == mi.make_balancing_policy(affine, variant="printed").tag

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


def int_or_float(lo, hi):
    """A whole number in [lo, hi], drawn as an int or as a float."""
    return hs.integers(lo, hi).flatmap(lambda v: hs.sampled_from([v, float(v)]))


@hs.composite
def serialized_policies(draw):
    """(problem, policy) of every kind ``policy_from_config`` rebuilds,
    with parameters given as ints, floats or a mix of both."""
    affine = mi.instances.build("affine_sim")
    kind = draw(hs.sampled_from(["base_stock", "sS", "decoupled", "pi_v", "balancing"]))
    if kind == "pi_v":
        tight = mi.instances.build(TIGHT)
        d = mi.instances.policy_defaults(TIGHT)["pi_v"]
        sizes = draw(hs.sampled_from([[d["m"]], [d["m"], d["m"] * (1.0 + d["delta"])]]))
        sizes = [draw(hs.sampled_from([v, float(v)])) if float(v).is_integer() else v
                 for v in sizes]
        return tight, mi.ExplicitVPolicy(sizes, draw(int_or_float(0, 6)))
    if kind == "balancing":
        return affine, mi.make_balancing_policy(affine, K=draw(int_or_float(0, 6)),
                                                variant=draw(hs.sampled_from(VARIANTS)))

    def single(kind, m):
        s = draw(hs.lists(int_or_float(-2, 4), min_size=m, max_size=m))
        if kind == "base_stock":
            return BaseStockPolicy(s)
        return SSPolicy(s, [v + draw(int_or_float(0, 3)) for v in s])

    if kind == "decoupled":
        return affine, DecoupledPolicy(
            [single(draw(hs.sampled_from(["base_stock", "sS"])), 1) for _ in range(2)])
    return affine, single(kind, 2)


def floated(value):
    """A config with every int turned into a float."""
    if isinstance(value, dict):
        return {k: floated(v) for k, v in value.items()}
    if isinstance(value, list):
        return [floated(v) for v in value]
    return float(value) if type(value) is int else value


class TestParameterBoundary:
    """Each constructor decides what a valid parameter is; config passes
    its raw values on, and equal numbers give one tag."""

    @settings(max_examples=40, deadline=None)
    @given(case=serialized_policies())
    def test_property_round_trip_keeps_tag_and_orders(self, case):
        from multinv.config import policy_from_config
        problem, policy = case
        cfg = policy.to_config()
        clone = policy_from_config(cfg, problem)
        assert clone.tag == policy.tag
        assert policy_from_config(floated(cfg), problem).tag == policy.tag
        X = problem.grid.states(problem.m)
        U = np.random.default_rng(0).random(X.shape)
        for k in (0, problem.periods - 1):
            assert (clone.act_batch(problem, k, X, U).tobytes()
                    == policy.act_batch(problem, k, X, U).tobytes())

    @pytest.mark.parametrize("kind, as_int, as_float", [
        ("base_stock", lambda: BaseStockPolicy([1, 2]), lambda: BaseStockPolicy([1.0, 2.0])),
        ("sS", lambda: SSPolicy([0, 1], [2, 3]), lambda: SSPolicy([0.0, 1.0], [2.0, 3.0])),
        ("decoupled", lambda: DecoupledPolicy([BaseStockPolicy([1]), SSPolicy([0], [2])]),
         lambda: DecoupledPolicy([BaseStockPolicy([1.0]), SSPolicy([0.0], [2.0])])),
        ("pi_v", lambda: mi.ExplicitVPolicy([2, 3], 2), lambda: mi.ExplicitVPolicy([2.0, 3.0], 2.0)),
        ("balancing K", lambda: mi.make_balancing_policy(mi.instances.build("affine_sim"), K=1),
         lambda: mi.make_balancing_policy(mi.instances.build("affine_sim"), K=1.0)),
        ("balancing a, b, periods",
         lambda: BalancingPolicy([BalancingState(periods=20.0, a=1, b=10, K=4, marginal=FIG2)]),
         lambda: BalancingPolicy([BalancingState(periods=20, a=1.0, b=10.0, K=4.0,
                                                 marginal=FIG2)])),
    ])
    def test_int_and_float_parameters_give_one_tag(self, kind, as_int, as_float):
        assert as_int().tag == as_float().tag

    def test_fixed_charge_has_one_tag_on_every_path(self):
        # a config with "fixed_charge": 1 tagged balancing:886788b0b450 and
        # drew other streams than the CLI's balancing:K=1
        from multinv.cli import build_policy
        from multinv.config import policy_from_config
        affine = mi.instances.build("affine_sim")
        tags = {mi.make_balancing_policy(affine, K=K, variant="printed").tag for K in (1, 1.0)}
        tags |= {policy_from_config({"kind": "balancing", "fixed_charge": K,
                                     "variant": "printed"}, affine).tag for K in (1, 1.0)}
        tags.add(build_policy("balancing:K=1", affine, {}).tag)
        assert tags == {"balancing:51b4b5b4765b"}

    @pytest.mark.parametrize("field, make, wrong_dimension", [
        ("levels", lambda v: BaseStockPolicy(v), 1.0),
        ("small_s", lambda v: SSPolicy(v, [2.0, 2.0]), 1.0),
        ("big_s", lambda v: SSPolicy([0.0, 0.0], v), 2.0),
        ("v_values", lambda v: mi.ExplicitVPolicy(v, 2.0), 2.0),
        ("threshold", lambda v: mi.ExplicitVPolicy([2.0], v), [2.0]),
        ("holding", lambda v: BalancingState(periods=20, a=v, b=10.0, marginal=FIG2), [0.1]),
        ("backlog", lambda v: BalancingState(periods=20, a=0.1, b=v, marginal=FIG2), [10.0]),
        ("fixed_charge", lambda v: BalancingState(periods=20, a=0.1, b=10.0, K=v,
                                                  marginal=FIG2), [4.0]),
        ("periods", lambda v: BalancingState(periods=v, a=0.1, b=10.0, marginal=FIG2), [20]),
    ])
    @pytest.mark.parametrize("bad", ["bool", "string", "None", "dimension"])
    def test_constructor_refuses_a_non_number_naming_the_field(self, field, make,
                                                                wrong_dimension, bad):
        value = {"bool": True, "string": "1", "None": None, "dimension": wrong_dimension}[bad]
        with pytest.raises(ParameterError, match=re.escape(f"field {field!r} must be")) as err:
            make(value)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("make, where", [
        (lambda: BaseStockPolicy([[1.0, 2.0], [1.0, False]]), "levels[1][1]"),
        (lambda: SSPolicy(["0", 0.0], [2.0, 2.0]), "small_s[0]"),
        (lambda: SSPolicy(np.zeros(2), [2.0, None]), "big_s[1]"),
        (lambda: mi.ExplicitVPolicy((2.0, np.True_), 2.0), "v_values[1]"),
    ])
    def test_constructor_names_the_entry_at_fault(self, make, where):
        with pytest.raises(ValueError, match=re.escape(f"field {where!r} must be a number")):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: SSPolicy(1.0, 2.0), "field 'small_s' must be a list of numbers"),
        (lambda: BaseStockPolicy([[1.0, 2.0], [1.0]]), "field 'levels' must be a regular array"),
        (lambda: DecoupledPolicy(5), "field 'components' must be a list of policies, got 5"),
        (lambda: DecoupledPolicy([BaseStockPolicy([1.0]), 2]),
         "field 'components[1]' must be a policy, got 2"),
        (lambda: BalancingState(periods=20.5, a=0.1, b=10.0, marginal=FIG2),
         "field 'periods' must be a whole number, got 20.5"),
        (lambda: BalancingPolicy([]), "needs at least one location state"),
        (lambda: BaseStockPolicy([1.0, 10 ** 400]),
         "field 'levels' must hold numbers within float range"),
    ])
    def test_shape_and_count_refusals(self, make, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

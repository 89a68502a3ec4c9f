import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv.balancing import (BalancingPolicy, BalancingState,
                               act_balancing_batch, balancing_order_batch,
                               balancing_probability_batch,
                               expected_backlog_proxy, expected_holding_proxy,
                               holding_cost_K_order_batch, make_balancing_policy)
from multinv.model import DiscreteMarginal, UniformMarginal
from multinv import rng

FIG2 = DiscreteMarginal((0.0, 0.5, 1.0, 1.5), (0.125, 0.375, 0.375, 0.125))
FIG1 = DiscreteMarginal((0.0, 1.0), (0.5, 0.5))
DET = DiscreteMarginal((2.0,), (1.0,))


def state(marginal=FIG2, periods=20, a=0.1, b=10.0, K=0.0, variant="printed"):
    return BalancingState(periods=periods, a=a, b=b, K=K, marginal=marginal,
                          variant=variant)


def flat_cap(value):
    """A cap rule that gives every inventory level the same cap."""
    return lambda levels: np.full(levels.shape, value)


def one(values):
    """The entries of a batch result at its single level, as Python scalars."""
    return tuple(v[0].item() for v in values)


class TestHoldingProxy:
    def test_zero_order_costs_nothing(self):
        assert expected_holding_proxy(state(), 3, -1.0, 0.0) == 0.0

    def test_order_below_deterministic_demand(self):
        st = state(DET, a=1.0)
        assert expected_holding_proxy(st, 0, 0.0, 1.5) == 0.0

    def test_last_stage_single_period_sum(self):
        # one remaining period: a * E max{0, 1.5 - w}
        st = state()
        assert expected_holding_proxy(st, 19, 0.0, 1.5) == pytest.approx(0.075)

    def test_remaining_period_scaling(self):
        st = state()
        one = expected_holding_proxy(st, 19, 0.0, 1.5)
        five = expected_holding_proxy(st, 15, 0.0, 1.5)
        assert five == pytest.approx(5 * one)

    def test_cumulative_variant_accumulates_demand(self):
        st = state(variant="cumulative")
        printed = state(variant="printed")
        # when k = N-1 both variants see a single period and agree
        assert expected_holding_proxy(st, 19, 0.0, 1.5) == pytest.approx(
            expected_holding_proxy(printed, 19, 0.0, 1.5))
        # earlier, accumulated demand eats more of the order
        assert expected_holding_proxy(st, 10, 0.0, 1.5) < \
            expected_holding_proxy(printed, 10, 0.0, 1.5)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            expected_holding_proxy(state(), 0, 0.0, -0.5)

    def test_uniform_demand_by_quadrature(self):
        st = state(UniformMarginal(1.0, 2.0), periods=5, a=2.0)
        # one remaining period, x=0, u=1.5: E max{0,1.5-w} over U(1,2) = 1/8
        got = expected_holding_proxy(st, 4, 0.0, 1.5)
        assert got == pytest.approx(2.0 * 0.125, rel=1e-8)


class TestBacklogProxy:
    def test_fully_covered_demand(self):
        assert expected_backlog_proxy(state(), 0, 2.0, 0.0) == 0.0

    def test_empty_shelf_half_unit_exposure(self):
        st = state(FIG1, b=10.0)
        assert expected_backlog_proxy(st, 0, 0.0, 0.0) == pytest.approx(5.0)

    def test_deterministic_demand_exact_cover(self):
        st = state(DET)
        assert expected_backlog_proxy(st, 0, 0.0, 2.0) == 0.0

    def test_uniform_demand_by_quadrature(self):
        st = state(UniformMarginal(1.0, 2.0), b=3.0)
        # E max{0, w - 1.25} over U(1,2) = 0.28125
        assert expected_backlog_proxy(st, 0, 1.0, 0.25) == pytest.approx(
            3.0 * 0.28125, rel=1e-8)


class TestBalancingOrder:
    def test_no_backlog_pressure_is_balanced_at_zero(self):
        assert one(balancing_order_batch(state(), 5, [4.0], [10.0])) == (0.0, 0.0)

    def test_deterministic_demand_orders_to_cover(self):
        st = state(DET)
        u, theta = one(balancing_order_batch(st, 0, [0.0], [10.0]))
        assert u == pytest.approx(2.0, abs=1e-9)
        assert theta == pytest.approx(0.0, abs=1e-9)

    def test_matches_dense_grid_crossing(self):
        st = state()
        u, theta = one(balancing_order_batch(st, 19, [0.0], [10.0]))
        grid = np.linspace(0.0, 1.5, 1_500_001)
        eh = np.zeros_like(grid)
        eb = np.zeros_like(grid)
        for v, p in zip(FIG2.values, FIG2.probs):
            eh += p * np.maximum(0.0, grid - max(0.0, v))
            eb += p * np.maximum(0.0, v - grid)
        crossing = grid[np.argmin(np.abs(0.1 * eh - 10.0 * eb))]
        assert u == pytest.approx(crossing, abs=1e-6)

    def test_balance_residual_below_tolerance(self):
        st = state()
        for k in (0, 10, 19):
            for x in (-2.0, -0.5, 0.0, 1.0):
                u, _ = one(balancing_order_batch(st, k, [x], [10.0]))
                gap = abs(expected_holding_proxy(st, k, x, u)
                          - expected_backlog_proxy(st, k, x, u))
                assert gap <= 1e-9


class TestHoldingCostKOrder:
    def test_deterministic_closed_form_matches_bisection(self):
        st = state(DET, a=1.0, K=3.0)
        for k in (0, 2, 4, 16):
            u, saturated = one(holding_cost_K_order_batch(st, k, [0.0], [10.0]))
            assert not saturated
            assert u == pytest.approx(2.0 + 3.0 / (20 - k), abs=1e-9)

    def test_saturation_flagged(self):
        st = BalancingState(periods=20, a=1e-6, b=10.0, K=5.0, marginal=DET)
        u, saturated = one(holding_cost_K_order_batch(st, 0, [0.0], [3.0]))
        assert saturated and u == 3.0

    def test_cap_exactly_at_K_is_not_saturated(self):
        # x past every atom: EH(cap) = 0.2 * 2 periods * 10 = K exactly
        st = BalancingState(periods=20, a=0.2, b=10.0, K=4.0, marginal=FIG2)
        for x in (1.505, 1.61, 3.0):
            assert one(holding_cost_K_order_batch(st, 18, [x], [10.0])) == (10.0, False)

    def test_zero_fixed_charge_is_domain_error(self):
        with pytest.raises(ValueError):
            holding_cost_K_order_batch(state(K=0.0), 0, [0.0], [10.0])


class TestBalancingProbability:
    def test_no_backlog_pressure_never_orders(self):
        st = state(K=4.0)
        assert balancing_probability_batch(st, 0, [5.0], [1.0])[0] == 0.0

    def test_covered_u_tilde_specializes_formula(self):
        st = state(FIG1, b=10.0, K=4.0, periods=4)
        eb0 = expected_backlog_proxy(st, 0, 0.0, 0.0)
        p = balancing_probability_batch(st, 0, [0.0], [5.0])[0]  # x+u covers all demand
        assert p == pytest.approx(eb0 / (4.0 + eb0))

    def test_defining_linear_equation_holds(self):
        p_aff = mi.instances.build("affine_sim")
        policy = make_balancing_policy(p_aff, variant="printed")
        st = policy.states[0]
        for k in (0, 7, 15):
            for x in (-1.0, 0.5, 1.5):
                u_t, _ = one(holding_cost_K_order_batch(st, k, [x], [10.0]))
                p = balancing_probability_batch(st, k, [x], [u_t])[0]
                ebt = expected_backlog_proxy(st, k, x, u_t)
                eb0 = expected_backlog_proxy(st, k, x, 0.0)
                assert p * st.K == pytest.approx(p * ebt + (1 - p) * eb0, abs=1e-9)


class TestActBalancing:
    def test_linear_case_is_deterministic(self):
        st = state()
        u1 = act_balancing_batch(st, 0, [-1.0], flat_cap(10.0), None)[0]
        u2 = act_balancing_batch(st, 0, [-1.0], flat_cap(10.0), None)[0]
        uh, _ = one(balancing_order_batch(st, 0, [-1.0], [10.0]))
        assert u1 == u2 == uh

    def test_zero_probability_never_orders(self):
        st = state(K=4.0)
        # well stocked: theta = 0 < K and no backlog pressure at zero
        for _ in range(20):
            uniforms = rng.stream(_).random(1)
            assert act_balancing_batch(st, 5, [4.0], flat_cap(10.0), uniforms)[0] == 0.0

    def test_positive_fixed_charge_needs_uniforms(self):
        with pytest.raises(ValueError, match="needs one uniform per state"):
            act_balancing_batch(state(K=4.0), 0, [-2.0, 0.0], flat_cap(10.0), None)

    def test_empirical_order_frequency_matches_probability(self):
        p_aff = mi.instances.build("affine_sim")
        policy = make_balancing_policy(p_aff, variant="printed")
        st = policy.states[0]
        k, x = 10, 1.0
        _, theta = one(balancing_order_batch(st, k, [x], [10.0]))
        assert theta < st.K  # randomized branch is live here
        u_t, _ = one(holding_cost_K_order_batch(st, k, [x], [10.0]))
        p = balancing_probability_batch(st, k, [x], [u_t])[0]
        n = 100_000
        uniforms = rng.stream(99, "freq").random(n)
        draws = act_balancing_batch(st, k, np.full(n, x), flat_cap(10.0), uniforms)
        freq = np.mean(draws > 0)
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * sigma
        assert set(np.round(draws[draws > 0], 9)) == {round(u_t, 9)}


class TestGridTop:
    """The caps come from ``Problem.order_cap``, so orders stay inside the
    grid box even where the per-location order limit alone would not."""

    def test_k_order_saturates_at_the_grid_top(self):
        affine = mi.instances.build("affine_sim")
        st = make_balancing_policy(affine, variant="cumulative").states[0]
        u, saturated = holding_cost_K_order_batch(st, 19, [0.0], affine.order_cap([0.0]))
        assert (u[0], saturated[0]) == (8.0, True)

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    def test_orders_stay_in_the_grid_box(self, variant):
        affine = mi.instances.build("affine_sim")
        policy = make_balancing_policy(affine, variant=variant)
        X = affine.grid.states(affine.m)
        for k in range(affine.periods):
            # uniform 0 takes u_tilde wherever p > 0: the largest orders
            U = policy.act_batch(affine, k, X, np.zeros(X.shape))
            assert np.all(X + U <= affine.grid.hi)


class TestStageRange:
    """Every entry point rejects a stage outside 0..periods-1, even once
    every stage's table is cached."""

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    @pytest.mark.parametrize("k", [20, -1])
    def test_out_of_range_stage_raises(self, variant, k):
        problem = mi.instances.build("affine_sim")
        policy = make_balancing_policy(problem, variant=variant)
        st = policy.states[0]
        assert st.periods == 20
        x = np.array([-2.0, 0.0])
        X = np.stack([x, x], axis=1)
        for stage in range(st.periods):
            act_balancing_batch(st, stage, x, flat_cap(10.0), np.full(2, 0.5))
        calls = [
            lambda: act_balancing_batch(st, k, x, flat_cap(10.0), np.full(2, 0.5)),
            lambda: policy.act_batch(problem, k, X, np.full(X.shape, 0.5)),
            lambda: balancing_order_batch(st, k, x, np.full(2, 10.0)),
            lambda: expected_holding_proxy(st, k, x, np.ones(2)),
        ]
        for call in calls:
            with pytest.raises(IndexError, match=f"stage {k} out of range"):
                call()


class TestMonotonicity:
    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    def test_proxies_monotone_in_order(self, variant):
        st = state(variant=variant, K=4.0)
        u = np.linspace(0.0, 10.0, 500)
        for k in (0, 9, 19):
            for x in (-2.0, 0.0, 2.5):
                eh = expected_holding_proxy(st, k, x, u)
                eb = expected_backlog_proxy(st, k, x, u)
                assert np.all(np.diff(eh) >= -1e-12)
                assert np.all(np.diff(eb) <= 1e-12)


class TestCompetitiveProperty:
    def simulate_policy_mean(self, problem, policy, x0, runs=800, seed=0):
        from multinv.sim import SimConfig, estimate_cost
        return estimate_cost(problem, policy, x0, SimConfig(runs=runs, seed=seed))

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    def test_single_location_linear_within_two_optimal(self, variant):
        p = mi.instances.build("sector_sim")
        sub = mi.single_location_problem(p, 0, ordering=mi.linear_cost(3.0))
        vf, _ = mi.solve_joint_dp(sub)
        policy = make_balancing_policy(sub, variant=variant)
        for x0 in (-2.0, 0.0, 2.0):
            mean, se = self.simulate_policy_mean(sub, policy, [x0])
            optimal = vf.values[0][sub.grid.index(x0)] / sub.horizon.periods
            assert mean <= 2.0 * optimal + 3.0 * se

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    def test_single_location_affine_within_three_optimal(self, variant):
        p = mi.instances.build("affine_sim")
        sub = mi.single_location_problem(p, 0, ordering=mi.affine_cost(4.0, 2.0))
        vf, _ = mi.solve_joint_dp(sub)
        policy = make_balancing_policy(sub, variant=variant)
        for x0 in (-2.0, 0.0, 2.0):
            mean, se = self.simulate_policy_mean(sub, policy, [x0])
            optimal = vf.values[0][sub.grid.index(x0)] / sub.horizon.periods
            assert mean <= 3.0 * optimal + 3.0 * se


class TestPolicyIntegration:
    def test_multi_location_composition_is_per_location(self):
        p = mi.instances.build("sector_sim")
        policy = make_balancing_policy(p, variant="printed")
        x = np.array([[-1.0, 2.0]])
        joint = policy.act_batch(p, 0, x, None)
        caps = p.order_cap(x)
        for i, st in enumerate(policy.states):
            u, _ = one(balancing_order_batch(st, 0, x[:, i], caps[:, i]))
            assert joint[0, i] == pytest.approx(u, abs=1e-12)

    def test_infinite_horizon_rejected(self):
        p = mi.instances.build("tightness:M=2,eps=0.1,l=1,h=4,p=100")
        with pytest.raises(ValueError):
            make_balancing_policy(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("field", ["a", "b", "K"])
    def test_non_finite_or_negative_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            state(**{field: value})

    def test_state_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            state().K = 1.0

    @pytest.mark.parametrize("field, attr, value", [
        ("fixed_charge", "K", 0.0), ("variant", "variant", "cumulative"),
        ("periods", "periods", 19)])
    def test_states_must_share_the_configured_fields(self, field, attr, value):
        # to_config writes these once, and the tag made from it keys the
        # streams: a second state with K = 0 on affine_sim would otherwise
        # share make_balancing_policy's tag and rebuild with K = 4
        states = make_balancing_policy(mi.instances.build("affine_sim")).states
        odd = dataclasses.replace(states[1], **{attr: value})
        with pytest.raises(ValueError, match=f"disagree on '{field}'"):
            BalancingPolicy([states[0], odd])

    def test_fixed_charge_defaults_to_cost_jump(self):
        p = mi.instances.build("affine_sim")
        policy = make_balancing_policy(p)
        assert all(st.K == 4.0 for st in policy.states)
        p2 = mi.instances.build("sector_sim")
        assert all(st.K == 0.0 for st in make_balancing_policy(p2).states)


class TestUniformSolve:
    """Uniform demand against crossings found on dense grids, with the
    proxies integrated by the midpoint rule over the demand."""

    W = 1.0 + (np.arange(4000) + 0.5) / 4000  # midpoints of U(1, 2)

    def proxies(self, st, k, x, u):
        u = u[:, None]
        eh = np.mean(np.maximum(0.0, u - np.maximum(0.0, self.W - x)), axis=1)
        eb = np.mean(np.maximum(0.0, self.W - np.maximum(0.0, x + u)), axis=1)
        return st.a * (st.periods - k) * eh, st.b * eb

    def crossing(self, gap, hi):
        lo = 0.0
        for _ in range(3):  # each round narrows the bracket 1000-fold
            grid = np.linspace(lo, hi, 2001)
            i = int(np.argmin(np.abs(gap(grid))))
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, 2000)]
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("k,x", [(0, 0.0), (3, 1.2), (4, -0.5)])
    def test_balancing_order(self, k, x):
        st = state(UniformMarginal(1.0, 2.0), periods=5, a=2.0, b=3.0)
        u, theta = one(balancing_order_batch(st, k, [x], [10.0]))
        expected = self.crossing(lambda g: np.subtract(*self.proxies(st, k, x, g)), 3.0)
        assert u == pytest.approx(expected, abs=1e-6)
        assert theta == pytest.approx(self.proxies(st, k, x, np.array([u]))[0][0], abs=1e-6)

    @pytest.mark.parametrize("k,x", [(0, 0.0), (3, 1.2), (4, -0.5)])
    def test_holding_cost_K_order(self, k, x):
        st = state(UniformMarginal(1.0, 2.0), periods=5, a=2.0, b=3.0, K=1.5)
        u, saturated = one(holding_cost_K_order_batch(st, k, [x], [10.0]))
        expected = self.crossing(lambda g: self.proxies(st, k, x, g)[0] - st.K, 6.0)
        assert not saturated
        assert u == pytest.approx(expected, abs=1e-6)


def _reference_proxies(st, k, x):
    """EH and EB at (k, x) as functions of u, by the atom loops of the
    bisection solve that the knot tables replaced."""
    from multinv.balancing import _partial_sum_atoms
    remaining = st.periods - k
    values, probs = st.marginal.sorted_pmf()
    if st.variant == "printed":
        hv, hp, scale = values, probs, st.a * remaining
    else:
        (hv, hp), scale = _partial_sum_atoms(tuple(values), tuple(probs), remaining)[remaining], st.a
    thresholds = np.maximum(0.0, hv[:, None] - x[None, :])

    def eh(u):
        acc = np.zeros(np.shape(u))
        for j in range(len(hp)):
            acc += hp[j] * np.maximum(0.0, u - thresholds[j])
        return scale * acc

    def eb(u):
        post = np.maximum(0.0, x + u)
        acc = np.zeros(np.shape(u))
        for v, p in zip(values, probs):
            acc += p * np.maximum(0.0, v - post)
        return st.b * acc

    return eh, eb, float(np.max(hv)), scale


def _reference_bisect(f, hi):
    lo, hi = np.zeros_like(hi), hi.copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _reference_solve(st, k, x, caps):
    """u_hat, u_tilde and the saturation flags by 64-halving bisections on
    the reference proxies, plus the rows where EH(cap) = K up to rounding
    (there either flag is right and both orders are the cap)."""
    eh, eb, top, scale = _reference_proxies(st, k, x)
    hi = np.minimum(caps, np.maximum(0.0, max(st.marginal.values) - x))
    u_hat = _reference_bisect(lambda u: eh(u) - eb(u), hi)
    u_hat = np.where(eb(np.zeros_like(x)) == 0.0, 0.0, u_hat)
    slack = st.K / scale + 1.0 if scale > 0 else 0.0
    hi_k = np.minimum(caps, np.maximum(0.0, top - x) + slack)
    saturated = eh(hi_k) < st.K
    u_til = np.where(saturated, caps, _reference_bisect(lambda u: eh(u) - st.K, hi_k))
    tie = np.abs(eh(hi_k) - st.K) <= 1e-12 * st.K
    return u_hat, u_til, saturated, tie, (eh, eb, hi)


class TestSolveAgainstBisection:
    """The table solve against the 64-halving bisection it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(grid=hs.lists(hs.integers(0, 6), min_size=1, max_size=6, unique=True),
           weights=hs.lists(hs.integers(1, 20), min_size=6, max_size=6),
           variant=hs.sampled_from(["printed", "cumulative"]),
           periods=hs.integers(1, 8),
           a=hs.one_of(hs.sampled_from([0.0, 0.1, 0.2, 0.25, 1.0]), hs.floats(0.05, 5.0)),
           b=hs.floats(0.1, 20.0),
           K=hs.one_of(hs.sampled_from([0.5, 1.0, 2.0, 4.0]), hs.floats(0.1, 10.0)),
           xs=hs.lists(hs.one_of(hs.floats(-3.0, 8.0),
                                 hs.integers(-6, 16).map(lambda n: 0.5 * n)),
                       min_size=1, max_size=8),
           cap=hs.one_of(hs.floats(0.5, 12.0), hs.integers(1, 24).map(lambda n: 0.5 * n)))
    def test_matches_reference(self, grid, weights, variant, periods, a, b, K, xs, cap):
        from multinv.balancing import (balancing_order_batch, balancing_probability_batch,
                                       holding_cost_K_order_batch)
        w = np.array(weights[:len(grid)], dtype=float)
        marginal = DiscreteMarginal(tuple(0.5 * v for v in grid), tuple(w / w.sum()))
        st = BalancingState(periods=periods, a=a, b=b, K=K, marginal=marginal,
                            variant=variant)
        x = np.array(xs)
        caps = np.full_like(x, cap)
        for k in range(periods):
            ref_hat, ref_til, ref_sat, tie, (eh, eb, hi) = _reference_solve(st, k, x, caps)
            u_hat, theta = balancing_order_batch(st, k, x, caps)
            u_til, sat = holding_cost_K_order_batch(st, k, x, caps)
            assert np.max(np.abs(u_hat - ref_hat)) <= 1e-9
            assert np.max(np.abs(theta - eh(u_hat))) <= 1e-9
            assert np.max(np.abs(u_til - ref_til)) <= 1e-9
            assert np.array_equal(sat[~tie], ref_sat[~tie])
            interior = (u_hat > 0.0) & (u_hat < hi)
            assert np.all(np.abs(eh(u_hat) - eb(u_hat))[interior] <= 1e-9)
            assert np.all(np.abs(eh(u_til) - K)[~sat] <= 1e-9)
            for u in (np.zeros_like(x), u_hat, u_til):
                assert np.max(np.abs(expected_holding_proxy(st, k, x, u) - eh(u))) <= 1e-9
                assert np.max(np.abs(expected_backlog_proxy(st, k, x, u) - eb(u))) <= 1e-9
            eb0, denom = eb(np.zeros_like(x)), K - eb(u_til) + eb(np.zeros_like(x))
            ref_p = np.where(denom <= 0, 1.0, eb0 / np.where(denom <= 0, 1.0, denom))
            p = balancing_probability_batch(st, k, x, u_til)
            assert np.max(np.abs(p - np.clip(ref_p, 0.0, 1.0))) <= 1e-9
            for j in range(len(x)):
                solo = balancing_order_batch(st, k, x[j:j + 1], caps[j:j + 1])
                assert solo[0][0] == u_hat[j] and solo[1][0] == theta[j]
                solo = holding_cost_K_order_batch(st, k, x[j:j + 1], caps[j:j + 1])
                assert solo[0][0] == u_til[j] and solo[1][0] == sat[j]


def _unshared_act(st, k, x, caps, uniforms):
    """The rule composed from the public batch functions, each of which
    fetches the stage table and locates its x on its own."""
    u_hat, theta = balancing_order_batch(st, k, x, caps)
    if st.K == 0:
        return u_hat
    order = u_hat.copy()
    low = theta < st.K
    if np.any(low):
        u_til, _ = holding_cost_K_order_batch(st, k, x[low], caps[low])
        p = balancing_probability_batch(st, k, x[low], u_til)
        order[low] = np.where(uniforms[low] < p, u_til, 0.0)
    return order


class TestSharedLookup:
    """act_balancing_batch's orders must be bit-identical to the
    composition of the public batch functions."""

    def check(self, states, x, cap, top=8.0, seed=0):
        """Compare every stage for two locations (x and x shifted by one
        row); return the set of observed ``theta < K`` outcomes."""
        X = np.stack([x, np.roll(x, 1)], axis=1)
        uniforms = np.random.default_rng(seed).random(X.shape)
        problem = SimpleNamespace(order_cap=lambda X: np.minimum(cap, top - X))
        policy = BalancingPolicy(states)
        caps = problem.order_cap(X)
        sides = set()
        for k in range(states[0].periods):
            expected = np.stack([_unshared_act(st, k, X[:, i], caps[:, i], uniforms[:, i])
                                 for i, st in enumerate(states)], axis=1)
            for i, st in enumerate(states):
                got = act_balancing_batch(st, k, X[:, i], problem.order_cap,
                                          uniforms[:, i])
                assert np.array_equal(got, expected[:, i])
                theta = balancing_order_batch(st, k, X[:, i], caps[:, i])[1]
                sides.update((theta < st.K).tolist())
            assert np.array_equal(policy.act_batch(problem, k, X, uniforms), expected)
        return sides

    @settings(max_examples=60, deadline=None)
    @given(grid=hs.lists(hs.integers(0, 6), min_size=1, max_size=6, unique=True),
           weights=hs.lists(hs.integers(1, 20), min_size=6, max_size=6),
           variant=hs.sampled_from(["printed", "cumulative"]),
           periods=hs.integers(1, 6),
           a=hs.one_of(hs.sampled_from([0.0, 0.1, 1.0]), hs.floats(0.05, 5.0)),
           b=hs.floats(0.1, 20.0),
           K=hs.one_of(hs.sampled_from([0.0, 0.5, 1.0, 4.0]), hs.floats(0.1, 10.0)),
           xs=hs.lists(hs.one_of(hs.floats(-3.0, 8.0),
                                 hs.integers(-6, 16).map(lambda n: 0.5 * n)),
                       min_size=1, max_size=12),
           cap=hs.one_of(hs.floats(0.5, 12.0), hs.integers(1, 24).map(lambda n: 0.5 * n)),
           seed=hs.integers(0, 2 ** 32 - 1))
    def test_random_marginals(self, grid, weights, variant, periods, a, b, K, xs,
                              cap, seed):
        w = np.array(weights[:len(grid)], dtype=float)
        marginal = DiscreteMarginal(tuple(0.5 * v for v in grid), tuple(w / w.sum()))
        states = [BalancingState(periods=periods, a=a, b=b, K=K, marginal=marginal,
                                 variant=variant),
                  BalancingState(periods=periods, a=a, b=2.0 * b, K=K,
                                 marginal=FIG2, variant=variant)]
        self.check(states, np.array(xs), cap, top=max(xs) + 1.0, seed=seed)

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    @pytest.mark.parametrize("K", [0.0, 0.25, 0.45])
    def test_rows_on_both_sides_of_K(self, variant, K):
        x = np.concatenate((np.linspace(-3.0, 5.0, 41), np.arange(-6, 11) * 0.5))
        states = [state(FIG2, periods=8, a=1.0, K=K, variant=variant),
                  state(FIG1, periods=8, a=1.0, K=K, variant=variant)]
        sides = self.check(states, x, cap=4.0)
        if K > 0:
            assert sides == {True, False}

    @pytest.mark.parametrize("K", [0.0, 0.3, 0.9])
    def test_uniform_demand(self, K):
        x = np.linspace(-3.0, 4.0, 57)
        states = [state(UniformMarginal(1.0, 2.0), periods=6, a=1.0, b=10.0, K=K),
                  state(UniformMarginal(0.25, 1.75), periods=6, a=1.0, b=8.0, K=K)]
        sides = self.check(states, x, cap=3.0, seed=1)
        if K > 0:
            assert sides == {True, False}

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    def test_affine_instance_grid(self, variant):
        problem = mi.instances.build("affine_sim")
        policy = make_balancing_policy(problem, variant=variant)
        X = np.stack(np.meshgrid(*(problem.grid.points(),) * 2, indexing="ij"),
                     axis=-1).reshape(-1, 2)
        uniforms = np.random.default_rng(3).random(X.shape)
        caps = problem.order_cap(X)
        for k in range(problem.periods):
            expected = np.stack([_unshared_act(st, k, X[:, i], caps[:, i], uniforms[:, i])
                                 for i, st in enumerate(policy.states)], axis=1)
            assert np.array_equal(policy.act_batch(problem, k, X, uniforms), expected)


# knots of FIG2/FIG1/DET and their partial sums, off-knot values, and
# both signed zeros
LEVEL_POOL = np.array([-2.0, -1.0, -0.3, -0.0, 0.0, 0.25, 0.5, 1.0, 1.1, 1.5,
                       2.0, 2.7, 3.0, 4.5, 7.3])


class TestPerLevelSolve:
    """act_balancing_batch solves the rule once per distinct level of x;
    batches with heavy repetition must get the per-row composition's
    orders, signed zeros included."""

    @settings(max_examples=80, deadline=None)
    @given(marginal=hs.sampled_from([FIG2, FIG1, DET]),
           variant=hs.sampled_from(["printed", "cumulative"]),
           periods=hs.integers(1, 6),
           a=hs.one_of(hs.sampled_from([0.0, 0.1, 1.0]), hs.floats(0.05, 5.0)),
           b=hs.floats(0.1, 20.0),
           K=hs.one_of(hs.sampled_from([0.0, 0.25, 1.0, 4.0]), hs.floats(0.1, 10.0)),
           picks=hs.lists(hs.integers(0, len(LEVEL_POOL) - 1), min_size=1,
                          max_size=80),
           cap=hs.one_of(hs.sampled_from([0.5, 2.0, np.inf]), hs.floats(0.5, 12.0)),
           seed=hs.integers(0, 2 ** 32 - 1))
    def test_repeated_levels_match_per_row_composition(self, marginal, variant,
                                                       periods, a, b, K, picks,
                                                       cap, seed):
        st = BalancingState(periods=periods, a=a, b=b, K=K, marginal=marginal,
                            variant=variant)
        x = LEVEL_POOL[picks]
        caps = np.minimum(cap, 8.0 - x)
        uniforms = np.random.default_rng(seed).random(x.shape)
        for k in range(periods):
            got = act_balancing_batch(st, k, x, lambda v: np.minimum(cap, 8.0 - v),
                                      uniforms)
            want = _unshared_act(st, k, x, caps, uniforms)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_cap_rule_is_asked_once_per_distinct_level(self):
        asked = []

        def cap(levels):
            asked.append(levels.copy())
            return np.full(levels.shape, 2.0)

        x = np.array([1.0, 0.5, 1.0, -0.0, 0.0, 0.5, 1.0])
        act_balancing_batch(state(K=1.0), 0, x, cap, np.full(7, 0.5))
        (levels,) = asked
        assert levels.tolist() == [0.0, 0.5, 1.0]

    def test_forced_p1_warning_counts_levels(self, caplog, monkeypatch):
        import multinv.balancing as bal
        st = state(K=1.0)
        # an order that empties the level has EB(u) = b * E w = 7.5 > K
        # with EB(0) = 0 above the demand's support: denominator < 0
        with caplog.at_level("WARNING", logger="multinv.balancing"):
            p = balancing_probability_batch(st, 0, np.array([2.0, 2.0, 3.0, 1.5]),
                                            np.array([-3.0, -3.0, -4.0, 0.0]))
        assert np.array_equal(p, [1.0, 1.0, 1.0, 0.0])
        (record,) = caplog.records
        assert record.getMessage() == ("balancing probability: nonpositive "
                                       "denominator at 3 levels, forcing p = 1")
        assert type(record.args[0]) is int
        caplog.clear()
        k_order = bal.holding_cost_K_order_batch

        def emptying(state, k, x, caps):
            _, sat = k_order(state, k, x, caps)
            return -1.0 - x, sat

        monkeypatch.setattr(bal, "holding_cost_K_order_batch", emptying)
        x = np.array([2.0, 3.0, 2.0, 2.0, 3.0, 3.0])
        with caplog.at_level("WARNING", logger="multinv.balancing"):
            act_balancing_batch(st, 0, x, flat_cap(10.0), np.full(6, 0.5))
        (record,) = caplog.records
        assert record.args[0] == 2  # two levels, six rows


def _per_location(states, k, X, caps, uniforms):
    """The policy's orders with every location solved on its own column."""
    return np.stack([_unshared_act(st, k, X[:, i], caps[:, i],
                                   None if uniforms is None else uniforms[:, i])
                     for i, st in enumerate(states)], axis=1)


class TestPooledLocations:
    """BalancingPolicy.act_batch solves the locations of one rule (equal
    states) in one call per stage; the orders must be those of each
    location's column solved on its own, signed zeros included."""

    def run(self, monkeypatch, states, X):
        """Compare every stage against the per-location oracle; return the
        batch sizes of the act_balancing_batch calls of the first stage."""
        import multinv.balancing as bal
        sizes = []
        solve = bal.act_balancing_batch

        def spy(state, k, x, caps, uniforms):
            if k == 0:
                sizes.append(len(x))
            return solve(state, k, x, caps, uniforms)

        monkeypatch.setattr(bal, "act_balancing_batch", spy)
        problem = SimpleNamespace(order_cap=lambda X: np.minimum(4.0, 8.0 - X))
        policy = BalancingPolicy(states)
        caps = problem.order_cap(X)
        uniforms = (np.random.default_rng(0).random(X.shape)
                    if policy.uses_randomness else None)
        for k in range(states[0].periods):
            got = policy.act_batch(problem, k, X, uniforms)
            want = _per_location(states, k, X, caps, uniforms)
            assert got.shape == X.shape and got.dtype == np.float64
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        return sizes

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    @pytest.mark.parametrize("K", [0.0, 0.25, 1.0])
    def test_two_of_three_locations_share_a_rule(self, variant, K, monkeypatch):
        shared = dict(periods=6, a=0.5, K=K, variant=variant)
        # equal but distinct objects: the rule is compared by value
        states = [state(FIG2, **shared), state(FIG1, **shared), state(FIG2, **shared)]
        rng_ = np.random.default_rng(7)
        X = np.stack([LEVEL_POOL[rng_.integers(0, len(LEVEL_POOL), 60)],
                      rng_.uniform(-3.0, 6.0, 60),
                      LEVEL_POOL[rng_.integers(0, len(LEVEL_POOL), 60)]], axis=1)
        sizes = self.run(monkeypatch, states, X)
        assert sizes == [120, 60]

    @pytest.mark.parametrize("K", [0.0, 0.25, 1.0])
    def test_signed_zeros_and_nan_levels_across_locations(self, K, monkeypatch):
        states = [state(FIG2, periods=5, a=0.5, K=K) for _ in range(2)]
        X = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [np.nan, 0.0],
                      [1.5, np.nan], [np.nan, np.nan], [0.0, 1.5], [-0.0, 2.0]])
        sizes = self.run(monkeypatch, states, X)
        assert sizes == [16]

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_single_location(self, K, monkeypatch):
        X = np.concatenate((LEVEL_POOL, np.linspace(-3.0, 6.0, 19)))[:, None]
        sizes = self.run(monkeypatch, [state(FIG2, periods=4, a=0.5, K=K)], X)
        assert sizes == [len(X)]

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    def test_zero_fixed_charge_needs_no_uniforms(self, variant, monkeypatch):
        states = [state(FIG1, periods=4, a=1.0, variant=variant) for _ in range(3)]
        X = np.stack(np.meshgrid(*(np.arange(-4, 9) * 0.5,) * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
        sizes = self.run(monkeypatch, states, X)
        assert sizes == [3 * len(X)]

"""Memory-layout independence of the policy zoo and the cost kernels.

The Monte Carlo stepper holds its states, orders and draws location-major
(Fortran-ordered (B, M) arrays).  Every policy and cost kernel must give
the same bytes whichever layout its inputs have: the orders of a
C-ordered and an F-ordered batch are compared bit for bit, signed zeros
and NaN included.
"""

from dataclasses import replace

import numpy as np
import pytest

import multinv as mi
from multinv.model import DemandModel, HoldingBacklogCost, location_sum


def layouts(a):
    """C- and F-ordered copies of a (B, M) array."""
    return np.ascontiguousarray(a), np.asfortranarray(a)


def same_bytes(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def with_specials(X):
    """X with signed zeros and NaN written into its first rows."""
    X = X.copy()
    m = X.shape[1]
    X[0] = -0.0
    X[1] = 0.0
    X[2, ::2] = -0.0
    X[3, 0] = np.nan
    X[4, m - 1] = np.nan
    return X


def widened(base, m, holding=None):
    """``base`` with m locations, each with location 0's demand and rates
    (or the given holding rates)."""
    rates = holding or base.holding.holding[:1] * m
    return replace(base, m=m,
                   holding=HoldingBacklogCost(tuple(rates), base.holding.backlog[:1] * m),
                   demand=DemandModel(base.demand.marginals[:1] * m))


def check_layout_independent(problem, policy, X, stages):
    """act_batch of every stage gives byte-equal orders on C- and
    F-ordered X and uniforms."""
    gen = np.random.default_rng(X.shape[0])
    U = gen.random(X.shape) if policy.uses_randomness else None
    for k in stages:
        got = []
        for Xl, Ul in zip(layouts(X), layouts(U) if U is not None else (None, None)):
            got.append(policy.act_batch(problem, k, Xl, Ul))
        assert same_bytes(*got), (policy.kind, k)


SECTOR = mi.instances.build("sector_sim")
AFFINE = mi.instances.build("affine_sim")


def grid_batch(problem, rows, seed):
    gen = np.random.default_rng(seed)
    return problem.grid.points()[gen.integers(0, problem.grid.count, (rows, problem.m))]


class TestPolicyZoo:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_base_stock_stationary_and_stage_indexed(self, m):
        p = widened(SECTOR, m)
        gen = np.random.default_rng(m)
        X = with_specials(gen.uniform(-3.0, 9.0, (40, m)))
        for levels in (gen.uniform(0.0, 5.0, m), gen.uniform(0.0, 5.0, (p.periods, m))):
            check_layout_independent(p, mi.BaseStockPolicy(levels), X, [0, 7])

    def test_sS_and_decoupled(self):
        gen = np.random.default_rng(3)
        X = with_specials(gen.uniform(-3.0, 9.0, (40, 2)))
        small = gen.uniform(0.0, 2.0, (AFFINE.periods, 2))
        sS = mi.SSPolicy(small, small + gen.uniform(0.0, 3.0, small.shape))
        for policy in (sS, mi.make_pi_square(SECTOR, 2.0),
                       mi.make_pi_diamond(AFFINE, 16.0 / 3.0, 4.0 / 3.0)):
            check_layout_independent(AFFINE, policy, X, [0, 19])

    def test_tabular(self):
        table = mi.solve_joint_dp(SECTOR)[1]
        X = grid_batch(SECTOR, 60, 4)
        X[0] = -0.0
        X[1, 1] = -0.0
        check_layout_independent(SECTOR, mi.TabularGridPolicy(table), X, [0, 10])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_pi_v_both_waterfill_branches(self, m):
        p = mi.instances.build(f"tightness:M={m}")
        policy = mi.make_pi_v(m, mi.instances.tightness_delta(0.1, 1.0))
        gen = np.random.default_rng(m)
        X = with_specials(gen.uniform(-1.0, 1.5, (200, m)))
        check_layout_independent(p, policy, X, [0])
        # the batch reaches the equal split (every location ordered) and,
        # for m > 1, the waterfill of the lowest levels only
        orders = policy.act_batch(p, 0, np.asfortranarray(X), None)
        ordering = location_sum(orders) > 0
        assert np.any(ordering & np.all(orders > 0, axis=1))
        if m > 1:
            assert np.any(ordering & np.any(orders == 0, axis=1))

    @pytest.mark.parametrize("variant", ["printed", "cumulative"])
    @pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "unpooled"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_balancing(self, variant, pooled, m):
        holding = None if pooled else [0.1 * (i + 1) for i in range(m)]
        p = widened(AFFINE, m, holding)
        policy = mi.make_balancing_policy(p, variant=variant)
        assert policy.uses_randomness
        assert len(policy._groups) == (1 if pooled else m)
        X = with_specials(grid_batch(p, 50, m))
        check_layout_independent(p, policy, X, [0, 10, p.periods - 1])


class TestCostKernels:
    def location_major(self, a):
        """a (n, B, M) as a view of (n, M, B) storage."""
        out = np.empty((a.shape[0], a.shape[2], a.shape[1])).transpose(0, 2, 1)
        out[...] = a
        return out

    @pytest.mark.parametrize("m", range(1, 10))
    def test_location_sum_and_total(self, m):
        gen = np.random.default_rng(m)
        a = gen.uniform(-3.0, 3.0, (4, 30, m))
        a[0, :4] = with_specials(a[0, :6])[:4]
        view = self.location_major(a)
        assert m == 1 or not view.flags.c_contiguous
        holding = widened(SECTOR, m, [0.1 * (i + 1) for i in range(m)]).holding
        assert same_bytes(location_sum(a), location_sum(view))
        assert same_bytes(holding.location_total(a), holding.location_total(view))
        assert same_bytes(location_sum(a[1]), location_sum(np.asfortranarray(a[1])))
        # a given out, C- or F-ordered or strided, gets the same bytes
        for arr in (a, view, a[:, ::3]):
            want = location_sum(arr)
            n, b = want.shape
            for out in (np.empty((n, b)), np.empty((b, n)).T, np.empty((n, 2 * b))[:, ::2]):
                assert location_sum(arr, out=out) is out and same_bytes(out, want)

    def test_eval_array(self):
        tight = mi.instances.build("tightness:M=2")
        z = np.array([[0.0, -0.0, 1.0, np.nan],
                      [2.0, 2.0 * (1.0 + mi.instances.tightness_delta(0.1, 1.0)),
                       3.5, 7.0]])
        for ordering in (SECTOR.ordering, AFFINE.ordering, tight.ordering):
            # a strided view and the transposed layout of the same totals
            assert same_bytes(ordering.eval_array(z), ordering.eval_array(np.asfortranarray(z)))
            assert same_bytes(ordering.eval_array(z.T), ordering.eval_array(z.T.copy()))
            assert same_bytes(ordering.eval_array(z[:, ::2]),
                              ordering.eval_array(z[:, ::2].copy()))

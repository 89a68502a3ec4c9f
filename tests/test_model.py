import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv.model import (DemandModel, DiscreteMarginal, Finite, Grid,
                           DISCOUNT_MATCH_TOL, HoldingBacklogCost, OrderingCost,
                           Piece, Problem, UniformMarginal,
                           UnsupportedDemandError, holding_backlog, location_sum,
                           single_location_problem, transform_uniform_draws,
                           validate_problem)
from multinv import rng
from multinv.testing import reference_holding_backlog


FIG1_DEMAND = DiscreteMarginal(values=(0.0, 1.0), probs=(0.5, 0.5))
FIG2_DEMAND = DiscreteMarginal(values=(0.0, 0.5, 1.0, 1.5),
                               probs=(0.125, 0.375, 0.375, 0.125))


class TestGrid:
    def test_points_by_index_arithmetic(self):
        g = Grid(lo=-2.0, hi=8.0, step=0.5)
        assert g.count == 21
        assert g.point(0) == -2.0
        assert g.point(20) == 8.0
        assert np.all(np.diff(g.points()) > 0)

    def test_index_roundtrip_and_offgrid(self):
        g = Grid(lo=-2.0, hi=4.0, step=1.0)
        for i in range(g.count):
            assert g.index(g.point(i)) == i
        with pytest.raises(ValueError):
            g.index(0.5)

    @pytest.mark.parametrize("grid", [Grid(-2.0, 4.0, 1.0), Grid(-2.0, 8.0, 0.5),
                                      Grid(0.1, 0.7, 0.3), Grid(3.0, 3.0, 1.0)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_states_in_c_order_and_indices_roundtrip(self, grid, m):
        n = grid.count
        idx = np.stack([g.ravel() for g in np.indices((n,) * m)], axis=1)
        X = grid.states(m)
        assert X.shape == (n ** m, m)
        assert X.tobytes() == grid.points()[idx].tobytes()
        assert np.array_equal(grid.indices(X), idx)
        assert np.array_equal(grid.indices(X.reshape((n,) * m + (m,))),
                              idx.reshape((n,) * m + (m,)))

    @given(i=hs.integers(0, 20), frac=hs.floats(1e-6, 1 - 1e-6),
           row=hs.integers(0, 2), col=hs.integers(0, 1))
    def test_indices_rejects_off_grid_values(self, i, frac, row, col):
        g = Grid(-2.0, 8.0, 0.5)
        value = g.point(i) + frac * g.step
        X = g.states(2)[:3].copy()
        X[row, col] = value
        with pytest.raises(ValueError, match=re.escape(f"value {value} ")):
            g.indices(X)

    @given(steps=hs.integers(1, 50), frac=hs.floats(0.0, 0.5),
           above=hs.booleans())
    def test_indices_rejects_values_outside_lo_hi(self, steps, frac, above):
        g = Grid(-2.0, 8.0, 0.5)
        offset = (steps - frac) * g.step  # at least one half step outside
        value = g.hi + offset if above else g.lo - offset
        with pytest.raises(ValueError, match=re.escape(f"value {value} ")):
            g.indices(np.array([[0.0, value]]))
        with pytest.raises(ValueError, match=re.escape(f"value {value} ")):
            g.index(value)

    def test_invalid_grids(self):
        assert Grid(lo=0.0, hi=1.0, step=-1.0).check()
        assert Grid(lo=0.0, hi=1.0, step=0.3).check()
        assert not Grid(lo=0.0, hi=1.2, step=0.3).check()


class TestOrderingCost:
    def test_nonlinear_doubling_cost(self):
        c = mi.instances.build("fig1_nonlinear").ordering
        assert c(2.0) == 8.0
        assert c(0.0) == 0.0
        assert c(1.0) == 2.0

    def test_volume_discount_cost(self):
        c = mi.instances.build("sector_sim").ordering
        assert c(8.0) == 28.0
        assert c(6.0) == 24.0

    def test_spans_start_at_the_previous_upper(self):
        c = mi.instances.build("sector_sim").ordering
        assert [(lo, p.upper) for lo, p in c.spans()] == [(0.0, 6.0), (6.0, math.inf)]
        z = np.array([0.0, 1e-9, 6.0, np.nextafter(6.0, 7.0), 1e6])
        expected = [0.0] + [p.fixed + p.slope * v for v in z[1:]
                            for lo, p in c.spans() if lo < v <= p.upper]
        assert c.eval_array(z).tolist() == expected

    def test_negative_order_rejected(self):
        c = mi.linear_cost(2.0)
        with pytest.raises(ValueError):
            c(-1.0)

    def test_discount_overrides_covering_piece(self):
        c = OrderingCost(pieces=(Piece(math.inf, 0.0, 4.0),),
                         discounts=((2.0, 1.0),))
        assert c(2.0) == 2.0
        assert c(2.0 + 1e-6) == pytest.approx(4.0 * 2.0, rel=1e-5)
        assert c(1.999999) == pytest.approx(4.0 * 1.999999, rel=1e-9)

    def test_lower_semicontinuity_at_boundaries(self):
        # sampled from both sides of every breakpoint: the value at the
        # breakpoint never exceeds the approach from the right
        for name in ("fig1_nonlinear", "sector_sim", "affine_sim"):
            c = mi.instances.build(name).ordering
            uppers = [p.upper for p in c.pieces if math.isfinite(p.upper)]
            for b in uppers:
                left = c(b)
                right = c(b + 1e-9)
                assert left <= right + 1e-6

    def test_downward_jump_rejected(self):
        c = OrderingCost(pieces=(Piece(1.0, 0.0, 4.0), Piece(math.inf, 0.0, 2.0)))
        assert any("semicontinuous" in e for e in c.check())

    def test_piece_order_validated(self):
        c = OrderingCost(pieces=(Piece(2.0, 0.0, 1.0), Piece(1.0, 0.0, 1.0)))
        assert c.check()


def reference_eval_array(c, z):
    """The ordering cost with its overrides applied by boolean indexing."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("ordering cost is defined for z >= 0 only")
    j = c.piece_index(z)
    fixed = np.array([p.fixed for p in c.pieces])
    rate = np.array([p.slope for p in c.pieces])
    out = np.asarray(fixed[j] + rate[j] * z)
    out[z == 0] = 0.0
    for zv, slope in c.discounts:
        mask = np.abs(z - zv) <= DISCOUNT_MATCH_TOL
        out[mask] = slope * z[mask]
    return out


# three pieces, a discount inside a piece and one on a piece boundary
MULTI_PIECE = OrderingCost(
    pieces=(Piece(2.0, 1.0, 3.0), Piece(5.0, 2.0, 2.5), Piece(math.inf, 4.0, 2.0)),
    discounts=((1.5, 2.0), (5.0, 2.0)))


def near(v, ulps):
    """v moved by ``ulps`` units in the last place (either sign)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        v = np.nextafter(v, toward)
    return float(v)


def override_points(c):
    """Zeros, every discount point and piece bound a few ULPs either side,
    and points just inside and just outside the discount match tolerance."""
    points = [0.0, -0.0, 0.5, 7.0, 1e6]
    for zv in [z for z, _ in c.discounts] + [p.upper for p in c.pieces[:-1]]:
        points += [near(zv, k) for k in range(-3, 4)]
        points += [zv + f * DISCOUNT_MATCH_TOL for f in (-2.0, -0.99, 0.99, 2.0)]
    return np.array(points)


def same_array(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes())


class TestOrderingOverrides:
    @pytest.mark.parametrize("cost", [
        MULTI_PIECE, mi.instances.build("sector_sim").ordering,
        mi.instances.build("tightness:M=2").ordering, mi.affine_cost(4.0, 1.0)])
    def test_matches_boolean_index_version(self, cost):
        z = override_points(cost)
        for arr in (z, z.reshape(1, -1), np.append(z, np.nan).reshape(-1, 1),
                    z[:0]):
            assert same_array(cost.eval_array(arr), reference_eval_array(cost, arr))
        assert np.count_nonzero(cost.eval_array(z) == 0.0) >= 2

    def test_scalar_input_through_call(self):
        for v in override_points(MULTI_PIECE):
            got = MULTI_PIECE.eval_array(np.asarray(v))
            want = reference_eval_array(MULTI_PIECE, np.asarray(v))
            assert same_array(got, want) and got.shape == ()
            assert MULTI_PIECE(float(v)) == float(want)
            assert math.copysign(1.0, MULTI_PIECE(float(v))) == math.copysign(1.0, float(want))

    @settings(max_examples=60, deadline=None)
    @given(z=hs.lists(hs.one_of(hs.floats(0.0, 12.0),
                                hs.sampled_from([0.0, -0.0, 1.5, 2.0, 5.0]),
                                hs.tuples(hs.sampled_from([1.5, 2.0, 5.0]),
                                          hs.integers(-4, 4)).map(lambda t: near(*t))),
                      max_size=12))
    def test_property_matches_boolean_index_version(self, z):
        z = np.array(z, dtype=float)
        assert same_array(MULTI_PIECE.eval_array(z), reference_eval_array(MULTI_PIECE, z))

    def test_negative_order_still_raises(self):
        with pytest.raises(ValueError, match="z >= 0"):
            MULTI_PIECE.eval_array(np.array([1.0, -1e-300, 2.0]))
        with pytest.raises(ValueError, match="z >= 0"):
            MULTI_PIECE(-2.0)


# Costs for the select kernel: the first piece with fixed == 0 (the
# z == 0 override is skipped) and fixed > 0 (it is applied), and costs no
# validation accepts, on which the override must still run: a -0.0 fixed
# charge, an infinite first slope, and z = 0 covered by a later piece.
KERNEL_COSTS = {
    "fixed_zero": mi.instances.build("tightness:M=2").ordering,
    "fixed_zero_multi": OrderingCost(
        pieces=(Piece(2.0, 0.0, 3.0), Piece(math.inf, 1.0, 2.5)),
        discounts=((1.0, 2.0), (2.0, 2.5), (7.5, 0.5))),
    "fixed_positive": MULTI_PIECE,
    "affine": mi.affine_cost(4.0, 1.0),
    "negative_zero_fixed": OrderingCost(pieces=(Piece(math.inf, -0.0, 2.0),)),
    "infinite_slope": OrderingCost(pieces=(Piece(1.0, 0.0, math.inf),
                                           Piece(math.inf, 0.0, 1.0))),
    "negative_slope": OrderingCost(pieces=(Piece(math.inf, 0.0, -1.0),)),
    "zero_in_second_piece": OrderingCost(pieces=(Piece(-1.0, 0.0, 1.0),
                                                 Piece(math.inf, 3.0, 1.0))),
}


def kernel_totals(c):
    """Signed zeros, NaN, every discount point and piece bound at
    zv +- {0.99, 1, 2} * DISCOUNT_MATCH_TOL, and a spread of other totals."""
    points = [0.0, -0.0, np.nan, 0.25, 3.0, 11.0, 1e6]
    for zv in [z for z, _ in c.discounts] + [p.upper for p in c.pieces[:-1]]:
        points += [zv + f * DISCOUNT_MATCH_TOL
                   for f in (-2.0, -1.0, -0.99, 0.0, 0.99, 1.0, 2.0)]
    return np.array([v for v in points if not v < 0])


class TestOrderingKernel:
    """The select kernel is bit-equal to the boolean-index reference."""

    @pytest.fixture(autouse=True)
    def _quiet_infinite_slope(self):
        # inf * 0 at z = 0 under the infinite slope warns in both versions
        with np.errstate(invalid="ignore"):
            yield

    @pytest.mark.parametrize("name", list(KERNEL_COSTS))
    def test_matches_reference_bytes(self, name):
        c = KERNEL_COSTS[name]
        z = kernel_totals(c)
        gen = np.random.default_rng(len(name))
        mixed = gen.choice(z, (32, 50))
        for arr in (z, z.reshape(-1, 1), mixed, mixed.T, z[:0], z[:0].reshape(0, 3)):
            got = c.eval_array(arr)
            assert same_array(got, reference_eval_array(c, arr)), name

    @pytest.mark.parametrize("name", list(KERNEL_COSTS))
    def test_no_hit_and_all_hits(self, name):
        c = KERNEL_COSTS[name]
        gen = np.random.default_rng(7)
        no_hit = gen.uniform(0.01, 9.0, (8, 500))
        no_hit = no_hit[~np.isin(no_hit, [z for z, _ in c.discounts])]
        cases = [no_hit, np.zeros((4, 5)), np.full((4, 5), -0.0)]
        cases += [np.full((3, 7), zv) for zv, _ in c.discounts]
        for arr in cases:
            assert same_array(c.eval_array(arr), reference_eval_array(c, arr)), name
        assert np.all(c.eval_array(np.zeros(3)) == 0.0)
        assert not np.signbit(c.eval_array(np.array([0.0, -0.0]))).any()

    @pytest.mark.parametrize("name", list(KERNEL_COSTS))
    def test_zero_d_input_through_call(self, name):
        c = KERNEL_COSTS[name]
        for v in kernel_totals(c):
            got = c.eval_array(np.asarray(v))
            want = reference_eval_array(c, np.asarray(v))
            assert same_array(got, want) and got.shape == ()
            assert c(float(v)).hex() == float(want).hex()

    def test_zero_override_skipped_only_when_exact(self):
        exact = {name: KERNEL_COSTS[name].piece_tables[2] for name in KERNEL_COSTS}
        assert exact == {"fixed_zero": True, "fixed_zero_multi": True,
                         "fixed_positive": False, "affine": False,
                         "negative_zero_fixed": False, "infinite_slope": False,
                         "negative_slope": True, "zero_in_second_piece": False}

    def test_tables_are_kept_and_read_only(self):
        c = OrderingCost(pieces=(Piece(2.0, 1.0, 3.0), Piece(math.inf, 2.0, 2.5)),
                         discounts=((1.5, 2.0),))
        twin = OrderingCost(pieces=(Piece(2.0, 1.0, 3.0), Piece(math.inf, 2.0, 2.5)),
                            discounts=((1.5, 2.0),))
        hash_before = hash(c)
        fixed, rate, zero_exact = c.piece_tables
        assert c.piece_tables[0] is fixed and c.piece_tables[1] is rate
        assert fixed.tolist() == [1.0, 2.0] and rate.tolist() == [3.0, 2.5]
        assert zero_exact is False
        for table in (fixed, rate):
            with pytest.raises(ValueError):
                table[0] = 9.0
        # the kept tables are not a field: equality and hashing ignore them
        assert twin == c and hash(twin) == hash(c) == hash_before
        assert c.eval_array(np.array([1.5, 3.0])).tolist() == [3.0, 9.5]
        assert c.piece_tables[0] is fixed


class TestHoldingCost:
    def test_backlog_dominates(self):
        r = HoldingBacklogCost(holding=(1.0,), backlog=(10.0,))
        cost = r.eval_batch(np.array([[-1.0], [0.0]]))[:, 0]
        assert cost[0] == 10.0
        assert cost[1] == 0.0

    def test_light_holding(self):
        r = HoldingBacklogCost(holding=(0.1,), backlog=(10.0,))
        assert r.eval_batch(np.array([2.0]))[0] == pytest.approx(0.2)

    def test_three_point_convexity(self):
        r = HoldingBacklogCost(holding=(0.3, 1.0), backlog=(7.0, 2.0))
        xs = np.linspace(-5, 5, 41)
        costs = r.eval_batch(np.column_stack([xs, xs]))
        for i in range(2):
            vals = costs[:, i]
            chords = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] <= chords + 1e-12)

    def test_degenerate_rates_rejected(self):
        assert HoldingBacklogCost(holding=(0.0,), backlog=(0.0,)).check()

    @pytest.mark.parametrize("m", range(1, 13))
    def test_location_total_equals_summed_eval_batch(self, m):
        gen = np.random.default_rng(m)
        holding, backlog = gen.uniform(0.0, 20.0, (2, m)).tolist()
        holding[::3] = [0] * len(holding[::3])  # zero and integer rates as well
        backlog[1::3] = [3] * len(backlog[1::3])
        r = HoldingBacklogCost(holding=tuple(holding), backlog=tuple(backlog))
        levels = gen.normal(0.0, 5.0, (4, 37, m))
        levels[0, :6] = [[0.0], [-0.0], [1e300], [-1e300], [5e-324], [np.nan]]
        for arr in (levels, levels[1], levels[:, 3:4]):
            got = r.location_total(arr)
            per_location = reference_holding_backlog(np.asarray(holding),
                                                     np.asarray(backlog), arr)
            assert r.eval_batch(arr).tobytes() == per_location.tobytes()
            want = location_sum(per_location)
            assert np.array_equal(got, want, equal_nan=True)
            assert got.tobytes() == want.tobytes() and got.shape == arr.shape[:-1]

    @pytest.mark.parametrize("a, b", [
        (0.3, 7.0), (0.0, 2.0), (2.0, 0.0), (1, 3),
        (np.full(3, 0.3), np.full(3, 7.0)), (np.zeros(3), np.full(3, 2.0)),
        (np.full(3, 2.0), np.zeros(3)), (np.array([0.0, 0.3, 2.0]), np.array([7.0, 0.0, 1.0]))],
        ids=["float", "float-a0", "float-b0", "int", "array", "array-a0", "array-b0",
             "array-mixed"])
    def test_holding_backlog_bytes_equal_two_sided_expression(self, a, b):
        # signed zeros, the smallest subnormals, one ulp either side of the
        # grid points, NaN of either sign and random finite levels; the
        # sign bit of every zero and NaN must match as well
        gen = np.random.default_rng(29)
        points = Grid(-2.0, 8.0, 0.5).points()
        tiny = np.nextafter(0.0, 1.0)
        y = np.concatenate((
            [0.0, -0.0, tiny, -tiny, 2 * tiny, np.nan, np.copysign(np.nan, -1.0)],
            points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
            gen.normal(0.0, 5.0, 300), gen.uniform(-1e-300, 1e-300, 30),
            [1e300, -1e300]))
        y = np.resize(y, (len(y), 3))
        y[:, 1] = -y[:, 1]
        y[:, 2] = y[::-1, 2]
        got = holding_backlog(a, b, y)
        # the reference row by row: numpy's add returns the second
        # operand's NaN in the remainder loop of a long array (its last
        # n % 8 entries here), so the reference's NaN sign depends on where
        # a level sits; on a 3-entry row it is the first operand's, y's own
        want = np.stack([reference_holding_backlog(a, b, row) for row in y])
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(np.signbit(got[np.isnan(y)]), np.signbit(y[np.isnan(y)]))
        finite = ~np.isnan(y)
        whole = reference_holding_backlog(a, b, y)
        assert got[finite].tobytes() == whole[finite].tobytes()


class TestDemand:
    def test_binomial_pmf_values(self):
        d = DemandModel(marginals=(FIG2_DEMAND,))
        values, probs = mi.demand_pmf(d, 0)
        assert probs[list(values).index(0.5)] == pytest.approx(0.375)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_point_pmf(self):
        d = DemandModel(marginals=(FIG1_DEMAND,))
        values, probs = mi.demand_pmf(d, 0)
        assert probs[0] == 0.5

    def test_uniform_has_no_pmf(self):
        d = DemandModel(marginals=(UniformMarginal(1.0, 1.1),))
        with pytest.raises(UnsupportedDemandError):
            mi.demand_pmf(d, 0)

    def test_uniform_support_membership(self):
        d = DemandModel(marginals=(UniformMarginal(1.0, 1.1),))
        stream = rng.stream(1, "support")
        draws = transform_uniform_draws(d, stream.random((200, 1)))[:, 0]
        assert np.all((draws >= 1.0) & (draws < 1.1))

    def test_degenerate_atom(self):
        d = DemandModel(marginals=(DiscreteMarginal((2.0,), (1.0,)),))
        assert transform_uniform_draws(d, rng.stream(5).random(1))[0] == 2.0

    def test_empirical_frequencies_match_pmf(self):
        d = DemandModel(marginals=(FIG2_DEMAND,))
        stream = rng.stream(123, "freq")
        draws = transform_uniform_draws(d, stream.random((100_000, 1)))[:, 0]
        values, probs = mi.demand_pmf(d, 0)
        n = len(draws)
        for v, p in zip(values, probs):
            freq = np.mean(draws == v)
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * sigma

    def test_bounded_support(self):
        p = mi.instances.build("sector_sim")
        for i in range(p.m):
            assert np.isfinite(p.demand.marginals[i].max_value)
            values, _ = mi.demand_pmf(p.demand, i)
            assert np.all(values >= 0)


def searchsorted_draws(d, raw):
    """The discrete lookup as ``np.searchsorted`` over the cumulative with
    its last entry forced to 1.0, then a clipped ``take``."""
    out = np.empty_like(raw, dtype=float)
    for i, g in enumerate(d.marginals):
        if isinstance(g, DiscreteMarginal):
            values, probs = g.sorted_pmf()
            cum = np.cumsum(probs)
            cum[-1] = 1.0
            idx = np.searchsorted(cum, raw[..., i], side="right")
            out[..., i] = np.take(values, idx, mode="clip")
        else:
            out[..., i] = raw[..., i] * (g.hi - g.lo) + g.lo
    return out


SPECIAL_DRAWS = [0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, 1.5, -1.0,
                 np.inf, -np.inf, np.nan]


def random_marginal(k, seed):
    """k atoms with shuffled values, zero probability on about a third of
    them and positive probability on the largest value."""
    gen = np.random.default_rng(seed)
    probs = gen.random(k) + 0.01
    if k > 2:
        probs[1:-1] *= gen.random(k - 2) > 1 / 3
    probs /= probs.sum()
    values = gen.permutation(np.round(np.sort(gen.random(k)) * 100 + np.arange(k), 3))
    order = np.argsort(values)
    # positive probability on the largest value, so the last atom is live
    if probs[order[-1]] == 0.0:
        probs[order[-1]], probs[order[0]] = probs[order[0]], 0.0
    return DiscreteMarginal(tuple(values.tolist()), tuple(probs.tolist()))


def lookup_inputs(marginal):
    """Every cumulative threshold and its neighbours 1 ulp away, then the
    special draws and a few plain uniforms."""
    _, probs = marginal.sorted_pmf()
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    ties = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    plain = np.random.default_rng(len(cum)).random(16)
    return np.concatenate([ties, SPECIAL_DRAWS, plain])


LOOKUP_MARGINALS = [random_marginal(k, seed=k) for k in range(1, 9)] + [
    random_marginal(64, seed=64)]
MIXED_DEMAND = DemandModel(marginals=(LOOKUP_MARGINALS[3], UniformMarginal(0.25, 1.75),
                                      LOOKUP_MARGINALS[-1], LOOKUP_MARGINALS[0]))


class TestDiscreteLookup:
    """The counted-down lookup gives searchsorted's atom for every input."""

    @pytest.mark.parametrize("marginal", LOOKUP_MARGINALS,
                             ids=lambda g: f"K{len(g.values)}")
    def test_zero_d_columns_match_searchsorted(self, marginal):
        # one (M,) draw, so each column is 0-d
        d = DemandModel(marginals=(marginal, UniformMarginal(0.5, 2.0)))
        for u in lookup_inputs(marginal):
            raw = np.array([u, u])
            got = transform_uniform_draws(d, raw)
            assert got.tobytes() == searchsorted_draws(d, raw).tobytes(), u

    @pytest.mark.parametrize("block", [1, 13, 1 << 16])
    def test_in_place_block_matches_searchsorted(self, block):
        # a (block, n, M) array of one row, of a few rows and of many rows
        # transformed in place, mixed marginals
        d = MIXED_DEMAND
        cols = [np.resize(lookup_inputs(g), block * 6) if isinstance(g, DiscreteMarginal)
                else np.resize(SPECIAL_DRAWS, block * 6) for g in d.marginals]
        raw = np.stack(cols, axis=-1).reshape(block, 6, d.m)
        want = searchsorted_draws(d, raw)
        got = transform_uniform_draws(d, raw, out=raw)
        assert got is raw
        assert raw.tobytes() == want.tobytes()

    @pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in_place"])
    @pytest.mark.parametrize("shape", [(0,), (0, 6), (5, 0)], ids=str)
    def test_empty_axes(self, shape, in_place):
        # no draws on a leading axis: nothing to look up, the shape kept
        raw = np.empty(shape + (MIXED_DEMAND.m,))
        got = transform_uniform_draws(MIXED_DEMAND, raw, out=raw if in_place else None)
        assert got.shape == raw.shape and got.dtype == float
        assert (got is raw) == in_place

    def test_zero_probability_end_atoms_are_never_drawn(self):
        # cumsum of ten 0.1s is 0.9999999999999999 < 1, so a draw at that
        # value would reach the last atom if only cum[-1] were set to 1
        g = DiscreteMarginal(tuple(float(v) for v in range(12)),
                             (0.0,) + (0.1,) * 10 + (0.0,))
        assert g.check("demand") == []
        d = DemandModel(marginals=(g,))
        top = np.nextafter(1.0, 0.0)
        assert top == 0.9999999999999999
        draws = transform_uniform_draws(d, np.array([[top], [0.95], [0.0]]))
        assert draws[:, 0].tolist() == [10.0, 10.0, 1.0]

    def test_lookup_is_computed_once_and_read_only(self):
        g = DiscreteMarginal((1.5, 0.0, 0.5), (0.25, 0.5, 0.25))
        values, thresholds = g.lookup
        assert g.lookup[0] is values and g.lookup[1] is thresholds
        assert values.tolist() == [0.0, 0.5, 1.5]
        assert thresholds == (0.5, 0.75, 1.0)
        with pytest.raises(ValueError):
            values[0] = 9.0
        # the kept lookup is not a field: equality and hashing ignore it
        twin = DiscreteMarginal((1.5, 0.0, 0.5), (0.25, 0.5, 0.25))
        assert twin == g and hash(twin) == hash(g)
        d = DemandModel(marginals=(g,))
        raw = np.array([[0.49], [0.5], [0.75], [0.999]])
        assert transform_uniform_draws(d, raw).tobytes() == \
            searchsorted_draws(d, raw).tobytes()
        assert g.lookup[0] is values


class TestValidation:
    def test_builtin_instances_valid(self):
        for name in ("fig1_linear", "fig1_nonlinear", "sector_sim",
                     "affine_sim", "tightness:M=2,eps=0.1,l=1,h=4,p=100"):
            assert validate_problem(mi.instances.build(name)) == []

    def test_offgrid_demand_only_flagged_for_dp(self):
        p = mi.instances.build("sector_sim")
        bad = DemandModel(marginals=(DiscreteMarginal((0.3,), (1.0,)),) * 2)
        from dataclasses import replace
        q = replace(p, demand=bad)
        assert validate_problem(q) == []
        errors = validate_problem(q, dp=True)
        assert any("off-grid" in e for e in errors)

    def test_unnormalized_probs(self):
        bad = DiscreteMarginal(values=(0.0, 1.0), probs=(0.5, 0.4))
        errors = bad.check("demand[0]")
        assert any("sum" in e for e in errors)

    def test_all_errors_collected_with_paths(self):
        p = Problem(
            m=2,
            horizon=Finite(0),
            ordering=OrderingCost(pieces=(Piece(math.inf, -1.0, 1.0),)),
            holding=HoldingBacklogCost(holding=(0.0,), backlog=(0.0,)),
            demand=DemandModel(marginals=(DiscreteMarginal((0.0,), (0.9,)),)),
            grid=Grid(0.0, 1.0, 0.3),
            max_order_per_location=-1.0)
        errors = validate_problem(p)
        assert len(errors) >= 5
        assert any(e.startswith("grid") for e in errors)
        assert any(e.startswith("holding") for e in errors)
        with pytest.raises(mi.ValidationError):
            p.validate()

    @pytest.mark.parametrize("cost, message", [
        (OrderingCost((Piece(math.inf, 0.0, math.inf),)),
         "ordering.pieces[0]: fixed and slope must be finite"),
        (OrderingCost((Piece(math.inf, 0.0, math.nan),)),
         "ordering.pieces[0]: fixed and slope must be finite"),
        (OrderingCost((Piece(math.inf, math.nan, 1.0),)),
         "ordering.pieces[0]: fixed and slope must be finite"),
        (OrderingCost((Piece(math.inf, 0.0, 1.0),), ((2.0, math.nan),)),
         "ordering.discounts: z values and slopes must be finite"),
        (OrderingCost((Piece(math.inf, 0.0, 1.0),), ((math.nan, 1.0),)),
         "ordering.discounts: z values and slopes must be finite"),
        (OrderingCost((Piece(math.nan, 0.0, 1.0), Piece(math.inf, 0.0, 1.0))),
         "ordering.pieces[0]: upper must be finite (only the last piece's is inf)"),
    ])
    def test_non_finite_ordering_cost_rejected(self, cost, message):
        assert message in cost.check()

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_holding_rates_rejected(self, rate):
        for r in (HoldingBacklogCost(holding=(rate,), backlog=(1.0,)),
                  HoldingBacklogCost(holding=(1.0, 0.5), backlog=(2.0, rate))):
            assert [e for e in r.check() if "finite" in e] == [
                f"holding[{r.m - 1}]: rates must be finite"]

    @pytest.mark.parametrize("field", ["lo", "hi", "step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, field, value):
        from dataclasses import replace
        g = replace(Grid(-2.0, 8.0, 0.5), **{field: value})
        assert g.check() == [f"grid.{field}: must be finite"]
        p = replace(mi.instances.build("sector_sim"), grid=g)
        assert f"grid.{field}: must be finite" in validate_problem(p, dp=True)

    def test_non_finite_demand_rejected(self):
        assert DiscreteMarginal((math.nan, 1.0), (0.5, 0.5)).check("demand[0]") == [
            "demand[0]: demand values must be finite"]
        errors = DiscreteMarginal((0.0, 1.0), (math.nan, 0.5)).check("demand[1]")
        assert "demand[1]: probabilities must be finite" in errors
        assert "demand[1]: probabilities sum to nan, not 1" in errors
        from dataclasses import replace
        p = mi.instances.build("sector_sim")
        q = replace(p, demand=DemandModel(marginals=(
            DiscreteMarginal((0.0, math.nan), (0.5, 0.5)), p.demand.marginals[1])))
        errors = validate_problem(q, dp=True)
        assert "demand[0]: demand values must be finite" in errors
        assert "demand[0]: value nan is off-grid for step 0.5" in errors

    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_non_finite_order_cap_rejected(self, cap):
        from dataclasses import replace
        p = replace(mi.instances.build("sector_sim"), max_order_per_location=cap)
        assert validate_problem(p) == ["max_order_per_location: must be finite"]

    def test_single_location_restriction(self):
        p = mi.instances.build("sector_sim")
        sub = single_location_problem(p, 1)
        assert sub.m == 1
        assert sub.holding.holding == (p.holding.holding[1],)
        assert validate_problem(sub, dp=True) == []

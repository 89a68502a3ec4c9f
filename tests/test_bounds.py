import collections
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import multinv as mi
from multinv import bounds
from multinv.bounds import (AffineFit, FitUnavailableError, NotSectorBoundableError,
                            fit_affine, fit_sector, report, theoretical_ratio)
from multinv.model import DISCOUNT_MATCH_TOL, Grid, OrderingCost, Piece
from multinv.testing import envelope_gap, random_problem


def sector_cost():
    return mi.instances.build("sector_sim").ordering


def affine_cost_14():
    return mi.instances.build("affine_sim").ordering


# Costs on which an earlier vertex-search fit was suboptimal or raised,
# with their exact optimal envelopes (K_l, l, K_h, h) and objectives at M = 2.
JUMP_CONVEX = OrderingCost(pieces=(Piece(1.0, 2.0, 1.0), Piece(math.inf, 0.0, 4.0)))
KINKED_CONVEX = OrderingCost(pieces=(Piece(2.0, 3.0, 1.5), Piece(math.inf, 0.0, 3.0)))
DEEP_DISCOUNT = OrderingCost(pieces=(Piece(math.inf, 3.0, 1.0),), discounts=((4.0, 0.5),))
DEFECT_FITS = [(JUMP_CONVEX, (1.0, 2.0, 2.0, 4.0), 4.0),
               (KINKED_CONVEX, (2.0, 2.0, 3.0, 3.0), 3.0),
               (DEEP_DISCOUNT, (6.0 / 7.0, 2.0 / 7.0, 3.0, 1.0), 7.0)]


@hs.composite
def ordering_costs(draw, jump_at_zero=True):
    """1-4 piece costs, convex, concave or mixed, with upward jumps at
    some breakpoints and up to two discount points, all passing
    ``OrderingCost.check``; c(0+) > 0 exactly when ``jump_at_zero``."""
    n = draw(hs.integers(1, 4))
    slopes = draw(hs.lists(hs.floats(0.1, 5.0), min_size=n, max_size=n))
    shape = draw(hs.sampled_from(["convex", "concave", "mixed"]))
    if shape != "mixed":
        slopes.sort(reverse=shape == "concave")
    widths = draw(hs.lists(hs.floats(0.25, 4.0), min_size=n - 1, max_size=n - 1))
    uppers = list(itertools.accumulate(widths)) + [math.inf]
    fixed = draw(hs.floats(0.1, 6.0)) if jump_at_zero else 0.0
    pieces = [Piece(uppers[0], fixed, slopes[0])]
    for upper, slope in zip(uppers[1:], slopes[1:]):
        b = pieces[-1].upper
        jump = draw(hs.sampled_from([0.0, 0.0, 0.5, 2.0]))
        left = pieces[-1].fixed + pieces[-1].slope * b
        pieces.append(Piece(upper, max(left + jump - slope * b, 0.0), slope))
    base = OrderingCost(pieces=tuple(pieces))
    zs = draw(hs.lists(hs.floats(0.05, uppers[-2] + 4.0 if n > 1 else 8.0),
                       max_size=2, unique=True))
    fracs = draw(hs.lists(hs.floats(0.1, 1.0), min_size=len(zs), max_size=len(zs)))
    cost = OrderingCost(pieces=tuple(pieces),
                        discounts=tuple((z, f * base(z) / z) for z, f in zip(zs, fracs)))
    assert not cost.check()
    return cost


def dense_grid(cost):
    """z > 0 densely up to past the last breakpoint, plus every
    breakpoint, its right neighbour, every discount z, the nearest points
    on either side outside the discount's match band (so both one-sided
    limits of c are read there, also at a discount on a breakpoint) and
    far points."""
    ends = [p.upper for p in cost.pieces[:-1]]
    discounts = np.array([z for z, _ in cost.discounts])
    return np.concatenate([np.linspace(1e-9, (ends[-1] if ends else 0.0) + 10.0, 2_001),
                           ends, np.nextafter(ends, math.inf), discounts,
                           np.nextafter(discounts - DISCOUNT_MATCH_TOL, -math.inf),
                           np.nextafter(discounts + DISCOUNT_MATCH_TOL, math.inf),
                           [1e3, 1e6]])


class TestFitSector:
    def test_volume_discount_constants(self):
        fit = fit_sector(sector_cost())
        assert (fit.l, fit.h) == (2.0, 4.0)
        assert fit.l_witness == "limit"
        assert fit.h_witness == 6.0

    def test_linear_is_its_own_sector(self):
        fit = fit_sector(mi.linear_cost(2.0))
        assert (fit.l, fit.h) == (2.0, 2.0)

    def test_fixed_charge_at_zero_rejected(self):
        with pytest.raises(NotSectorBoundableError):
            fit_sector(affine_cost_14())

    def test_vanishing_cost_rejected(self):
        with pytest.raises(ValueError):
            fit_sector(mi.linear_cost(0.0))

    def test_discount_points_enter_the_sector(self):
        c = mi.instances.build("tightness:M=2,eps=0.1,l=1,h=4,p=100").ordering
        fit = fit_sector(c)
        assert (fit.l, fit.h) == (1.0, 4.0)

    def test_feasible_on_dense_sample(self):
        fit = fit_sector(sector_cost())
        z = np.linspace(1e-9, 50.0, 10_000)
        lo_slack, hi_slack = envelope_gap(sector_cost(), fit, z)
        assert np.min(lo_slack) >= -1e-9
        assert np.min(hi_slack) >= -1e-9

    def test_optimal_against_slope_grid_oracle(self):
        c = sector_cost()
        fit = fit_sector(c)
        z = np.linspace(1e-4, 200.0, 40_001)
        cz = c.eval_array(z)
        best = math.inf
        for l in np.linspace(0.25, 4.0, 16):
            if np.any(l * z > cz + 1e-9):
                continue
            h = float(np.max(cz / z))
            best = min(best, h / l)
        assert fit.h / fit.l <= best + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(ordering_costs(jump_at_zero=False))
    def test_property_sector_holds_on_dense_grid(self, cost):
        fit = fit_sector(cost)
        z = dense_grid(cost)
        ratio = cost.eval_array(z) / z
        assert np.all(fit.l <= ratio * (1 + 1e-12))
        assert np.all(ratio <= fit.h * (1 + 1e-12))


class TestFitAffine:
    def test_two_piece_fixed_charge_cost(self):
        fit = fit_affine(affine_cost_14(), 2)
        assert fit.K_l == pytest.approx(4.0, abs=1e-9)
        assert fit.l == pytest.approx(1.0, abs=1e-9)
        assert fit.K_h == pytest.approx(6.4, abs=1e-9)
        assert fit.h == pytest.approx(1.6, abs=1e-9)
        assert fit.objective == pytest.approx(3.2, abs=1e-9)

    def test_affine_bounds_itself(self):
        fit = fit_affine(mi.affine_cost(5.0, 3.0), 3)
        assert (fit.K_l, fit.l, fit.K_h, fit.h) == (5.0, 3.0, 5.0, 3.0)
        assert fit.objective == pytest.approx(3.0)

    def test_zero_jump_rejected(self):
        with pytest.raises(ValueError):
            fit_affine(sector_cost(), 2)

    def test_feasible_on_dense_sample(self):
        fit = fit_affine(affine_cost_14(), 2)
        z = np.linspace(1e-9, 100.0, 10_000)
        lo_slack, hi_slack = envelope_gap(affine_cost_14(), fit, z)
        assert np.min(lo_slack) >= -1e-9
        assert np.min(hi_slack) >= -1e-9

    def brute_force_objective(self, cost, m_locations):
        z = np.concatenate([np.linspace(1e-6, 60.0, 24_001),
                            np.linspace(60.0, 4000.0, 500)])
        cz = cost.eval_array(z)
        best = math.inf
        k_max = cost.fixed_charge_at_zero
        for K in np.linspace(k_max / 40, k_max, 40):
            for l in np.linspace(0.0, 4.0, 81):
                lower = K + l * z
                if np.any(lower > cz + 1e-9):
                    continue
                rho = float(np.max(cz / lower))
                tail = cost.pieces[-1]
                if l > 0:
                    rho = max(rho, tail.slope / l)
                elif tail.slope > 0:
                    continue
                best = min(best, m_locations * rho)
        return best

    def test_matches_grid_oracle_on_reference_cost(self):
        fit = fit_affine(affine_cost_14(), 2)
        oracle = self.brute_force_objective(affine_cost_14(), 2)
        assert fit.objective <= oracle + 1e-6

    def test_matches_grid_oracle_on_random_costs(self):
        rng = np.random.default_rng(1234)
        for _ in range(5):
            K0 = float(rng.uniform(1.0, 6.0))
            m1 = float(rng.uniform(1.0, 4.0))
            b = float(rng.uniform(2.0, 8.0))
            m2 = float(rng.uniform(0.3, m1))
            lift = K0 + (m1 - m2) * b  # continuous at the breakpoint
            cost = OrderingCost(pieces=(Piece(b, K0, m1),
                                        Piece(math.inf, lift, m2)))
            assert not cost.check()
            fit = fit_affine(cost, 2)
            oracle = self.brute_force_objective(cost, 2)
            assert fit.objective <= oracle + 1e-6
            z = np.linspace(1e-9, 400.0, 20_000)
            lo_slack, hi_slack = envelope_gap(cost, fit, z)
            assert np.min(lo_slack) >= -1e-7
            assert np.min(hi_slack) >= -1e-7

    @pytest.mark.parametrize("cost, envelope, objective", DEFECT_FITS,
                             ids=["jump_convex", "kinked_convex", "deep_discount"])
    def test_exact_envelopes_on_former_defects(self, cost, envelope, objective):
        fit = fit_affine(cost, 2)
        assert (fit.K_l, fit.l, fit.K_h, fit.h) == pytest.approx(envelope, abs=1e-12)
        assert fit.objective == pytest.approx(objective, abs=1e-12)
        assert theoretical_ratio(fit, 2, "sS") == pytest.approx(objective, abs=1e-12)
        lo_slack, hi_slack = envelope_gap(cost, fit, dense_grid(cost))
        assert np.min(lo_slack) >= -1e-9
        assert np.min(hi_slack) >= -1e-9

    def test_optimal_face_takes_largest_K(self):
        # c = 1 on (0, 1] and 9 + z beyond: the rows at z = 1 and 1+ give
        # s <= 1/10 on the whole segment K + l = 1, 0.1 <= K <= 0.9
        cost = OrderingCost(pieces=(Piece(1.0, 1.0, 0.0), Piece(math.inf, 9.0, 1.0)))
        fit = fit_affine(cost, 2)
        assert (fit.K_l, fit.l, fit.K_h, fit.h) == pytest.approx((0.9, 0.1, 9.0, 1.0),
                                                                 abs=1e-12)
        assert fit.objective == pytest.approx(20.0, abs=1e-12)

    def test_flat_cost_is_its_own_envelope(self):
        fit = fit_affine(mi.affine_cost(5.0, 0.0), 3)
        assert (fit.K_l, fit.l, fit.K_h, fit.h) == (5.0, 0.0, 5.0, 0.0)
        assert fit.objective == 3.0
        assert theoretical_ratio(fit, 3, "sS") == 3.0

    def test_zero_cost_discount_point_rejected(self):
        cost = OrderingCost(pieces=(Piece(math.inf, 3.0, 1.0),), discounts=((4.0, 0.0),))
        assert not cost.check()
        with pytest.raises(FitUnavailableError):
            fit_affine(cost, 2)

    @pytest.mark.parametrize("cost", [mi.affine_cost(5.0, 0.0), mi.affine_cost(5.0, 3.0),
                                      affine_cost_14(), DEEP_DISCOUNT])
    def test_fields_are_python_floats_without_negative_zero(self, cost):
        fit = fit_affine(cost, 2)
        fields = (fit.K_l, fit.l, fit.K_h, fit.h, fit.objective)
        assert all(type(v) is float for v in fields)
        assert all(math.copysign(1.0, v) == 1.0 for v in fields)

    def widened_grid_objective(self, cost, m_locations):
        """min over a (K, l) grid covering every feasible l (0..m_tail) of
        M * sup c/(K + l*z), both read on ``dense_grid``."""
        z = dense_grid(cost)
        cz = cost.eval_array(z)
        m_tail = cost.pieces[-1].slope
        ls = np.linspace(0.0, m_tail, 41)
        best = math.inf
        for K in np.linspace(0.0, cost.fixed_charge_at_zero, 41)[1:]:
            lower = K + ls[:, None] * z
            ok = np.all(lower <= cz + 1e-9, axis=1)
            rho = np.max(cz / lower, axis=1)
            with np.errstate(divide="ignore"):
                rho = np.maximum(rho, np.where(ls > 0, m_tail / ls,
                                               np.where(m_tail > 0, math.inf, 0.0)))
            best = min(best, m_locations * float(np.min(rho[ok], initial=math.inf)))
        return best

    @settings(max_examples=40, deadline=None)
    @given(ordering_costs())
    def test_property_envelopes_hold_and_beat_grid_oracle(self, cost):
        fit = fit_affine(cost, 2)
        z = dense_grid(cost)
        tol = 1e-9 * (1.0 + float(np.max(cost.eval_array(z))))
        lo_slack, hi_slack = envelope_gap(cost, fit, z)
        assert np.min(lo_slack) >= -tol
        assert np.min(hi_slack) >= -tol
        assert fit.objective <= self.widened_grid_objective(cost, 2) * (1 + 1e-9)
        assert math.copysign(1.0, fit.l) == 1.0


class TestTheoreticalRatio:
    def test_sector_bounds(self):
        fit = fit_sector(sector_cost())
        assert theoretical_ratio(fit, 2, "base_stock") == 2.0
        assert theoretical_ratio(fit, 2, "online") == 4.0

    def test_linear_cost_trivial_bounds(self):
        fit = fit_sector(mi.linear_cost(3.0))
        assert theoretical_ratio(fit, 2, "base_stock") == 1.0
        assert theoretical_ratio(fit, 2, "online") == 2.0

    def test_online_factors_are_exact_multiples(self):
        s = fit_sector(sector_cost())
        assert theoretical_ratio(s, 2, "online") == 2.0 * theoretical_ratio(
            s, 2, "base_stock")
        a = fit_affine(affine_cost_14(), 2)
        assert theoretical_ratio(a, 2, "online") == 3.0 * theoretical_ratio(
            a, 2, "sS")

    def test_published_reproduction_parameters_imply_published_bounds(self):
        # the (s,S)-construction constants shipped with the affine
        # instance imply the online bound 8 used in its benchmark
        Kh, h = mi.instances.DIAMOND_DEFAULTS["affine_sim"]
        fit = AffineFit(K_l=4.0, l=1.0, K_h=Kh, h=h,
                        objective=2 * max(Kh / 4.0, h / 1.0), m_locations=2)
        assert fit.objective == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert theoretical_ratio(fit, 2, "online") == pytest.approx(8.0, abs=1e-12)

    def test_mismatched_fit_and_family(self):
        s = fit_sector(sector_cost())
        a = fit_affine(affine_cost_14(), 2)
        with pytest.raises(ValueError):
            theoretical_ratio(s, 2, "sS")
        with pytest.raises(ValueError):
            theoretical_ratio(a, 2, "base_stock")

    def test_report_renders_both_fits(self):
        text = report(sector_cost(), 2)
        assert "h/l = 2" in text
        text = report(affine_cost_14(), 2)
        assert "sector fit: unavailable" in text

    def test_fits_raise_their_own_error(self):
        assert issubclass(NotSectorBoundableError, FitUnavailableError)
        with pytest.raises(FitUnavailableError):
            fit_sector(mi.linear_cost(0.0))
        with pytest.raises(FitUnavailableError):
            fit_affine(sector_cost(), 2)

    @pytest.mark.parametrize("name", ["fit_sector", "fit_affine"])
    def test_report_lets_other_errors_escape(self, monkeypatch, name):
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(bounds, name, boom)
        with pytest.raises(ValueError, match="boom"):
            report(sector_cost(), 2)


def structure_error_class(exc, grid, cap) -> str:
    """Which way a decoupled build's ``StructureError`` departs from (s,S)
    structure: "floor" (the grid floor orders nothing while a state above
    it orders), "cap" (a state below s orders less than the order cap,
    where (s,S) truncated to the cap expects the full cap), "not
    base-stock" (a valid (s,S) stage with s < S), or the message itself."""
    msg = str(exc)
    if msg.endswith(f"orders above the reorder point {grid.lo}"):
        return "floor"
    found = re.search(r"orders (\S+), expected (\S+) for S=", msg)
    if found and float(found[1]) < float(found[2]) == cap:
        return "cap"
    if "is not base-stock" in msg:
        return "not base-stock"
    return msg


class TestGuaranteesExact:
    """The paper's worst-case bounds for decoupled policies, checked on
    small random problems with both costs exact: ``evaluate_policy_exact``
    of the decoupled policy against the DP optimum, at every initial state
    with a positive optimal cost.  pi_square from the sector fit's l is
    bounded by h/l; pi_diamond from the affine fit's (K_h, h) by
    M*max(K_h/K_l, h/l)."""

    @staticmethod
    def two_pieces(fixed):
        def pieces(rng):
            b = float(0.5 * rng.integers(1, 5))
            m1, m2 = (float(v) for v in rng.uniform(0.5, 4.0, 2))
            K = float(rng.uniform(0.5, 3.0)) if fixed else 0.0
            # lower semicontinuous: no downward jump at b
            lift = K + max(0.0, (m1 - m2) * b) + float(rng.uniform(0.0, 2.0))
            return Piece(b, K, m1), Piece(math.inf, lift, m2)
        return pieces

    def test_decoupled_policies_within_their_bounds(self):
        rng = np.random.default_rng(4)
        grid = Grid(-2.0, 3.0, 0.5)
        evaluated = collections.Counter()
        errors = collections.Counter()
        violations = []
        for j in range(300):
            m = int(rng.integers(1, 4))
            fixed = j % 2 == 1
            p = random_problem(rng, m, int(rng.integers(2, 5)), grid, atoms=(2, 4),
                               support=4, pieces=self.two_pieces(fixed),
                               cap=lambda rng: float(0.5 * rng.integers(2, 5)))
            if fixed:
                family, fit = "sS", fit_affine(p.ordering, m)
            else:
                family, fit = "base_stock", fit_sector(p.ordering)
            bound = theoretical_ratio(fit, m, family)
            try:
                policy = (mi.make_pi_diamond(p, fit.K_h, fit.h) if fixed
                          else mi.make_pi_square(p, fit.l))
            except mi.StructureError as exc:
                errors[family, structure_error_class(
                    exc, grid, p.max_order_per_location)] += 1
                continue
            _, tab = mi.solve_joint_dp(p)
            den = mi.evaluate_policy_exact(p, mi.TabularGridPolicy(tab))
            num = mi.evaluate_policy_exact(p, policy)
            positive = den > 0
            ratio = float(np.max(num[positive] / den[positive]))
            evaluated[family] += 1
            if ratio > bound * (1 + 1e-9):
                violations.append((j, family, ratio, bound))
        assert violations == []
        # every build that is not evaluated is counted by its cause; a new
        # cause, or a change in how often one occurs, fails here
        assert dict(evaluated) == {"base_stock": 143, "sS": 110}
        assert dict(errors) == {("base_stock", "floor"): 7, ("sS", "floor"): 32,
                                ("sS", "cap"): 8}

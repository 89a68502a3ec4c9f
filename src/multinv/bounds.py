"""Sector and affine envelopes of ordering costs, and the worst-case
ratio formulas they imply.

A sector fit squeezes c between l*z and h*z; an affine fit squeezes it
between K_l*1(z) + l*z and K_h*1(z) + h*z.  The implied worst-case cost
ratios of simple decoupled policies against the optimal coupled policy
are h/l (decoupled base-stock, sector) and M*max{K_h/K_l, h/l}
(decoupled (s,S), affine); the online balancing policy doubles the
first and triples the second.

Both fits are computed analytically from the cost's affine pieces: on a
piece, c(z)/z and ratios of affine functions are monotone in z, so
extrema sit at piece boundaries, at the 0+ limit, or at infinity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import OrderingCost


class FitUnavailableError(ValueError):
    """No envelope of the requested kind exists for this cost."""


class NotSectorBoundableError(FitUnavailableError):
    pass


@dataclass(frozen=True)
class SectorFit:
    l: float
    h: float
    l_witness: object  # z value, or "limit" when approached but not attained
    h_witness: object


@dataclass(frozen=True)
class AffineFit:
    K_l: float
    l: float
    K_h: float
    h: float
    objective: float  # M * max{K_h/K_l, h/l}, with the h=l=0 case read as K_h/K_l
    m_locations: int


def _ratio_candidates(cost: OrderingCost):
    """Candidate (value, witness) extrema of c(z)/z over z > 0."""
    out = []
    for lower, piece in cost.spans():
        if piece.fixed == 0.0:
            witness = piece.upper if math.isfinite(piece.upper) else lower + 1.0
            out.append((piece.slope, witness))
        else:
            if lower == 0.0:
                raise NotSectorBoundableError(
                    "fixed charge at 0+ makes c(z)/z diverge; use the affine fit")
            out.append((piece.fixed / lower + piece.slope, "limit"))  # z -> lower+
            if math.isfinite(piece.upper):
                out.append((piece.fixed / piece.upper + piece.slope, piece.upper))
            else:
                out.append((piece.slope, "limit"))  # z -> infinity
    for z, slope in cost.discounts:
        out.append((slope, z))
    return out


def fit_sector(cost: OrderingCost) -> SectorFit:
    """Tightest sector l = inf c(z)/z, h = sup c(z)/z over all z > 0.

    Requires c with no jump at 0+ (a fixed charge there makes the ratio
    diverge); fixed charges on later pieces are fine, their ratio
    extremes are finite limits at the piece edges.
    """
    candidates = _ratio_candidates(cost)
    l, l_wit = min(candidates, key=lambda c: c[0])
    h, h_wit = max(candidates, key=lambda c: c[0])
    if l <= 0:
        raise FitUnavailableError("c vanishes on part of z > 0, the sector lower slope is 0")
    return SectorFit(l=l, h=h, l_witness=l_wit, h_witness=h_wit)


# ---------------------------------------------------------------------------
# Affine fit
# ---------------------------------------------------------------------------

def _lower_constraints(cost: OrderingCost):
    """Half-planes K + l*z <= value constraining a lower affine envelope,
    as (z, value) anchors, plus the tail slope limit (or None)."""
    anchors = []
    tail_slope = None
    tail_fixed = None
    for lower, piece in cost.spans():
        anchors.append((lower, piece.fixed + piece.slope * lower))  # z -> lower+
        if math.isfinite(piece.upper):
            anchors.append((piece.upper, piece.fixed + piece.slope * piece.upper))
        else:
            tail_slope = piece.slope
            tail_fixed = piece.fixed
    for z, slope in cost.discounts:
        anchors.append((z, slope * z))
    return anchors, tail_slope, tail_fixed


def _lower_feasible(K: float, l: float, anchors, tail_slope, tail_fixed) -> bool:
    if K < 0 or l < 0:
        return False
    eps = 1e-9
    for z, value in anchors:
        if K + l * z > value + eps:
            return False
    if tail_slope is not None:
        if l > tail_slope + 1e-12:
            return False
        if abs(l - tail_slope) <= 1e-12 and K > tail_fixed + eps:
            return False
    return True


def _envelope_ratio(cost: OrderingCost, K: float, l: float) -> float:
    """sup over z > 0 of c(z) / (K + l*z): the factor by which the lower
    envelope must be scaled to dominate c.  Ratios of affine functions
    are monotone per piece, so endpoints and limits suffice."""
    if K <= 0:
        return math.inf
    best = 0.0
    for lower, piece in cost.spans():
        ends = [lower]
        if math.isfinite(piece.upper):
            ends.append(piece.upper)
        for z in ends:
            best = max(best, (piece.fixed + piece.slope * z) / (K + l * z))
        if not math.isfinite(piece.upper):
            if piece.slope > 0 and l == 0:
                return math.inf
            if l > 0:
                best = max(best, piece.slope / l)
    for z, slope in cost.discounts:
        best = max(best, slope * z / (K + l * z))
    return best


def fit_affine(cost: OrderingCost, m_locations: int) -> AffineFit:
    """Feasible affine envelopes minimizing M * max{K_h/K_l, h/l}.

    For any fixed lower envelope (K_l, l), the best upper envelope is its
    scaled copy rho*(K_l, l) with rho = sup_z c(z)/(K_l + l*z): anything
    with both ratios below rho would undercut c somewhere.  The objective
    rho decreases in K_l and l, so only Pareto-maximal lower envelopes
    matter; the search enumerates the vertices of the feasible lower
    region and refines along its edges.
    """
    if cost.fixed_charge_at_zero <= 0:
        raise FitUnavailableError("no lower envelope with a positive fixed charge "
                                  "exists; use fit_sector instead")
    anchors, tail_slope, tail_fixed = _lower_constraints(cost)

    def feasible(K, l):
        return _lower_feasible(K, l, anchors, tail_slope, tail_fixed)

    # vertices: pairwise intersections of anchor lines K + l*z = value,
    # the tail slope line, and the coordinate bounds
    lines = [(z, v) for z, v in anchors]  # K = v - l*z
    slope_caps = [tail_slope] if tail_slope is not None else []
    candidates = set()
    k_max = cost.fixed_charge_at_zero
    candidates.add((k_max, 0.0))
    for (z1, v1), (z2, v2) in itertools.combinations(lines, 2):
        if abs(z1 - z2) < 1e-15:
            continue
        l = (v1 - v2) / (z1 - z2)
        K = v1 - l * z1
        candidates.add((K, l))
    for z, v in lines:
        for cap in slope_caps:
            candidates.add((v - cap * z, cap))
        if z > 0:
            candidates.add((0.0, v / z))
    for cap in slope_caps:
        candidates.add((k_max, cap))

    feas = [(K, l) for K, l in candidates if K > 0 and feasible(K, l)]
    if not feas:
        raise FitUnavailableError("no feasible lower envelope with K > 0 found")

    def objective(K, l):
        return _envelope_ratio(cost, K, l)

    best = min(feas, key=lambda c: objective(*c))
    best_rho = objective(*best)

    # refine along Pareto edges between vertex candidates: the objective is
    # quasiconvex on a segment, so a ternary search catches edge minima
    frontier = sorted(feas, key=lambda c: (c[1], c[0]))
    for (K1, l1), (K2, l2) in itertools.combinations(frontier, 2):
        lo, hi = 0.0, 1.0
        for _ in range(100):
            t1 = lo + (hi - lo) / 3
            t2 = hi - (hi - lo) / 3
            p1 = (K1 + t1 * (K2 - K1), l1 + t1 * (l2 - l1))
            p2 = (K1 + t2 * (K2 - K1), l1 + t2 * (l2 - l1))
            f1 = objective(*p1) if feasible(*p1) else math.inf
            f2 = objective(*p2) if feasible(*p2) else math.inf
            if f1 <= f2:
                hi = t2
            else:
                lo = t1
        t = 0.5 * (lo + hi)
        p = (K1 + t * (K2 - K1), l1 + t * (l2 - l1))
        if feasible(*p) and objective(*p) < best_rho:
            best = p
            best_rho = objective(*p)

    K_l, l = best
    return AffineFit(K_l=K_l, l=l, K_h=best_rho * K_l, h=best_rho * l,
                     objective=m_locations * best_rho, m_locations=m_locations)


def envelope_gap(cost: OrderingCost, fit, z: np.ndarray):
    """(lower slack, upper slack) of a fit at sample points z > 0; both
    must be >= 0 for a feasible envelope.  Used by validation tests."""
    z = np.asarray(z, dtype=float)
    c = cost.eval_array(z)
    if isinstance(fit, SectorFit):
        lower = fit.l * z
        upper = fit.h * z
    else:
        lower = fit.K_l * (z > 0) + fit.l * z
        upper = fit.K_h * (z > 0) + fit.h * z
    return c - lower, upper - c


def theoretical_ratio(fit, m_locations: int, policy_family: str) -> float:
    """Worst-case cost-ratio bound for a fit/policy-family pairing."""
    if isinstance(fit, SectorFit):
        if policy_family == "base_stock":
            return fit.h / fit.l
        if policy_family == "online":
            return 2.0 * fit.h / fit.l
        raise ValueError(f"a sector fit bounds base-stock or online policies, "
                         f"not {policy_family!r}")
    if isinstance(fit, AffineFit):
        factor = fit.K_h / fit.K_l if fit.h == 0 == fit.l else \
            max(fit.K_h / fit.K_l, fit.h / fit.l)
        if policy_family == "sS":
            return m_locations * factor
        if policy_family == "online":
            return 3.0 * m_locations * factor
        raise ValueError(f"an affine fit bounds (s,S) or online policies, "
                         f"not {policy_family!r}")
    raise TypeError(f"unknown fit type {type(fit).__name__}")


def report(cost: OrderingCost, m_locations: int) -> str:
    """Plain-text block with both fits (where defined) and all four
    implied bounds."""
    lines = []
    try:
        sector = fit_sector(cost)
        lines.append(f"sector fit: l={sector.l:g} (at {sector.l_witness}), "
                     f"h={sector.h:g} (at {sector.h_witness})")
        lines.append(f"  decoupled base-stock bound h/l = "
                     f"{theoretical_ratio(sector, m_locations, 'base_stock'):g}")
        lines.append(f"  online balancing bound 2h/l = "
                     f"{theoretical_ratio(sector, m_locations, 'online'):g}")
    except FitUnavailableError as exc:
        lines.append(f"sector fit: unavailable ({exc})")
    try:
        affine = fit_affine(cost, m_locations)
        lines.append(f"affine fit: K_l={affine.K_l:g}, l={affine.l:g}, "
                     f"K_h={affine.K_h:g}, h={affine.h:g}")
        lines.append(f"  decoupled (s,S) bound M*max(K_h/K_l, h/l) = "
                     f"{theoretical_ratio(affine, m_locations, 'sS'):g}")
        lines.append(f"  online balancing bound 3M*max(K_h/K_l, h/l) = "
                     f"{theoretical_ratio(affine, m_locations, 'online'):g}")
    except FitUnavailableError as exc:
        lines.append(f"affine fit: unavailable ({exc})")
    return "\n".join(lines)

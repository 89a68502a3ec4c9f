"""Sector and affine envelopes of ordering costs, and the worst-case
ratio formulas they imply.

A sector fit squeezes c between l*z and h*z; an affine fit squeezes it
between K_l*1(z) + l*z and K_h*1(z) + h*z.  The implied worst-case cost
ratios of simple decoupled policies against the optimal coupled policy
are h/l (decoupled base-stock, sector) and M*max{K_h/K_l, h/l}
(decoupled (s,S), affine); the online balancing policy doubles the
first and triples the second.

Both fits are computed analytically from the cost's affine pieces.  On a
piece c(z)/z is monotone in z, so the sector fit reads its extrema at
piece ends, at the 0+ limit, at infinity and at the discount points.
The affine fit is a linear program in three variables whose rows come
from the same points and the tail slope; it is solved exactly by
enumerating the vertices of its feasible set.
"""

from __future__ import annotations

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

_SINGULAR = 1e-12  # |det| below this times the row norms' product: skip the triple
_TOL = 1e-9        # relative slack for feasibility and for ties


def _affine_rows(cost: OrderingCost):
    """The LP rows A @ (K, l, s) <= b of ``fit_affine``.

    On a piece both sides of s*c(z) <= K + l*z <= c(z) are affine in z,
    so the piece ends suffice.  ``OrderingCost.check`` allows only upward
    jumps, so the upper side at a piece's upper end is implied by the
    next piece's right-limit row, and the lower side at a right-limit by
    the row at the breakpoint itself."""
    rows = []
    for lower, piece in cost.spans():
        # upper side at lower+: s*c(lower+) <= K + l*lower
        rows.append((-1.0, -lower, piece.fixed + piece.slope * lower, 0.0))
        if math.isfinite(piece.upper):
            # lower side at the piece's end: K + l*upper <= c(upper)
            rows.append((1.0, piece.upper, 0.0, piece.fixed + piece.slope * piece.upper))
        else:
            rows.append((0.0, 1.0, 0.0, piece.slope))   # l <= m_tail
            rows.append((0.0, -1.0, piece.slope, 0.0))  # s*m_tail <= l
    rows.append((1.0, 0.0, 0.0, cost.fixed_charge_at_zero))  # K <= c(0+)
    for z, slope in cost.discounts:
        rows.append((1.0, z, 0.0, slope * z))  # lower side only
    rows += [(-1.0, 0.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0)]
    table = np.array(rows)
    return table[:, :3], table[:, 3]


def fit_affine(cost: OrderingCost, m_locations: int) -> AffineFit:
    """Feasible affine envelopes minimizing M * max{K_h/K_l, h/l}.

    For a fixed lower envelope (K_l, l), the best upper envelope is its
    scaled copy rho*(K_l, l) with rho = sup_z c(z)/(K_l + l*z): anything
    with both ratios below rho would undercut c somewhere.  With
    s = 1/rho the fit is the linear program

        maximise s  subject to  s*c(z) <= K + l*z <= c(z) for all z > 0,
                                K, l, s >= 0,

    whose rows come from the piece ends and the tail of c
    (``_affine_rows``): the upper side at each piece's lower end as a
    right-limit, the lower side at 0+ and at each finite piece end, the
    lower side only at each discount point, and l <= m_tail,
    s*m_tail <= l for the last piece.
    K <= c(0+) and l <= m_tail bound the region, so the optimum is a
    vertex: every 3-row subset is solved exactly, one leading row at a
    time, and the best feasible vertex is kept.  When a whole face is
    optimal (where c jumps at a breakpoint b and the rows at b and b+
    bind, say), the largest K, then the largest l, is returned.  The
    fields are Python floats, with zeros as +0.0; objective = M/s.

    Raises ``FitUnavailableError`` when c(0+) = 0 (use ``fit_sector``) or
    when no envelope has s > 0 (for example c = 0 at a discount point).
    """
    if cost.fixed_charge_at_zero <= 0:
        raise FitUnavailableError("no lower envelope with a positive fixed charge "
                                  "exists; use fit_sector instead")
    A, b = _affine_rows(cost)
    # feasible points have K <= c(0+), l <= m_tail and s <= 1: these set
    # each row's scale for the feasibility slack
    scale = np.array([cost.fixed_charge_at_zero, cost.pieces[-1].slope, 1.0])
    slack = _TOL * (np.abs(A) @ scale + np.abs(b))
    norm = np.linalg.norm(A, axis=1)
    pairs = np.column_stack(np.triu_indices(len(b), 1))  # (j, k), j < k, sorted by j
    best = np.zeros((1, 3))  # the origin is always feasible, since b >= 0
    for i in range(len(b) - 2):
        later = pairs[pairs[:, 0] > i]
        rows = np.column_stack((np.full(len(later), i), later))  # triples led by row i
        M = A[rows]
        regular = np.abs(np.linalg.det(M)) > _SINGULAR * norm[rows].prod(axis=1)
        x = np.linalg.solve(M[regular], b[rows[regular], None])[..., 0]
        x = np.concatenate([best, x[np.all(x @ A.T <= b + slack, axis=1)]])
        best = x[x[:, 2] >= x[:, 2].max() - _TOL]
    if best[:, 2].max() <= 0:
        raise FitUnavailableError("no lower envelope below c scales to an upper "
                                  "one: the LP optimum is s = 0")
    best = best[best[:, 0] >= best[:, 0].max() - _TOL * scale[0]]
    K, l, s = (max(0.0, float(v)) for v in best[np.argmax(best[:, 1])])
    return AffineFit(K_l=K, l=l, K_h=K / s, h=l / s,
                     objective=m_locations / s, m_locations=m_locations)


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

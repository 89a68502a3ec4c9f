"""Problem definition for multi-location inventory control.

A problem couples M single-location inventories through one ordering
cost charged on the total order quantity per period.  Inventory follows
x[k+1] = x[k] + u[k] - w[k] per location, with nonnegative orders u and
nonnegative, bounded, independent demand w.  Each period costs

    c(sum_i u_i)  +  sum_i  a_i*max(0, y_i) + b_i*max(0, -y_i)

where y_i = x_i + u_i - w_i is the post-demand level.  States live on a
regular grid; grid coordinates are always produced by index arithmetic
(min + i*step), never by accumulation, so exact dynamic programming
stays drift-free over long horizons.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

GRID_ALIGN_TOL = 1e-9
PROB_SUM_TOL = 1e-12
# Discount points are matched with a tiny absolute tolerance: orders
# constructed from the stored discount values land within a few ulps,
# while continuous demand sums miss the band almost surely.
DISCOUNT_MATCH_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a problem violates its invariants; carries all messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class UnsupportedDemandError(ValueError):
    """Raised when an operation needs a demand feature the model lacks."""


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

class SizeError(ValueError):
    """A joint table or search would not fit sensibly in memory."""


@dataclass(frozen=True)
class Grid:
    """Regular one-dimensional state grid shared by every location.  The
    joint grid is its M-fold product, whose one layout is ``states`` and
    whose one coordinate-to-index rule is ``indices``."""

    lo: float
    hi: float
    step: float

    def check(self):
        errors = [f"grid.{name}: must be finite" for name in ("lo", "hi", "step")
                  if not math.isfinite(getattr(self, name))]
        if errors:
            return errors
        if not self.step > 0:
            errors.append("grid.step: must be > 0")
        if self.lo > self.hi:
            errors.append("grid.lo/hi: lo must not exceed hi")
        if self.step > 0:
            ratio = (self.hi - self.lo) / self.step
            if abs(ratio - round(ratio)) > GRID_ALIGN_TOL:
                errors.append("grid: (hi - lo)/step is not integral")
        return errors

    @property
    def count(self) -> int:
        return int(round((self.hi - self.lo) / self.step)) + 1

    def point(self, i: int) -> float:
        return self.lo + i * self.step

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.count)

    def states(self, m: int) -> np.ndarray:
        """Every joint state of m locations, shape (count**m, m), in C order
        of the grid indices (location 1 slowest)."""
        idx = np.stack([g.ravel() for g in np.indices((self.count,) * m)], axis=1)
        return self.points()[idx]

    def indices(self, X) -> np.ndarray:
        """Per-location grid indices of states X (..., M).  A value more
        than GRID_ALIGN_TOL steps off the grid, or outside [lo, hi],
        raises a ValueError naming it."""
        X = np.asarray(X, dtype=float)
        i = (X - self.lo) / self.step
        j = np.rint(i)
        bad = ~((np.abs(i - j) <= GRID_ALIGN_TOL) & (j >= 0) & (j < self.count))
        if np.any(bad):
            raise ValueError(f"value {float(X[bad][0])} is not on the grid "
                             f"[{self.lo}, {self.hi}] with step {self.step}")
        return j.astype(int)

    def index(self, value: float) -> int:
        """Grid index of ``value``; rejects off-grid values."""
        return int(self.indices(value))

    def to_steps(self, quantity: float) -> int:
        """Express a nonnegative quantity as a whole number of grid steps."""
        s = quantity / self.step
        j = int(round(s))
        if abs(s - j) > GRID_ALIGN_TOL:
            raise ValueError(f"quantity {quantity} is not a multiple of the grid step")
        return j


# ---------------------------------------------------------------------------
# Demand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMarginal:
    """Finitely supported per-location demand distribution."""

    values: tuple
    probs: tuple

    def check(self, where: str):
        errors = []
        if len(self.values) != len(self.probs) or not self.values:
            errors.append(f"{where}: values and probs must be nonempty and equal length")
            return errors
        if not all(math.isfinite(v) for v in self.values):
            errors.append(f"{where}: demand values must be finite")
        if any(v < 0 for v in self.values):
            errors.append(f"{where}: demand values must be nonnegative")
        if not all(math.isfinite(p) for p in self.probs):
            errors.append(f"{where}: probabilities must be finite")
        if any(p < 0 for p in self.probs):
            errors.append(f"{where}: probabilities must be nonnegative")
        if not abs(sum(self.probs) - 1.0) <= PROB_SUM_TOL:
            errors.append(f"{where}: probabilities sum to {sum(self.probs)!r}, not 1")
        if len(set(self.values)) != len(self.values):
            errors.append(f"{where}: demand values must be distinct")
        return errors

    @property
    def max_value(self) -> float:
        return float(max(self.values))

    def sorted_pmf(self):
        """(values ascending, probs) as float arrays."""
        order = np.argsort(np.asarray(self.values))
        return (np.asarray(self.values, dtype=float)[order],
                np.asarray(self.probs, dtype=float)[order])

    @functools.cached_property
    def lookup(self):
        """(values ascending, thresholds) of ``transform_uniform_draws``:
        the sorted atoms (a read-only array) and the cumulative
        probabilities as a tuple of floats, 1.0 from the last atom of
        positive probability on.  Computed on first use and kept, since
        the marginal is immutable."""
        values, probs = self.sorted_pmf()
        cum = np.cumsum(probs)
        cum[np.flatnonzero(probs)[-1]:] = 1.0
        values.setflags(write=False)
        return values, tuple(cum.tolist())


@dataclass(frozen=True)
class UniformMarginal:
    """Continuous uniform per-location demand on [lo, hi)."""

    lo: float
    hi: float

    def check(self, where: str):
        errors = []
        if not 0 <= self.lo:
            errors.append(f"{where}: uniform lo must be >= 0")
        if not self.lo < self.hi:
            errors.append(f"{where}: uniform needs lo < hi")
        if not math.isfinite(self.hi):
            errors.append(f"{where}: uniform hi must be finite (bounded support)")
        return errors

    @property
    def max_value(self) -> float:
        return float(self.hi)


@dataclass(frozen=True)
class DemandModel:
    """Per-location demand marginals, independent across locations and
    i.i.d. across periods (the only temporal model this package has)."""

    marginals: tuple

    @property
    def m(self) -> int:
        return len(self.marginals)

    @property
    def is_discrete(self) -> bool:
        return all(isinstance(g, DiscreteMarginal) for g in self.marginals)

    def check(self):
        errors = []
        if not self.marginals:
            errors.append("demand: needs at least one location")
        for i, g in enumerate(self.marginals):
            errors.extend(g.check(f"demand[{i}]"))
        return errors

    def mean(self, i: int) -> float:
        g = self.marginals[i]
        if isinstance(g, DiscreteMarginal):
            return float(sum(v * p for v, p in zip(g.values, g.probs)))
        return 0.5 * (g.lo + g.hi)


def demand_pmf(d: DemandModel, i: int):
    """(values ascending, probs) of location ``i``; discrete demand only."""
    g = d.marginals[i]
    if not isinstance(g, DiscreteMarginal):
        raise UnsupportedDemandError("pmf queries require discrete demand")
    return g.sorted_pmf()


def convolve_atoms(a: dict, b) -> dict:
    """Atoms {value: prob} of the sum of independent atom sets ``a`` (a
    dict, outer loop) and ``b`` (re-iterable (value, prob) pairs, inner
    loop); sums equal to 9 decimals coalesce into one atom."""
    out = {}
    for s, ps in a.items():
        for v, p in b:
            key = round(s + v, 9)
            out[key] = out.get(key, 0.0) + ps * p
    return out


def transform_uniform_draws(d: DemandModel, raw: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Map uniform [0,1) draws of shape (..., M) onto demand values.

    This is the single place raw randomness becomes demand: one uniform
    per location per period, period-major.  ``out`` may be ``raw`` itself.
    The caller bounds the size of ``raw``: the estimators transform one
    fill chunk per call (``sim._FILL_DOUBLES`` draws, or one run's draw
    block if that is larger) into a separate block buffer.

    A discrete draw u takes the atom whose index is the number of
    cumulative probabilities c with c <= u, clipped to the last atom.
    The cumulative is 1.0 from the last atom of positive probability on,
    so no u < 1 reaches a trailing atom of probability 0.  The index is
    counted down: it starts at K (the atom count) and ``u < c`` takes one
    off for each threshold.  That is ``np.searchsorted(cum, u,
    side="right")`` for every input, ties, values outside [0, 1), +-inf
    and NaN included (NaN compares false, stays at K and clips to the last
    atom, as searchsorted sorts it last).  The sorted atoms and the
    thresholds are the marginal's ``lookup``, computed once and kept, so
    a one-period call pays only the lookup itself.  Each discrete column
    is copied to a contiguous buffer once and then read once per atom, so
    the lookup is O(K) passes where searchsorted is O(log K): it is the
    faster of the two up to about 48 atoms (every instance here has at
    most 4) and slower beyond: 1.1x at 64 atoms, 3.2x at 256.
    """
    if out is None:
        out = np.empty_like(raw, dtype=float)
    for i, g in enumerate(d.marginals):
        u = raw[..., i]
        col = out[..., i]
        if isinstance(g, DiscreteMarginal):
            values, thresholds = g.lookup
            # The whole index is counted before the column is written, so
            # out may be raw.
            u, col = np.atleast_1d(u, col)
            u = np.ascontiguousarray(u)
            idx = np.full(u.shape, len(thresholds), dtype=np.intp)
            for c in thresholds:
                idx -= u < c
            np.take(values, idx, out=col, mode="clip")
        else:
            np.multiply(u, g.hi - g.lo, out=col)
            col += g.lo
    return out


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """One affine piece c(z) = fixed + slope*z on (lower, upper].

    The lower bound is implied by the previous piece (0 for the first),
    so a piece list structurally partitions (0, inf).
    """

    upper: float  # math.inf for the last piece
    fixed: float
    slope: float


@dataclass(frozen=True)
class OrderingCost:
    """Piecewise-affine cost of the total order, with optional discount
    points where a different slope applies at exactly that quantity."""

    pieces: tuple
    discounts: tuple = ()  # ((z, slope), ...)

    def check(self):
        errors = []
        if not self.pieces:
            errors.append("ordering: needs at least one piece")
            return errors
        last = len(self.pieces) - 1
        for j, (lower, piece) in enumerate(self.spans()):
            if j < last and not math.isfinite(piece.upper):
                errors.append(f"ordering.pieces[{j}]: upper must be finite "
                              "(only the last piece's is inf)")
            if piece.upper <= lower:
                errors.append(f"ordering.pieces[{j}]: upper bounds must increase")
            if not (math.isfinite(piece.fixed) and math.isfinite(piece.slope)):
                errors.append(f"ordering.pieces[{j}]: fixed and slope must be finite")
            if piece.fixed < 0 or piece.slope < 0:
                errors.append(f"ordering.pieces[{j}]: fixed and slope must be >= 0")
        if not math.isinf(self.pieces[-1].upper):
            errors.append("ordering.pieces: last piece must extend to infinity")
        for j in range(len(self.pieces) - 1):
            b = self.pieces[j].upper
            left = self.pieces[j].fixed + self.pieces[j].slope * b
            right = self.pieces[j + 1].fixed + self.pieces[j + 1].slope * b
            if left > right + 1e-9:
                errors.append(
                    f"ordering.pieces[{j}]: value drops at z={b}; the cost must "
                    "be lower semicontinuous")
        zs = [z for z, _ in self.discounts]
        if not all(math.isfinite(z) and math.isfinite(s) for z, s in self.discounts):
            errors.append("ordering.discounts: z values and slopes must be finite")
        if any(z <= 0 for z in zs):
            errors.append("ordering.discounts: z values must be > 0")
        if len(set(zs)) != len(zs):
            errors.append("ordering.discounts: z values must be distinct")
        if any(s < 0 for _, s in self.discounts):
            errors.append("ordering.discounts: slopes must be >= 0")
        for z, slope in self.discounts:
            piece = self.pieces[self.piece_index(z)]
            if slope * z > piece.fixed + piece.slope * z + 1e-9:
                errors.append(
                    f"ordering.discounts: value at z={z} exceeds the covering "
                    "piece; the cost must be lower semicontinuous")
        return errors

    @property
    def fixed_charge_at_zero(self) -> float:
        """The jump of c at 0+, i.e. the first piece's fixed charge."""
        return self.pieces[0].fixed

    def spans(self):
        """(lower, piece) per piece: the piece covers (lower, piece.upper],
        where lower is the previous piece's upper (0 for the first)."""
        lower = 0.0
        for piece in self.pieces:
            yield lower, piece
            lower = piece.upper

    def piece_index(self, z):
        """Index of the piece covering z, elementwise: the number of finite
        upper bounds below z (the last piece's upper is inf)."""
        return sum(z > p.upper for p in self.pieces[:-1])

    def __call__(self, z: float) -> float:
        return float(self.eval_array(np.asarray(z, dtype=float)))

    @functools.cached_property
    def piece_tables(self):
        """(fixed, rate, zero_exact) of ``eval_array``: the pieces' fixed
        charges and slopes as read-only arrays, and whether the piece
        covering z = 0 already gives +0.0 there (fixed is +0.0 and the
        slope finite, so fixed + slope*(+-0) is +0.0), which makes the
        z == 0 override a no-op.  Computed on first use and kept, since
        the cost is immutable."""
        fixed = np.array([p.fixed for p in self.pieces], dtype=float)
        rate = np.array([p.slope for p in self.pieces], dtype=float)
        fixed.setflags(write=False)
        rate.setflags(write=False)
        first = self.pieces[self.piece_index(0.0)]
        zero_exact = (first.fixed == 0 and math.copysign(1.0, first.fixed) > 0
                      and math.isfinite(first.slope))
        return fixed, rate, zero_exact

    @functools.cached_property
    def discount_points(self) -> frozenset:
        """The discount z values as a set, computed on first use and kept,
        since the cost is immutable (like ``piece_tables``, not a field)."""
        return frozenset(z for z, _ in self.discounts)

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """c(z) elementwise for totals z >= 0 (NaN passes through as NaN).

        The covering piece's value is computed for every entry; z == 0
        then takes 0.0 and a discount point its own slope.  Each override
        is a select (``np.where``) made only when its mask has a hit: a
        select is about twice as fast as a masked copy on a dense mask,
        and the ``any`` test keeps the common no-hit case cheap."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0):
            raise ValueError("ordering cost is defined for z >= 0 only")
        fixed, rate, zero_exact = self.piece_tables
        j = self.piece_index(z)
        out = np.asarray(fixed[j] + rate[j] * z)
        if not zero_exact:
            mask = z == 0
            if mask.any():
                out = np.where(mask, 0.0, out)
        for zv, slope in self.discounts:
            mask = np.abs(z - zv) <= DISCOUNT_MATCH_TOL
            if mask.any():
                out = np.where(mask, slope * z, out)
        return out


def linear_cost(m: float) -> OrderingCost:
    return OrderingCost(pieces=(Piece(math.inf, 0.0, m),))


def affine_cost(K: float, m: float) -> OrderingCost:
    return OrderingCost(pieces=(Piece(math.inf, K, m),))


@dataclass(frozen=True)
class HoldingBacklogCost:
    """Two-sided piecewise-linear holding/backlog rates per location."""

    holding: tuple  # a_i >= 0, charged on excess inventory
    backlog: tuple  # b_i >= 0, charged on unmet demand

    @property
    def m(self) -> int:
        return len(self.holding)

    def check(self):
        errors = []
        if len(self.holding) != len(self.backlog) or not self.holding:
            errors.append("holding: holding and backlog rate lists must be nonempty and equal length")
            return errors
        for i, (a, b) in enumerate(zip(self.holding, self.backlog)):
            if not (math.isfinite(a) and math.isfinite(b)):
                errors.append(f"holding[{i}]: rates must be finite")
            if a < 0 or b < 0:
                errors.append(f"holding[{i}]: rates must be >= 0")
            if a == 0 and b == 0:
                errors.append(f"holding[{i}]: at least one rate must be > 0 (radial unboundedness)")
        return errors

    def eval_batch(self, levels: np.ndarray) -> np.ndarray:
        """Per-location cost for levels of shape (..., M)."""
        return holding_backlog(np.asarray(self.holding), np.asarray(self.backlog), levels)

    def location_total(self, levels: np.ndarray) -> np.ndarray:
        """Cost of levels (..., M) summed over locations: bit-equal to
        ``location_sum(self.eval_batch(levels))`` for every M.  Each
        column is costed with its own scalar rates and added in
        ``location_sum``'s column order; this skips broadcasting an (M,)
        rate array, whose inner loop runs only M elements at a time."""
        out = holding_backlog(self.holding[0], self.backlog[0], levels[..., 0])
        for i in range(1, self.m):
            out += holding_backlog(self.holding[i], self.backlog[i], levels[..., i])
        return out


def location_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``a`` (..., M) over its last (location) axis: columns 0 and
    1 added in one call, then columns 2..M-1 added in place (M = 1 copies
    column 0).  ``out``, if given, receives the sum and is returned; its
    bytes are those of the call without it, in any memory layout.

    On short rows M - 1 whole-column additions are several times faster
    than the axis reduction ``a.sum(axis=-1)``.  The result is bit-equal to
    that sum for M <= 7; for M >= 8 numpy sums pairwise, so the two may
    differ in the last bits (under 1e-15 relative for nonnegative terms
    such as orders and holding costs).
    """
    if a.shape[-1] == 1:
        if out is None:
            return a[..., 0].copy()
        np.copyto(out, a[..., 0])
        return out
    out = np.add(a[..., 0], a[..., 1], out=out)
    for i in range(2, a.shape[-1]):
        out += a[..., i]
    return out


def holding_backlog(a, b, y):
    """a*max(0, y) + b*max(0, -y), elementwise: the one holding/backlog
    expression every cost path uses, for rates a, b >= 0 (scalars or
    arrays broadcasting against y).

    It is computed in three passes as max(a*y, -b*y) + 0.0: for y > 0 the
    first term is the larger, for y < 0 the second, and the added +0.0
    turns the -0.0 that y = -0.0 gives into +0.0.  The bytes equal those
    of the two-sided expression for every finite level.  A NaN level
    gives a NaN with its own sign bit; so does the two-sided expression,
    except where numpy's add returns its second operand's NaN (the
    remainder loop of a long array), which has the opposite sign.  Only
    an infinite level with a zero rate differs in value (NaN here, +inf
    there), and no cost path produces one.
    """
    out = np.maximum(a * y, -b * y)
    out += 0.0
    return out


def expected_holding_backlog(a, b, levels, demand: DemandModel, i: int):
    """E_w [a*max(0, level - w) + b*max(0, w - level)] over location i's
    discrete demand, for every entry of ``levels``."""
    values, probs = demand_pmf(demand, i)
    return holding_backlog(a, b, np.asarray(levels)[..., None] - values) @ probs


# ---------------------------------------------------------------------------
# Horizon and Problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finite:
    periods: int


@dataclass(frozen=True)
class InfiniteAveraged:
    """Long-run average realized as a long finite simulation; the first
    ``burn_in`` periods' costs are discarded before averaging."""

    sim_periods: int
    burn_in: int = 0


@dataclass(frozen=True)
class Problem:
    m: int
    horizon: object
    ordering: OrderingCost
    holding: HoldingBacklogCost
    demand: DemandModel
    grid: Grid
    max_order_per_location: float

    def validate(self, dp: bool = False) -> "Problem":
        errors = validate_problem(self, dp=dp)
        if errors:
            raise ValidationError(errors)
        return self

    @property
    def periods(self) -> int:
        """Number of simulated periods for either horizon kind."""
        if isinstance(self.horizon, Finite):
            return self.horizon.periods
        return self.horizon.sim_periods

    def order_cap(self, x) -> np.ndarray:
        """Componentwise feasible order cap at state x: stay in the grid
        box and respect the per-location order limit."""
        return np.minimum(self.max_order_per_location,
                          self.grid.hi - np.asarray(x, dtype=float))


def validate_problem(problem: Problem, dp: bool = False):
    """All invariant violations, each with a field path.  With ``dp`` the
    extra requirements of exact dynamic programming are enforced (discrete
    demand whose values are whole numbers of grid steps)."""
    errors = []
    if problem.m < 1:
        errors.append("m: need at least one location")
    errors.extend(problem.grid.check())
    errors.extend(problem.ordering.check())
    errors.extend(problem.holding.check())
    errors.extend(problem.demand.check())
    if problem.holding.m != problem.m:
        errors.append(f"holding: has {problem.holding.m} locations, problem has {problem.m}")
    if problem.demand.m != problem.m:
        errors.append(f"demand: has {problem.demand.m} locations, problem has {problem.m}")
    if isinstance(problem.horizon, Finite):
        if problem.horizon.periods < 1:
            errors.append("horizon.periods: must be >= 1")
    elif isinstance(problem.horizon, InfiniteAveraged):
        h = problem.horizon
        if h.sim_periods < 1 or not 0 <= h.burn_in < h.sim_periods:
            errors.append("horizon: need sim_periods >= 1 and 0 <= burn_in < sim_periods")
    else:
        errors.append("horizon: unknown horizon kind")
    if not math.isfinite(problem.max_order_per_location):
        errors.append("max_order_per_location: must be finite")
    elif problem.max_order_per_location < 0:
        errors.append("max_order_per_location: must be >= 0")
    elif problem.grid.step > 0:
        s = problem.max_order_per_location / problem.grid.step
        if abs(s - round(s)) > GRID_ALIGN_TOL:
            errors.append("max_order_per_location: must be a multiple of grid.step")
    if dp:
        errors.extend(dp_demand_errors(problem))
    return errors


def dp_demand_errors(problem: Problem):
    """Why the demand model rules out exact dynamic programming: it must
    be discrete with values that are whole numbers of grid steps."""
    if not problem.demand.is_discrete:
        return ["demand: exact DP requires discrete demand"]
    errors = []
    for i, g in enumerate(problem.demand.marginals):
        for v in g.values:
            s = v / problem.grid.step
            if not (math.isfinite(s) and abs(s - round(s)) <= GRID_ALIGN_TOL):
                errors.append(
                    f"demand[{i}]: value {v} is off-grid for step {problem.grid.step}")
    return errors


def single_location_problem(problem: Problem, i: int,
                            ordering: OrderingCost | None = None) -> Problem:
    """The i-th location's single-location problem, optionally under a
    substitute ordering cost (the grid, horizon and order cap carry over)."""
    return replace(
        problem,
        m=1,
        ordering=problem.ordering if ordering is None else ordering,
        holding=HoldingBacklogCost(holding=(problem.holding.holding[i],),
                                   backlog=(problem.holding.backlog[i],)),
        demand=DemandModel(marginals=(problem.demand.marginals[i],)),
    )

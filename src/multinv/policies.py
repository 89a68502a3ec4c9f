"""The policy zoo: representations, constructors, and a uniform
action interface.

Every policy answers ``act_batch(problem, k, X, uniforms)`` for a batch
of states X of shape (B, M) and returns feasible orders of shape (B, M);
randomized policies read one uniform per location from ``uniforms``
(B, M) and deterministic ones ignore it.  ``act`` at one state is the
B = 1 row of ``act_batch``.

Orders at states inside the grid box are componentwise nonnegative and
truncated to the feasible action box (per-location cap, grid ceiling);
truncation at the grid top is logged because order-up-to levels are
defined on the whole real line while the grid is not.  ``act`` refuses a
state outside the box; ``act_batch``, the stepper's hot path, does not
check its states.

A deterministic policy's ``tabulate`` gives its per-stage order table
on the problem's grid, the one input of exact evaluation in ``dp``.  The
generic method runs ``act_batch`` over every joint state at each stage.
``DecoupledPolicy`` overrides it, since each location's orders depend on
its own level alone: each component acts on its location's n grid
points and its orders are broadcast into the joint table, which is the
generic table byte for byte, with the same errors.

The decoupled policies pi_square (base-stock) and pi_diamond ((s,S))
share one construction: each location's single-location DP table, read
stage by stage by ``dp.extract_base_stock`` (the s = S case of
``dp.extract_sS``) or ``dp.extract_sS``.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np

from . import dp as dp_mod
from .model import (GRID_ALIGN_TOL, Problem, linear_cost, affine_cost, location_sum,
                    single_location_problem)

logger = logging.getLogger(__name__)


class GridTabulationError(ValueError):
    """A deterministic policy has no order table on the problem's grid:
    its orders leave the grid, or its stored table belongs to another
    grid or horizon.  Exact evaluation is undefined; Monte Carlo is not."""


class Policy:
    """Base class; see the module docstring for the action contract."""

    kind = "policy"
    uses_randomness = False

    # -- acting ------------------------------------------------------------
    def act(self, problem: Problem, k: int, x, uniforms=None) -> np.ndarray:
        """Orders at one state x (M,), given its uniforms (M,) if any.  A
        level outside [grid.lo, grid.hi] (NaN included) is a ValueError:
        the order caps are measured from inside the grid box."""
        X = np.asarray(x, dtype=float).reshape(1, -1)
        grid = problem.grid
        if not np.all((X >= grid.lo) & (X <= grid.hi)):
            raise ValueError(f"state {X[0].tolist()} has a level outside the grid box "
                             f"[{grid.lo}, {grid.hi}]")
        if uniforms is not None:
            uniforms = np.asarray(uniforms, dtype=float).reshape(1, -1)
        return self.act_batch(problem, k, X, uniforms)[0]

    def act_batch(self, problem: Problem, k: int, X: np.ndarray,
                  uniforms) -> np.ndarray:
        raise NotImplementedError

    # -- grid tabulation (deterministic grid policies only) ----------------
    def tabulate(self, problem: Problem) -> np.ndarray:
        """Per-stage order tables in grid steps, for exact evaluation:
        shape (N,) + (n,)*M + (M,), int32.  ``act_batch`` runs once per
        stage over all n**M joint states; ``DecoupledPolicy`` builds the
        same table one location at a time."""
        self._require_deterministic()
        grid = problem.grid
        n, m = grid.count, problem.m
        X = grid.states(m)
        periods = problem.periods
        table = np.zeros((periods,) + (n,) * m + (m,), dtype=np.int32)
        for k in range(periods):
            steps = self._grid_steps(self.act_batch(problem, k, X, None), grid)
            table[k] = steps.reshape((n,) * m + (m,))
        return table

    def _require_deterministic(self):
        if self.uses_randomness:
            raise ValueError(f"{self.kind} policy is randomized; use Monte Carlo")

    def _grid_steps(self, orders: np.ndarray, grid) -> np.ndarray:
        """Orders as whole grid steps (int32), or GridTabulationError."""
        steps = orders / grid.step
        rounded = np.rint(steps)
        # NaN, inf and counts beyond int32 are refused before any arithmetic
        if not (np.all(np.abs(steps) <= np.iinfo(np.int32).max)
                and np.all(np.abs(steps - rounded) <= GRID_ALIGN_TOL)):
            raise GridTabulationError(f"{self.kind} policy orders leave the grid; "
                                      "exact evaluation is undefined")
        return rounded.astype(np.int32)

    # -- bookkeeping --------------------------------------------------------
    def to_config(self) -> dict:
        raise NotImplementedError

    @property
    def tag(self) -> str:
        """Stable identifier entering random-stream derivation."""
        digest = hashlib.sha256(repr(self.to_config()).encode()).hexdigest()[:12]
        return f"{self.kind}:{digest}"


def _truncate(raw: np.ndarray, problem: Problem, X: np.ndarray,
              kind: str) -> np.ndarray:
    cap = problem.order_cap(X)
    clipped = np.maximum(raw, 0.0)
    np.minimum(clipped, cap, out=clipped)
    if logger.isEnabledFor(logging.DEBUG) and np.any(raw > cap + 1e-12):
        logger.debug("%s: truncated %d orders to the feasible box",
                     kind, int(np.sum(raw > cap + 1e-12)))
    return clipped


def _stage_row(levels: np.ndarray, k: int, periods_hint: str) -> np.ndarray:
    """Row of a (M,)-stationary or (N, M) stage-indexed parameter array."""
    if levels.ndim == 1:
        return levels
    if not 0 <= k < levels.shape[0]:
        raise IndexError(f"stage {k} out of range for {periods_hint}")
    return levels[k]


class BaseStockPolicy(Policy):
    """Order up to S whenever below it; levels stationary (M,) or
    stage-indexed (N, M)."""

    kind = "base_stock"

    def __init__(self, levels):
        self.levels = np.asarray(levels, dtype=float)
        if self.levels.ndim not in (1, 2):
            raise ValueError("levels must be (M,) or (stages, M)")
        if not np.all(np.isfinite(self.levels)):
            raise ValueError("base-stock levels must be finite")

    def act_batch(self, problem, k, X, uniforms):
        S = _stage_row(self.levels, k, "base-stock levels")
        return _truncate(S - X, problem, X, self.kind)

    def to_config(self):
        return {"kind": self.kind, "levels": self.levels.tolist()}


class SSPolicy(Policy):
    """Order up to S when strictly below s, otherwise nothing."""

    kind = "sS"

    def __init__(self, small_s, big_s):
        self.small_s = np.asarray(small_s, dtype=float)
        self.big_s = np.asarray(big_s, dtype=float)
        if self.small_s.shape != self.big_s.shape:
            raise ValueError("s and S shapes must match")
        if not (np.all(np.isfinite(self.small_s)) and np.all(np.isfinite(self.big_s))):
            raise ValueError("every s and S must be finite")
        if np.any(self.small_s > self.big_s):
            raise ValueError("every s must be <= its S")

    def act_batch(self, problem, k, X, uniforms):
        s = _stage_row(self.small_s, k, "(s,S) parameters")
        S = _stage_row(self.big_s, k, "(s,S) parameters")
        raw = np.where(X < s, S - X, 0.0)
        return _truncate(raw, problem, X, self.kind)

    def to_config(self):
        return {"kind": self.kind, "small_s": self.small_s.tolist(),
                "big_s": self.big_s.tolist()}


class TabularGridPolicy(Policy):
    """Wraps a DP order table; defined only on grid states."""

    kind = "tabular"

    def __init__(self, table: dp_mod.TabularPolicy):
        self.table = table

    def act_batch(self, problem, k, X, uniforms):
        grid = self.table.grid
        if not 0 <= k < self.table.stages:
            raise IndexError(f"stage {k} out of range")
        return self.table.orders[k][tuple(grid.indices(X).T)] * grid.step

    def tabulate(self, problem):
        table = self.table.orders
        expected = (problem.periods,) + (problem.grid.count,) * problem.m + (problem.m,)
        if self.table.grid != problem.grid or table.shape != expected:
            raise GridTabulationError("tabular policy does not match the problem's grid/horizon")
        return table

    def to_config(self):
        return {"kind": self.kind, "stages": int(self.table.stages),
                "digest": hashlib.sha256(self.table.orders.tobytes()).hexdigest()[:16]}


class DecoupledPolicy(Policy):
    """Componentwise composition of single-location policies."""

    kind = "decoupled"

    def __init__(self, components):
        self.components = list(components)

    @property
    def uses_randomness(self):
        return any(c.uses_randomness for c in self.components)

    def act_batch(self, problem, k, X, uniforms):
        if len(self.components) != X.shape[1]:
            raise ValueError("component count does not match the location count")
        out = np.empty_like(X)
        for i, comp in enumerate(self.components):
            u = None if uniforms is None else uniforms[:, i:i + 1]
            out[:, i:i + 1] = comp.act_batch(problem, k, X[:, i:i + 1], u)
        return out

    def tabulate(self, problem):
        """The generic table, built one location at a time: location i's
        orders depend on its own level alone, so its component acts once
        per stage on the n grid points, as an (n, 1) column like the one
        ``act_batch`` hands it, and its steps are broadcast along axis i
        of the joint table.  O(N * M * n) policy work in place of
        O(N * M * n**M); the table, and every error, is the generic
        path's."""
        self._require_deterministic()
        grid, m = problem.grid, problem.m
        n = grid.count
        if len(self.components) != m:
            raise ValueError("component count does not match the location count")
        column = grid.points()[:, None]
        orders = np.empty((n, m))
        table = np.empty((problem.periods,) + (n,) * m + (m,), dtype=np.int32)
        for k, stage in enumerate(table):
            for i, comp in enumerate(self.components):
                orders[:, i:i + 1] = comp.act_batch(problem, k, column, None)
            steps = self._grid_steps(orders, grid)
            for i in range(m):
                stage[..., i] = steps[:, i].reshape((n,) + (1,) * (m - 1 - i))
        return table

    def to_config(self):
        return {"kind": self.kind,
                "components": [c.to_config() for c in self.components]}


class ExplicitVPolicy(Policy):
    """Threshold-and-equalize policy over a finite set of order sizes.

    Orders the smallest available total v that lifts system inventory to
    at least the threshold, split so post-order levels are equal; when
    equal splitting would require a negative component, the lowest
    levels are raised to a common value instead (waterfilling), spending
    exactly v.  At or above the threshold it orders nothing; when no v
    reaches the threshold it falls back to the smallest v.
    """

    kind = "pi_v"

    def __init__(self, v_values, threshold):
        self.v_values = tuple(sorted(float(v) for v in v_values))
        self.threshold = float(threshold)
        if not self.v_values or self.v_values[0] <= 0:
            raise ValueError("explicit-v policy needs order sizes that are all > 0")
        if not np.all(np.isfinite((*self.v_values, self.threshold))):
            raise ValueError("explicit-v order sizes and threshold must be finite")
        # _totals[c] is the order total of a row below the threshold whose
        # c smallest sizes fall short of it (all of them short: the smallest
        # size as the fallback); the last entry is for rows at or above it
        self._totals = np.array((*self.v_values, self.v_values[0], 0.0))
        self._sizes = frozenset(self.v_values)

    def _check_instance(self, problem):
        if not self._sizes <= problem.ordering.discount_points:
            raise ValueError("explicit-v policy requires an instance whose "
                             "discount set contains its order sizes")

    def act_batch(self, problem, k, X, uniforms):
        self._check_instance(problem)
        sx = location_sum(X)
        # sx + v is nondecreasing in the sorted v, so the short sizes are a
        # prefix of them; with every v > 0 none is short where sx >= threshold
        count = (sx >= self.threshold) * (len(self.v_values) + 1)
        for v in self.v_values:
            count += sx + v < self.threshold
        return _truncate(_waterfill(X, self._totals.take(count)), problem, X, self.kind)

    def to_config(self):
        return {"kind": self.kind, "v_values": list(self.v_values),
                "threshold": self.threshold}


def _sorted_columns(X: np.ndarray) -> list:
    """The columns of X (B, M) with every row sorted ascending, as M
    arrays, by min/max compare-exchanges of whole columns (a bubble
    network); exact, like ``np.sort(X, axis=1)``."""
    xs = [X[:, i] for i in range(X.shape[1])]
    for top in range(len(xs) - 1, 0, -1):
        for i in range(top):
            xs[i], xs[i + 1] = np.minimum(xs[i], xs[i + 1]), np.maximum(xs[i], xs[i + 1])
    return xs


def _waterfill(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rowwise orders max(L - x, 0) with the common level L chosen so the
    row sums to v, for totals v >= 0 (the one caller passes entries of
    ``ExplicitVPolicy._totals``).  Reduces to the equal split when
    feasible; a row with v = 0 orders nothing (every entry +0.0).

    L is the candidate (v + sum of the q lowest levels) / q of the
    smallest q that lies between the q-th and (q+1)-th lowest level, and
    the q = M candidate when none does.  The q = 1 candidate v + x is
    never below the lowest level x, so only its upper bound is tested; a
    NaN candidate fails that test as it would fail both.  The prefix sums
    are a running sum of the sorted columns, which is the order
    ``np.cumsum`` adds in.

    A row with a NaN level orders NaN at every location, for every M: the
    common level depends on the whole row, and the min/max
    compare-exchanges carry the NaN into every sorted column.
    """
    m = X.shape[1]
    xs = _sorted_columns(X)
    prefix = [xs[0]]
    for i in range(1, m):
        prefix.append(prefix[-1] + xs[i])
    level = v + prefix[m - 1]
    if m > 1:
        level /= m
    for q in range(m - 1, 0, -1):
        cand = v + prefix[q - 1]
        if q > 1:  # x / 1 == x exactly
            cand /= q
        ok = cand <= xs[q] + 1e-15
        if q > 1:  # at q = 1, cand = fl(v + xs[0]) >= xs[0] since v >= 0
            ok &= cand >= xs[q - 1] - 1e-15
        level = np.where(ok, cand, level)
    orders = level[:, None] - X
    return np.maximum(orders, 0.0, out=orders)


# ---------------------------------------------------------------------------
# Constructors for the named decoupled policies
# ---------------------------------------------------------------------------

def _per_location(problem: Problem, ordering, extract) -> list:
    """Per location, ``extract(tab, k)`` over the stages k of the optimal
    table of its single-location problem under ``ordering``, as one
    array."""
    out = []
    for i in range(problem.m):
        _, tab = dp_mod.solve_joint_dp(single_location_problem(problem, i, ordering=ordering))
        out.append(np.array([extract(tab, k) for k in range(tab.stages)]))
    return out


def make_pi_square(problem: Problem, l: float) -> DecoupledPolicy:
    """Decoupled base-stock policy: each location solves its own
    single-location problem under the linear cost l*z and keeps the
    per-stage base-stock levels the DP produces."""
    return DecoupledPolicy([
        BaseStockPolicy(levels[:, None])
        for levels in _per_location(problem, linear_cost(l), dp_mod.extract_base_stock)])


def make_pi_diamond(problem: Problem, K_h: float, h: float) -> DecoupledPolicy:
    """Decoupled (s,S) policy: each location solves its own
    single-location problem under the affine cost K_h*1(z) + h*z and
    keeps the per-stage (s, S) pairs the DP produces."""
    return DecoupledPolicy([
        SSPolicy(pairs[:, :1], pairs[:, 1:])
        for pairs in _per_location(problem, affine_cost(K_h, h), dp_mod.extract_sS)])


def make_pi_v(m: int, delta: float) -> ExplicitVPolicy:
    """Threshold-and-equalize policy over order sizes {M, M(1+delta)}.

    The order sizes are computed once here with the same float
    expressions the matching instance uses for its discount set, so
    discounted prices are hit exactly, never by drifting arithmetic.
    """
    v_values = (float(m), m * (1.0 + delta))
    return ExplicitVPolicy(v_values=v_values, threshold=m * (1.0 + delta))

"""Exact finite-horizon dynamic programming on the joint state grid.

Backward induction over the discretized joint state space gives the
optimal coupled policy and its cost-to-go; the same backward recursion
under a fixed order table gives exact expected costs (and other
expectations) of any deterministic grid policy.

Conventions shared with the simulator:

* Feasible orders at state x keep x + u inside the grid box and below
  the per-location order cap, in whole grid steps.
* Holding/backlog cost is charged on the pre-clamp level x + u - w; the
  next state is then clamped into the grid box componentwise, so
  boundary truncation never hides cost.  Expectations read the floor
  clamp as an edge pad of the value table, one slice view per outcome.
* Ties in the minimization break toward the lexicographically smallest
  order vector (location 1 first).
* Value tables hold un-normalized sums of stage costs; terminal values
  are identically zero.  The 1/N of the average-cost objective is
  applied only where costs are reported.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (Finite, Problem, SizeError, demand_pmf,
                    expected_holding_backlog)

MAX_JOINT_STATES = 100_000

# solve_joint_dp minimizes a stage one tile of the action box at a time.
# A tile's candidate block holds at most _TILE_ELEMENTS (state, order)
# pairs, so that it stays in cache, and at most _TILE_STATES_PER_ORDER
# states per order it takes at once: past that, a tile's per-state work
# (argmin over a short row, the add's inner loop) costs more than the
# scan steps it saves.  Both limits come from timing tiles against the
# plain scan over m = 1..3, grid counts and order caps.
_TILE_ELEMENTS = 2 ** 15
_TILE_STATES_PER_ORDER = 32


class StructureError(ValueError):
    """A policy table does not have the asserted structure."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class ValueFunction:
    """Stage-indexed cost-to-go tables over the joint grid.

    ``values[k]`` has one axis per location; entries are un-normalized
    expected remaining cost from stage k on.
    """

    grid: object
    m: int
    values: np.ndarray  # shape (N+1,) + (n,)*m


@dataclass
class TabularPolicy:
    """Stage-indexed optimal orders, stored as whole grid steps.

    ``orders[k]`` has one axis per location plus a trailing axis of
    length M with the per-location order in grid steps.  ``cap_steps``
    is the per-location order limit in steps; feasible orders also keep
    x + u inside the grid box.
    """

    grid: object
    m: int
    orders: np.ndarray  # int array, shape (N,) + (n,)*m + (m,)
    cap_steps: int = 10 ** 9

    @property
    def stages(self) -> int:
        return self.orders.shape[0]


def _joint_demand(problem: Problem):
    """All joint demand outcomes as (per-location demand in grid steps,
    probability)."""
    per_loc = []
    for i in range(problem.m):
        values, probs = demand_pmf(problem.demand, i)
        per_loc.append([(problem.grid.to_steps(v), p) for v, p in zip(values, probs)])
    return [(tuple(c[0] for c in combo), float(np.prod([c[1] for c in combo])))
            for combo in itertools.product(*per_loc)]


def _expectation(w: np.ndarray, combos) -> np.ndarray:
    """ev[y] = sum_c p_c * w[max(y - shift_c, 0)] over the joint post-order
    grid y; trailing axes of w (several quantities at once) carry along.
    The clamp is an edge pad: w is copied once behind ``pad`` copies of
    its first row on each location axis, and each outcome is a slice view
    of the copy; shifts of n - 1 or more read row 0 throughout."""
    m, n = len(combos[0][0]), w.shape[0]
    pad = min(max(max(shifts) for shifts, _ in combos), n - 1)
    padded = np.empty((n + pad,) * m + w.shape[m:], dtype=w.dtype)
    padded[(slice(pad, None),) * m] = w
    for a in range(m):
        lead = (slice(None),) * a
        padded[lead + (slice(0, pad),)] = padded[lead + (slice(pad, pad + 1),)]
    cut = [slice(pad - s, pad - s + n) for s in range(pad + 1)]  # view of shift s <= pad
    ev = np.zeros_like(w)
    for shifts, prob in combos:
        ev += prob * padded[tuple(cut[min(s, pad)] for s in shifts)]
    return ev


def _expected_holding_tables(problem: Problem) -> list:
    """Per location i, EH[i][j] = E r_i(grid.point(j) - w_i).

    The argument grid.point(j) is the post-order level; subtracting the
    demand can leave the grid below its minimum, which is intended: the
    cost is charged pre-clamp.
    """
    return [expected_holding_backlog(problem.holding.holding[i],
                                     problem.holding.backlog[i],
                                     problem.grid.points(), problem.demand, i)
            for i in range(problem.m)]


def _order_cost_box(problem: Problem, cap_steps: int) -> np.ndarray:
    """c(total order) for every joint order in the action box, indexed by
    per-location step counts."""
    totals = np.indices((cap_steps + 1,) * problem.m).sum(axis=0) * problem.grid.step
    return problem.ordering.eval_array(totals)


def _require_dp(problem: Problem):
    problem.validate(dp=True)
    if not isinstance(problem.horizon, Finite):
        raise ValueError("exact DP requires a finite horizon")
    n = problem.grid.count
    if n ** problem.m > MAX_JOINT_STATES:
        raise SizeError(
            f"joint grid has {n}^{problem.m} = {n ** problem.m} states "
            f"(limit {MAX_JOINT_STATES}); reduce the grid or locations")


def _tile_axes(n: int, m: int, b: int) -> int:
    """How many trailing order axes a tile takes at once: the largest
    q <= m whose candidate block, n**m states by b**q orders, holds at
    most ``_TILE_ELEMENTS`` entries; 0 if that block still has more than
    ``_TILE_STATES_PER_ORDER`` states per order."""
    q = 0
    while q < m and n ** m * b ** (q + 1) <= _TILE_ELEMENTS:
        q += 1
    return q if n ** m <= _TILE_STATES_PER_ORDER * b ** q else 0


def solve_joint_dp(problem: Problem):
    """Optimal coupled policy by backward induction.

    Returns (ValueFunction, TabularPolicy).  Each stage is minimized one
    tile of the action box at a time.  With b orders per axis, a tile
    fixes the leading m - q orders u, which are scanned in C order, and
    takes every trailing order v of the q trailing axes at once.
    ``_tile_axes`` picks q from (n, m, b): the widest tile within the
    cache and states-per-order limits.  That is q = 1 on ``sector_sim``
    and ``affine_sim`` and on their single-location problems, q = m on
    the small ``fig1`` grids, and q = 0 (one order vector per tile) on
    wide joint grids with small order caps.

    For the states j with j + u inside the grid on the leading axes, a
    tile forms cand = c(u, v) + goal[j + (u, v)] for every v.  The goal
    entries are a window of b per trailing axis into one copy of goal
    padded with +inf past the grid's top, so an order that leaves the box
    never wins, and v = 0 is feasible everywhere.  argmin over the
    flattened v gives each state the first minimum of its tile in C order
    of v; that minimum replaces the state's best only where it is
    strictly smaller.  The tiles come in C order of u, so an order
    survives only when no order before it in C order over the whole box
    is as good: the lexicographic tie-break.  With q = 0 a tile is one
    order vector and a stage is the plain scan: for each u,
    cand = c(u) + goal[j + u] kept where cand < best.
    """
    _require_dp(problem)
    grid, m = problem.grid, problem.m
    n = grid.count
    periods = problem.horizon.periods
    cap_steps = grid.to_steps(problem.max_order_per_location)
    # orders above n - 1 steps are infeasible from every state
    b = min(cap_steps, n - 1) + 1
    q = _tile_axes(n, m, b)
    lead = m - q

    combos = _joint_demand(problem)
    eh = _expected_holding_tables(problem)
    hold = functools.reduce(np.add.outer, eh)
    order_cost = _order_cost_box(problem, b - 1)

    # goal fills the interior of the +inf-padded copy in place each stage,
    # so the tiles' views of it are taken once
    padded = np.full((n,) * lead + (n + b - 1,) * q, np.inf)
    goal = padded[(slice(None),) * lead + (slice(0, n),) * q]
    windows = sliding_window_view(padded, (b,) * q, axis=tuple(range(lead, m)))
    best = np.empty((n,) * m)
    arg = np.empty((n,) * m, dtype=np.intp)  # flat index of the best order
    # where each state's row of b**q candidates starts in a tile's block
    row_starts = np.arange(0, n ** m * b ** q, b ** q)
    # per leading order s: the states that can take it, and where they land
    heads = [slice(0, n - s) for s in range(b)]
    tails = [slice(s, None) for s in range(b)]
    # leading orders in C order, with c(u, .) and their state slices
    scan = zip(order_cost.reshape((-1,) + (b,) * q),
               itertools.product(heads, repeat=lead), itertools.product(tails, repeat=lead))
    tiles = []
    for t, (cost, states, post) in enumerate(scan):
        low = best[states]
        tiles.append((cost, windows[post], low, arg[states], row_starts[:low.size], t * b ** q))
    block = (-1, b ** q)

    values = np.zeros((periods + 1,) + (n,) * m)
    orders = np.zeros((periods,) + (n,) * m + (m,), dtype=np.int32)

    for k in range(periods - 1, -1, -1):
        # cost of landing post-order at y, plus the future
        np.add(hold, _expectation(values[k + 1], combos), out=goal)
        best.fill(np.inf)
        for cost, view, low, flat, starts, base in tiles:
            cand = cost + view
            if q:
                pick = cand.reshape(block).argmin(axis=1)
                cand = cand.take(starts + pick).reshape(low.shape)
                pick = (pick + base).reshape(low.shape)
            else:
                pick = base
            better = cand < low
            np.copyto(low, cand, where=better)
            np.copyto(flat, pick, where=better)
        values[k] = best
        orders[k] = np.stack(np.unravel_index(arg, (b,) * m), axis=-1)

    return (ValueFunction(grid=grid, m=m, values=values),
            TabularPolicy(grid=grid, m=m, orders=orders, cap_steps=cap_steps))


def solve_single_dp(problem: Problem):
    """Backward induction for a single-location problem (M = 1)."""
    if problem.m != 1:
        raise ValueError("solve_single_dp requires a one-location problem")
    return solve_joint_dp(problem)


def _order_table(problem: Problem, policy) -> np.ndarray:
    """Per-stage order tables (in grid steps) of a deterministic grid
    policy on a DP-eligible problem, with feasibility checked."""
    _require_dp(problem)
    if isinstance(policy, TabularPolicy):
        if policy.grid != problem.grid:
            raise ValueError("order table grid does not match the problem's grid")
        table = policy.orders
    elif hasattr(policy, "tabulate"):
        table = policy.tabulate(problem)
    else:
        raise TypeError(f"policy of type {type(policy).__name__} has no grid tabulation")
    n = problem.grid.count
    cap_steps = problem.grid.to_steps(problem.max_order_per_location)
    if table.shape != (problem.periods,) + (n,) * problem.m + (problem.m,):
        raise ValueError("order table shape does not match the problem")
    if np.any(table < 0):
        raise ValueError("order table contains negative orders")
    idx = np.indices((n,) * problem.m)
    for i in range(problem.m):
        if np.any(table[..., i] > np.minimum(cap_steps, n - 1 - idx[i])):
            raise ValueError("order table leaves the grid box or exceeds the order cap")
    return table


def _policy_recursion(problem: Problem, table: np.ndarray, stage, w: np.ndarray):
    """Backward recursion w <- stage(u, post) + ev[post] of a fixed order
    table from the terminal table ``w``, returning w at stage 0.  ``u`` is
    a stage's orders in steps, ``post`` the per-location post-order
    indices; w may carry trailing axes of quantities."""
    m, n = problem.m, problem.grid.count
    combos = _joint_demand(problem)
    idx = np.indices((n,) * m)
    for k in range(problem.horizon.periods - 1, -1, -1):
        u = table[k]
        post = tuple(idx[i] + u[..., i] for i in range(m))
        w = stage(u, post) + _expectation(w, combos)[post]
    return w


def _stage_cost(problem: Problem, u: np.ndarray, post: tuple, eh: list) -> np.ndarray:
    """c(total order) plus the expected holding/backlog of every location."""
    cost = problem.ordering.eval_array(u.sum(axis=-1) * problem.grid.step)
    for i in range(problem.m):
        cost = cost + eh[i][post[i]]
    return cost


def evaluate_policy_exact(problem: Problem, policy) -> np.ndarray:
    """Expected average cost of a deterministic grid policy from every
    initial grid state, by exact backward recursion of the remaining
    cost under the policy.  Randomized or online policies are not
    representable here; estimate those by Monte Carlo instead.
    """
    table = _order_table(problem, policy)
    eh = _expected_holding_tables(problem)
    w = _policy_recursion(problem, table,
                          lambda u, post: _stage_cost(problem, u, post, eh),
                          np.zeros((problem.grid.count,) * problem.m))
    return w / problem.horizon.periods


@dataclass
class ExactExpectations:
    """Per initial grid state (leading axes): the average cost, the
    expected sum of all orders, E[x_N,i] and the expected mass
    E sum_k max(0, lo - (y_k,i - w_k,i)) that clamping at the grid floor
    added to location i.  As x_N - x_0 = sum u - sum w + sum clamp per
    location, orders = sum_i (final_level_i - x_0,i - clamp_i) + N*E[w]."""

    cost: np.ndarray
    orders: np.ndarray
    final_level: np.ndarray  # (..., M)
    clamp: np.ndarray        # (..., M)


def exact_expectations(problem: Problem, policy) -> ExactExpectations:
    """Cost, total orders, final levels and floor-clamp mass of a
    deterministic grid policy, by one backward recursion whose value
    table carries the quantities on a trailing axis."""
    table = _order_table(problem, policy)
    grid, m, n = problem.grid, problem.m, problem.grid.count
    eh = _expected_holding_tables(problem)
    # E max(0, lo - (y - w)) is the backlog term at rate 1 of level y - lo
    ec = [expected_holding_backlog(0.0, 1.0, grid.step * np.arange(n), problem.demand, i)
          for i in range(m)]
    zeros = np.zeros((n,) * m)

    def stage(u, post):
        return np.stack([_stage_cost(problem, u, post, eh), u.sum(axis=-1) * grid.step]
                        + [zeros] * m + [ec[i][post[i]] for i in range(m)], axis=-1)

    w = np.zeros((n,) * m + (2 + 2 * m,))
    w[..., 2:2 + m] = grid.states(m).reshape((n,) * m + (m,))
    w = _policy_recursion(problem, table, stage, w)
    return ExactExpectations(w[..., 0] / problem.horizon.periods, w[..., 1],
                             w[..., 2:2 + m], w[..., 2 + m:])


# ---------------------------------------------------------------------------
# Structure extraction
# ---------------------------------------------------------------------------

def _single_stage_orders(policy: TabularPolicy, k: int) -> np.ndarray:
    if policy.m != 1:
        raise ValueError("structure extraction works on single-location policies")
    if not 0 <= k < policy.stages:
        raise IndexError(f"stage {k} out of range")
    return policy.orders[k][:, 0]


def _caps(policy: TabularPolicy) -> np.ndarray:
    n = policy.grid.count
    return np.minimum(policy.cap_steps, n - 1 - np.arange(n))


def extract_base_stock(policy: TabularPolicy, k: int) -> float:
    """Base-stock level of one stage table, or StructureError.

    The table must equal order-up-to-S truncated to the feasible action
    set: u(x) = clip(S - x, 0, cap(x)).  This is a structural scan, not a
    fit; the first violating state is reported.  A never-ordering table
    yields the grid floor (any level at or below it acts identically).
    """
    u = _single_stage_orders(policy, k)
    caps = _caps(policy)
    grid = policy.grid
    positive = np.nonzero(u > 0)[0]
    if positive.size == 0:
        return grid.point(0)
    s_idx = int((positive + u[positive]).max())
    expected = np.clip(s_idx - np.arange(grid.count), 0, caps)
    bad = np.nonzero(u != expected)[0]
    if bad.size:
        j = int(bad[0])
        raise StructureError(
            f"stage {k} is not base-stock: state {grid.point(j)} orders "
            f"{u[j] * grid.step}, expected {expected[j] * grid.step} for S={grid.point(s_idx)}",
            state=grid.point(j))
    return grid.point(s_idx)


def extract_sS(policy: TabularPolicy, k: int):
    """(s, S) pair of one stage table, or StructureError.

    Below s the table must order up to S (truncated to the action cap);
    at or above s it must order nothing.  A never-ordering table yields
    s = S = the grid floor.
    """
    u = _single_stage_orders(policy, k)
    caps = _caps(policy)
    grid = policy.grid
    n = grid.count
    positive = np.nonzero(u > 0)[0]
    if positive.size == 0:
        return grid.point(0), grid.point(0)
    zero = np.nonzero(u == 0)[0]
    small_s_idx = int(zero[0]) if zero.size else n
    if np.any(u[small_s_idx:] != 0):
        j = int(small_s_idx + np.nonzero(u[small_s_idx:] != 0)[0][0])
        raise StructureError(
            f"stage {k} is not (s,S): state {grid.point(j)} orders above the "
            f"reorder point {grid.point(small_s_idx)}", state=grid.point(j))
    big_s_idx = int((positive + u[positive]).max())
    below = np.arange(small_s_idx)
    expected = np.minimum(big_s_idx - below, caps[below])
    bad = np.nonzero(u[below] != expected)[0]
    if bad.size:
        j = int(bad[0])
        raise StructureError(
            f"stage {k} is not (s,S): state {grid.point(j)} orders {u[j] * grid.step}, "
            f"expected {expected[j] * grid.step} for S={grid.point(big_s_idx)}",
            state=grid.point(j))
    small_s = grid.point(small_s_idx) if small_s_idx < n else grid.point(n - 1) + grid.step
    return small_s, grid.point(big_s_idx)

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

from .model import (Finite, Problem, SizeError, demand_pmf,
                    expected_holding_backlog)

MAX_JOINT_STATES = 100_000


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


def solve_joint_dp(problem: Problem):
    """Optimal coupled policy by backward induction.

    Returns (ValueFunction, TabularPolicy).  Each stage is minimized
    action-major: the scan visits the order vectors u of the action box
    in C order and, for all states j with j + u inside the grid at once,
    forms cand = c(u) + goal[j + u] and keeps it where cand < best holds
    strictly.  The strict comparison keeps the first minimum in C order,
    which realizes the lexicographic tie-break; u = 0 is feasible
    everywhere, so every state gets a value.
    """
    _require_dp(problem)
    grid, m = problem.grid, problem.m
    n = grid.count
    periods = problem.horizon.periods
    cap_steps = grid.to_steps(problem.max_order_per_location)
    # orders above n - 1 steps are infeasible from every state
    box = (min(cap_steps, n - 1) + 1,) * m

    combos = _joint_demand(problem)
    eh = _expected_holding_tables(problem)
    hold = functools.reduce(np.add.outer, eh)
    order_cost = _order_cost_box(problem, box[0] - 1)
    # per-axis order s: the states that can take it, and where they land
    heads = [slice(0, n - s) for s in range(box[0])]
    tails = [slice(s, None) for s in range(box[0])]

    values = np.zeros((periods + 1,) + (n,) * m)
    orders = np.zeros((periods,) + (n,) * m + (m,), dtype=np.int32)
    arg = np.empty((n,) * m, dtype=np.intp)  # flat index of the best order

    for k in range(periods - 1, -1, -1):
        # cost of landing post-order at y, plus the future
        goal = hold + _expectation(values[k + 1], combos)
        best = values[k]
        best.fill(np.inf)
        # order vectors in C order, with c(u) and their state slices
        scan = zip(order_cost.flat, itertools.product(heads, repeat=m),
                   itertools.product(tails, repeat=m))
        for flat, (cost, states, post) in enumerate(scan):
            cand = cost + goal[post]
            better = cand < best[states]
            np.copyto(best[states], cand, where=better)
            np.copyto(arg[states], flat, where=better)
        orders[k] = np.stack(np.unravel_index(arg, box), axis=-1)

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

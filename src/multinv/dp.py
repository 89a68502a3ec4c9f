"""Exact finite-horizon dynamic programming on the joint state grid.

Backward induction over the discretized joint state space gives the
optimal coupled policy and its cost-to-go; the same backward recursion
under a fixed order table gives exact expected costs (and other
expectations) of any deterministic ``Policy`` that tabulates on the grid.

Conventions shared with the simulator:

* Feasible orders at state x keep x + u inside the grid box and below
  the per-location order cap, in whole grid steps.
* Holding/backlog cost is charged on the pre-clamp level x + u - w; the
  next state is then clamped into the grid box componentwise, so
  backlog below the floor is charged once and then forgiven in every
  later period.  Expectations read the floor clamp as an edge pad of
  the value table, laid flat so that each outcome is one contiguous
  slice, and sum over one location's demand at a time, the last two
  locations' jointly.
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
                    expected_holding_backlog, location_sum)

MAX_JOINT_STATES = 100_000

# With one or two locations, solve_joint_dp minimizes a stage one leading
# order at a time, taking every order on the last axis at once (three or
# more locations take the per-axis stage).  Each such tile is cut into
# chunks of whole rows of states whose candidate block, states by orders,
# holds at most _TILE_ELEMENTS entries (one row when a row alone holds
# more), so that a block stays in cache.
_TILE_ELEMENTS = 2 ** 15


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
    cap_steps: int

    @property
    def stages(self) -> int:
        return self.orders.shape[0]


def _demand_passes(problem: Problem) -> list:
    """The demand of ``_expectation``'s passes: one pass per location from
    location 1 on, the last two locations (or the only one) in one joint
    pass.  Each pass is (shifts, probs): its locations' demands in grid
    steps as an int array of shape (outcomes, locations), the outcomes in
    C order of the atoms, and each outcome's probability, the product of
    its atoms' probabilities from the pass's first location on."""
    m = problem.m
    pmfs = [demand_pmf(problem.demand, i) for i in range(m)]
    steps = [[problem.grid.to_steps(v) for v in values] for values, _ in pmfs]
    groups = [[i] for i in range(m - 2)] + [list(range(max(m - 2, 0), m))]
    return [(np.array(list(itertools.product(*(steps[i] for i in g))),
                      dtype=np.intp).reshape(-1, len(g)),
             functools.reduce(np.multiply.outer,
                              [np.asarray(pmfs[i][1], dtype=float) for i in g]).ravel())
            for g in groups]


def _expectation(w: np.ndarray, passes) -> np.ndarray:
    """ev[y] = E w[max(y - d, 0)] over the joint post-order grid y, for the
    demand d of ``_demand_passes``; trailing axes of w (several
    quantities at once) carry along.  Demand is independent across
    locations and the floor clamp acts on each axis alone, so the
    expectation factors: each pass sums its own locations' outcomes on
    the leading axes (``_pass_sum``), then moves those axes behind the
    rest, where they ride along as trailing axes of the next pass; the
    last pass's result has them moved back to the front.

    The passes fix the association: E over location 1, then over
    location 2 of that, and so on, the last two locations jointly over
    their outcome pairs.  A pass adds one slice per outcome, so the
    passes add atoms**2 + (M - 2) * atoms slices in place of atoms**M.
    With one or two locations the single pass is the all-outcome sum;
    from three on the result agrees with that sum up to rounding."""
    m = sum(shifts.shape[1] for shifts, _ in passes)
    for shifts, probs in passes:
        k = shifts.shape[1]
        w = _pass_sum(w, shifts, probs).transpose(tuple(range(k, w.ndim)) + tuple(range(k)))
    d = w.ndim
    return w.transpose(tuple(range(d - m, d)) + tuple(range(d - m)))


def _pass_sum(w: np.ndarray, shifts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """ev[y] = sum_c p_c * w[max(y - shift_c, 0)] over the leading k =
    shifts.shape[1] axes of w; its other axes carry along.  The clamp is
    an edge pad: w is copied once behind ``pad`` copies of its first row
    on each of the k axes, and the copy is read flat: y lands at flat
    cell f(y) and outcome c reads f(y) + off(c), so every y at once is
    one contiguous slice, the first ``span`` cells past off(c), where
    span ends at the grid's last state.  ev is summed in the same flat
    layout and returned as a view of its n**k box; its first axis needs
    no pad, since span stops at its top.  Shifts of n - 1 or more read
    row 0 throughout."""
    k, n = shifts.shape[1], w.shape[0]
    pad = min(int(shifts.max()), n - 1)
    side, rest = n + pad, w.shape[k:]
    padded = np.empty((side,) * k + rest, dtype=w.dtype)
    padded[(slice(pad, None),) * k] = w
    for a in range(k):
        lead = (slice(None),) * a
        padded[lead + (slice(0, pad),)] = padded[lead + (slice(pad, pad + 1),)]
    strides = side ** np.arange(k - 1, -1, -1)
    span = (n - 1) * int(strides.sum()) + 1
    offsets = (pad - np.minimum(shifts, pad)) @ strides
    flat = padded.reshape((-1,) + rest)
    ev = np.zeros((n * side ** (k - 1),) + rest, dtype=w.dtype)
    acc = ev[:span]
    for off, prob in zip(offsets.tolist(), probs.tolist()):
        acc += prob * flat[off:off + span]
    return ev.reshape((n,) + (side,) * (k - 1) + rest)[(slice(0, n),) * k]


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

    Returns (ValueFunction, TabularPolicy).  Each stage takes, for every
    state j, the minimum over the feasible orders u of the candidate
    c(u_1 + ... + u_m) + goal[j + u], where goal is the expected
    holding/backlog cost of the post-order level plus the expected
    future value.  With b orders per axis, two paths minimize it:

    * One or two locations (``_tile_stage``): a scan of the b**m order
      vectors in C order, one leading order at a time with every order on
      the last axis at once.
    * Three or more (``_axis_stage``): one location axis at a time,
      indexed by the partial sum of the orders still to be chosen.  The
      scan's work grows as b**m, the per-axis recursion's as m**2 * b**2.

    The choice follows m alone.  At m <= 2 the recursion evaluates no
    fewer candidates than the scan, and its stage measured 1.3-15x
    slower (3.2x on a whole ``sector_sim`` solve, 4.0x on its
    single-location problem); from m = 3 on it was faster on every shape
    timed, taking 0.003-0.81 of the scan's time per one-stage solve on
    three and four locations and 0.06-0.19 of its time per stage on five
    to eight.  A per-axis stage for every m whose last level is the
    scan's windowed argmin is bit-exact too, but read 1.5x on
    ``sector_sim`` and 2.7x on the three-location ``dp_joint3`` solve.

    Both paths return the same values and orders, bit for bit.  Every
    candidate either path compares is the same double c[t] + goal[y];
    the per-axis levels only take minima of these, and ``np.minimum``
    returns one of its operands' bits, as goal holds no NaN and no -0.0.
    Both break ties toward the lexicographically smallest order vector.
    The scan keeps a candidate only where it is strictly better than
    every earlier one in C order.  The recursion, minimizing the last
    axis first and the first axis last, keeps on each axis an order only
    where its best completion is strictly better than those of the
    smaller orders; read back from the first axis on, each axis takes
    the smallest order that attains the minimum given the orders before
    it.

    Memory: the scan's tables are about one padded copy of the grid
    each, and a candidate block holds at most ``_TILE_ELEMENTS`` doubles,
    or one row of n**(m-1) * b when that is more.  The recursion holds
    (m - 1)(b - 1) + 1 rows of n**m doubles, one row per partial sum,
    plus O(1) such rows of scratch, and keeps m(m - 1)(b - 1)/2 + m rows
    of n**m one-byte order indices for the read-back: O(m * b * n**m)
    doubles and O(m**2 * b * n**m) bytes.
    """
    _require_dp(problem)
    grid, m = problem.grid, problem.m
    n = grid.count
    periods = problem.horizon.periods
    cap_steps = grid.to_steps(problem.max_order_per_location)
    # orders above n - 1 steps are infeasible from every state
    b = min(cap_steps, n - 1) + 1
    passes = _demand_passes(problem)
    hold = functools.reduce(np.add.outer, _expected_holding_tables(problem))
    stage = (_axis_stage if m >= 3 else _tile_stage)(problem, hold, b)

    values = np.zeros((periods + 1,) + (n,) * m)
    orders = np.zeros((periods,) + (n,) * m + (m,), dtype=np.int32)
    for k in range(periods - 1, -1, -1):
        stage(_expectation(values[k + 1], passes), values[k], orders[k])

    return (ValueFunction(grid=grid, m=m, values=values),
            TabularPolicy(grid=grid, m=m, orders=orders, cap_steps=cap_steps))


def _tile_stage(problem: Problem, hold: np.ndarray, b: int):
    """The stage minimization of one or two locations: a function
    ``stage(ev, values, orders)`` that fills one stage's value and order
    tables from the expected future values ev.

    The states lie in n rows: row j is the states whose first index is
    j, n of them with two locations and the single state j with one.  A
    tile fixes the leading order u (u = 0 alone with one location, which
    shifts no row) and takes every order v on the last axis at once.  For
    the rows j with j + u < n it forms cand = c(u, v) + goal[j + u, . + v]
    for every v, through a window of b over a copy of goal whose last
    axis is padded with b - 1 cells of +inf past the grid's top, so an
    order that leaves the box never wins and v = 0 is feasible
    everywhere.  The copy is allocated once per solve and refilled in
    place each stage, so the tiles' views of it are taken once.

    argmin over v gives each state the first minimum of its tile; that
    minimum replaces the state's best only where it is strictly smaller.
    The tiles come in ascending u, so an order survives only when no
    order before it in C order over the whole box is as good: the
    lexicographic tie-break.  A tile is taken in chunks of whole rows,
    as many as keep the candidate block within ``_TILE_ELEMENTS``
    entries and at least one, and every chunk reads its states' offsets
    into the block from one shared array.
    """
    m, n = problem.m, problem.grid.count
    width = n ** (m - 1)  # states per row
    rows = min(n, max(1, _TILE_ELEMENTS // (width * b)))  # rows per chunk
    padded = np.full((n,) * (m - 1) + (n + b - 1,), np.inf)
    goal = padded[..., :n]
    windows = sliding_window_view(padded, b, axis=-1).reshape(n, width, b)
    best = np.empty((n, width))
    arg = np.empty((n, width), dtype=np.intp)  # flat index of the best order
    # where each state's b candidates start in a chunk's block
    starts = np.arange(0, rows * width * b, b)
    tiles = []
    for u, cost in enumerate(_order_cost_box(problem, b - 1).reshape(-1, b)):
        for r0 in range(0, n - u, rows):
            r1 = min(r0 + rows, n - u)
            low = best[r0:r1].reshape(-1)
            tiles.append((cost, windows[u + r0:u + r1], low, arg[r0:r1].reshape(-1),
                          starts[:low.size], u * b))

    def stage(ev, values, orders):
        # cost of landing post-order at y, plus the future
        np.add(hold, ev, out=goal)
        best.fill(np.inf)
        for cost, view, low, flat, offsets, base in tiles:
            cand = cost + view
            pick = cand.reshape(-1, b).argmin(axis=1)
            cand = cand.take(offsets + pick)
            better = cand < low
            np.copyto(low, cand, where=better)
            np.copyto(flat, pick + base, where=better)
        values[...] = best.reshape(values.shape)
        orders[...] = np.stack(np.unravel_index(arg.reshape(values.shape), (b,) * m), axis=-1)

    return stage


def _axis_stage(problem: Problem, hold: np.ndarray, b: int):
    """The stage minimization of three or more locations, one location
    axis at a time: a function ``stage(ev, values, orders)`` like
    ``_tile_stage``'s.

    The ordering cost depends on the orders only through their total, so
    the stage minimum nests.  Count the axes from 0, and let level a hold
    the best cost once the orders on axes a..m-1 are chosen, given the
    partial sum s of the orders on axes 0..a-1 and the post-order levels
    y there:

        L_m[s, y] = c[s] + goal[y],
        L_a[s, y_0..y_a-1, j_a, ...] = min over u of L_a+1[s + u, y_0..y_a-1, j_a + u, ...]

    over u = 0..b - 1 with j_a + u < n, for s = 0..a(b - 1); the stage's
    values are L_0[0].  Level m - 1 reads L_m's rows as it goes, so the
    largest table is level m - 1's, (m - 1)(b - 1) + 1 rows of n**m
    cells.  Each row is laid out with the axis that the level reading it
    minimizes outermost (axes a..m-1, then 0..a-1, for level a + 1 read
    by level a).  A shift by u on that axis is then a flat offset of
    u * n**(m-1), and the states that can take u are the first
    (n - u) * n**(m-1) cells, so every update is one pair of contiguous
    slices and no cell needs padding.  Row s of a level reads rows
    s..s + b - 1 of the one before; rows are made in ascending s, so row
    s goes back over the old row s, its last axis moved to the front for
    the next level.  For each u in ascending order, ``np.less`` marks
    the strict improvements, ``np.minimum`` keeps the values and
    ``np.maximum(arg, mask * u)`` the order, which is the last strict
    improvement since u rises: the masked copy of the tile scan costs
    several times as much on these dense masks.  The orders are read
    back from each level's one-byte index table at the running partial
    sum, location 1 first.
    """
    m, n = problem.m, problem.grid.count
    size, rest = n ** m, n ** (m - 1)
    # MAX_JOINT_STATES keeps n <= 46 once m >= 3, so a one-byte index
    # holds every per-axis order
    assert b <= np.iinfo(np.int8).max + 1
    c = problem.ordering.eval_array(np.arange(m * (b - 1) + 1) * problem.grid.step)
    table = np.empty(((m - 1) * (b - 1) + 1, size))
    row, cand = np.empty(size), np.empty(size)
    mask = np.empty(size, dtype=bool)
    marked = mask.view(np.int8)
    args = [np.empty((a * (b - 1) + 1, size), dtype=np.int8) for a in range(m)]
    # goal with its last axis first: the first level's layout
    hold = np.ascontiguousarray(np.moveaxis(hold, -1, 0))
    goal = np.empty((n,) * m)
    flat_goal = goal.reshape(-1)
    # flat cell of each state in each level's layout: axes a..m-1, then
    # 0..a-1, so an order u_i on an axis i < a moves it by u_i * n**(a-1-i)
    states = np.indices((n,) * m).reshape(m, -1)
    bases = [np.array([n ** (m - 1 - (i - a) % m) for i in range(m)]) @ states
             for a in range(m)]

    def stage(ev, values, orders):
        np.add(hold, np.moveaxis(ev, -1, 0), out=goal)
        for a in range(m - 1, -1, -1):
            for s in range(a * (b - 1) + 1):
                out = values.reshape(-1) if a == 0 else row
                arg = args[a][s]
                if a == m - 1:
                    np.add(flat_goal, c[s], out=out)
                else:
                    out[:] = table[s]
                arg.fill(0)
                for u in range(1, b):
                    cells = size - u * rest
                    if a == m - 1:
                        src = np.add(flat_goal[u * rest:], c[s + u], out=cand[:cells])
                    else:
                        src = table[s + u, u * rest:]
                    low, hit = out[:cells], marked[:cells]
                    np.less(src, low, out=mask[:cells])
                    np.minimum(low, src, out=low)
                    np.multiply(hit, u, out=hit)
                    np.maximum(arg[:cells], hit, out=arg[:cells])
                if a:
                    table[s].reshape(n, rest)[...] = out.reshape(rest, n).T
        # s: the partial sum of the orders read back so far, r: the cell
        # shift they give in the next level's layout
        s = np.zeros(size, dtype=np.intp)
        r = np.zeros(size, dtype=np.intp)
        flat_orders = orders.reshape(size, m)
        for a in range(m):
            u = args[a].reshape(-1)[bases[a] + (s * size + r)]
            flat_orders[:, a] = u
            s += u
            r = r * n + u

    return stage


def _order_table(problem: Problem, policy) -> np.ndarray:
    """Per-stage order tables (in grid steps) of a deterministic grid
    ``Policy`` on a DP-eligible problem.  ``policy.tabulate`` checks the
    grid and horizon; the orders are checked nonnegative and inside the
    grid box and order cap here, which guards hand-built tables."""
    _require_dp(problem)
    table = policy.tabulate(problem)
    n = problem.grid.count
    cap_steps = problem.grid.to_steps(problem.max_order_per_location)
    if np.any(table < 0):
        raise ValueError("order table contains negative orders")
    idx = np.indices((n,) * problem.m)
    for i in range(problem.m):
        if np.any(table[..., i] > np.minimum(cap_steps, n - 1 - idx[i])):
            raise ValueError("order table leaves the grid box or exceeds the order cap")
    return table


def _policy_recursion(problem: Problem, table: np.ndarray, stage, w: np.ndarray):
    """Backward recursion w <- stage(total, post) + ev[post] of a fixed
    order table from the terminal table ``w``, returning w at stage 0; w
    may carry trailing axes of quantities.

    The recursion works on flat cells, the joint states in C order.  At
    each stage, post[i] = j_i + u_i is every state's post-order index on
    axis i; the stage gathers its per-location terms with it, and its
    fold over the axes is the post-order state's flat cell, at which one
    ``take`` reads the expected future value ev.  ``total`` is each
    state's order total in steps (``location_sum``, exact on integers).
    Each cell adds its stage terms first and ev last.  Only one stage's
    index arrays are held at a time."""
    m, n = problem.m, problem.grid.count
    size, shape = n ** m, w.shape
    passes = _demand_passes(problem)
    idx = np.indices((n,) * m).reshape(m, size)
    post = np.empty((m, size), dtype=np.intp)
    cell = np.empty(size, dtype=np.intp)
    for k in range(problem.horizon.periods - 1, -1, -1):
        u = table[k].reshape(size, m)
        np.add(idx, u.T, out=post)
        np.copyto(cell, post[0])
        for i in range(1, m):
            cell *= n
            cell += post[i]
        ev = _expectation(w, passes).reshape((size,) + shape[m:])
        w = (stage(location_sum(u), post) + ev.take(cell, axis=0)).reshape(shape)
    return w


def _stage_cost(problem: Problem, total: np.ndarray, post: np.ndarray,
                eh: list) -> np.ndarray:
    """c(total order) plus the expected holding/backlog of every location,
    added in location order, per flat cell."""
    cost = problem.ordering.eval_array(total * problem.grid.step)
    for i in range(problem.m):
        cost += eh[i].take(post[i])
    return cost


def evaluate_policy_exact(problem: Problem, policy) -> np.ndarray:
    """Expected average cost of a deterministic ``Policy`` from every
    initial grid state, by exact backward recursion of the remaining
    cost under its ``tabulate`` table (an optimal ``TabularPolicy``
    enters wrapped in a ``TabularGridPolicy``).  Randomized or online
    policies are not representable here; estimate those by Monte Carlo
    instead.  Each stage costs O(n**M) gathers over flat cells
    (``_policy_recursion``) plus the demand expectation, and a decoupled
    policy tabulates one location at a time.
    """
    table = _order_table(problem, policy)
    eh = _expected_holding_tables(problem)
    w = _policy_recursion(problem, table,
                          lambda total, post: _stage_cost(problem, total, post, eh),
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
    deterministic ``Policy``, by one backward recursion whose value
    table carries the quantities on a trailing axis."""
    table = _order_table(problem, policy)
    grid, m, n = problem.grid, problem.m, problem.grid.count
    eh = _expected_holding_tables(problem)
    # E max(0, lo - (y - w)) is the backlog term at rate 1 of level y - lo
    ec = [expected_holding_backlog(0.0, 1.0, grid.step * np.arange(n), problem.demand, i)
          for i in range(m)]
    zeros = np.zeros(n ** m)

    def stage(total, post):
        return np.stack([_stage_cost(problem, total, post, eh), total * grid.step]
                        + [zeros] * m + [ec[i].take(post[i]) for i in range(m)], axis=-1)

    w = np.zeros((n,) * m + (2 + 2 * m,))
    w[..., 2:2 + m] = grid.states(m).reshape((n,) * m + (m,))
    w = _policy_recursion(problem, table, stage, w)
    return ExactExpectations(w[..., 0] / problem.horizon.periods, w[..., 1],
                             w[..., 2:2 + m], w[..., 2 + m:])


# ---------------------------------------------------------------------------
# Structure extraction
# ---------------------------------------------------------------------------

def extract_base_stock(policy: TabularPolicy, k: int) -> float:
    """Base-stock level S of one stage table, or StructureError.

    A base-stock table is the s = S case of ``extract_sS``: order-up-to-S
    truncated to the feasible action set, u(x) = clip(S - x, 0, cap(x)).
    This is a structural scan, not a fit; the first violating state is
    reported, and an (s,S) table with s < S fails at s, the first state
    below S that orders nothing.  A never-ordering table yields the grid
    floor (any level at or below it acts identically).
    """
    s, S = extract_sS(policy, k)
    if s != S:
        raise StructureError(f"stage {k} is not base-stock: state {s} orders 0.0 "
                             f"below S={S}", state=s)
    return S


def extract_sS(policy: TabularPolicy, k: int):
    """(s, S) pair of one stage table, or StructureError.

    Below s the table must order up to S (truncated to the action cap);
    at or above s it must order nothing.  A never-ordering table yields
    s = S = the grid floor.
    """
    if policy.m != 1:
        raise ValueError("structure extraction works on single-location policies")
    if not 0 <= k < policy.stages:
        raise IndexError(f"stage {k} out of range")
    u = policy.orders[k][:, 0]
    grid = policy.grid
    n = grid.count
    caps = np.minimum(policy.cap_steps, n - 1 - np.arange(n))
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

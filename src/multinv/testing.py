"""Independent reference implementations used by verify suites and tests.

The brute-force evaluator below recomputes optimal costs by plain
recursive enumeration of every feasible action sequence against every
demand scenario path, in pure Python arithmetic.  It shares no code with
the vectorized dynamic program it cross-checks, so agreement between the
two is meaningful.  Exponential in the horizon; use only on tiny
instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bounds import SectorFit
from .instances import build
from .model import (DemandModel, DiscreteMarginal, Finite, Grid,
                    HoldingBacklogCost, OrderingCost, Piece, Problem,
                    demand_pmf)


def _scenarios(problem: Problem) -> list:
    """Every joint demand outcome as (step shifts, values, probability)."""
    per_loc = []
    for i in range(problem.m):
        values, probs = demand_pmf(problem.demand, i)
        per_loc.append([(problem.grid.to_steps(v), float(v), float(p))
                        for v, p in zip(values, probs)])
    return [
        (tuple(c[0] for c in combo), tuple(c[1] for c in combo),
         math.prod(c[2] for c in combo))
        for combo in itertools.product(*per_loc)
    ]


def _expected_cost(problem: Problem, scenarios, state, order, future) -> float:
    """c(order) plus the expected holding/backlog cost and ``future`` of
    the next state, over every scenario, for one order at one state."""
    grid = problem.grid
    post = tuple(j + u for j, u in zip(state, order))
    total = problem.ordering(sum(order) * grid.step)
    for shift, values, prob in scenarios:
        stage = 0.0
        nxt = []
        for i in range(problem.m):
            level = grid.point(post[i]) - values[i]
            stage += (problem.holding.holding[i] * max(0.0, level)
                      + problem.holding.backlog[i] * max(0.0, -level))
            nxt.append(max(post[i] - shift[i], 0))
        total += prob * (stage + future(tuple(nxt)))
    return total


def reference_holding_backlog(a, b, y):
    """a*max(0, y) + b*max(0, -y) elementwise, computed as written: the
    expression ``model.holding_backlog`` is checked against byte for
    byte."""
    return a * np.maximum(0.0, y) + b * np.maximum(0.0, -y)


def envelope_gap(cost: OrderingCost, fit, z: np.ndarray):
    """(lower slack, upper slack) of a sector or affine fit at sample
    points z > 0; both must be >= 0 for a feasible envelope."""
    z = np.asarray(z, dtype=float)
    c = cost.eval_array(z)
    if isinstance(fit, SectorFit):
        lower = fit.l * z
        upper = fit.h * z
    else:
        lower = fit.K_l * (z > 0) + fit.l * z
        upper = fit.K_h * (z > 0) + fit.h * z
    return c - lower, upper - c


def _every_state(problem: Problem, cost, shape=()) -> np.ndarray:
    n = problem.grid.count
    out = np.zeros((n,) * problem.m + shape)
    for state in itertools.product(range(n), repeat=problem.m):
        out[state] = cost(0, state)
    return out


def brute_force_values(problem: Problem) -> np.ndarray:
    """Optimal un-normalized cost-to-go at stage 0 for every grid state."""
    n = problem.grid.count
    cap = problem.grid.to_steps(problem.max_order_per_location)
    scenarios = _scenarios(problem)

    def best(k, state):
        if k == problem.horizon.periods:
            return 0.0
        ranges = [range(min(cap, n - 1 - j) + 1) for j in state]
        return min(_expected_cost(problem, scenarios, state, order,
                                  lambda nxt: best(k + 1, nxt))
                   for order in itertools.product(*ranges))

    return _every_state(problem, best)


def brute_force_policy_cost(problem: Problem, order_table: np.ndarray) -> np.ndarray:
    """Un-normalized expected cost of a fixed per-stage order table by
    scenario-path enumeration, for every grid state."""
    scenarios = _scenarios(problem)

    def cost(k, state):
        if k == problem.horizon.periods:
            return 0.0
        return _expected_cost(problem, scenarios, state, order_table[k][state],
                              lambda nxt: cost(k + 1, nxt))

    return _every_state(problem, cost)


def brute_force_final_levels(problem: Problem, order_table: np.ndarray) -> np.ndarray:
    """E[x_N] per location of a fixed per-stage order table by
    scenario-path enumeration, for every grid state: shape (n,)*M + (M,)."""
    scenarios = _scenarios(problem)

    def level(k, state):
        if k == problem.horizon.periods:
            return [problem.grid.point(j) for j in state]
        post = [j + int(u) for j, u in zip(state, order_table[k][state])]
        total = [0.0] * problem.m
        for shift, _, prob in scenarios:
            nxt = level(k + 1, tuple(max(y - s, 0) for y, s in zip(post, shift)))
            total = [t + prob * x for t, x in zip(total, nxt)]
        return total

    return _every_state(problem, level, (problem.m,))


def sector_three_locations(seed: int = 1) -> Problem:
    """The 3-location copy of sector_sim (its ordering cost, grid and
    first location's demand at every location; cap 3.0, six stages) whose
    holding rates U(0.05, 0.2) and backlog rates U(5, 15) a seed draws."""
    rng = np.random.default_rng(seed)
    base = build("sector_sim")
    return Problem(
        m=3, horizon=Finite(6), ordering=base.ordering,
        holding=HoldingBacklogCost(tuple(float(v) for v in rng.uniform(0.05, 0.2, 3)),
                                   tuple(float(v) for v in rng.uniform(5.0, 15.0, 3))),
        demand=DemandModel(marginals=(base.demand.marginals[0],) * 3),
        grid=base.grid, max_order_per_location=3.0).validate(dp=True)


def random_order_table(problem: Problem, rng: np.random.Generator) -> np.ndarray:
    """A feasible random order table (grid steps, shape (N,) + (n,)*M +
    (M,)): every order is uniform on 0..min(cap, room to the grid top),
    drawn stage by stage, states in C order, location 1 first.  One draw
    per stage with an array of bounds takes the same numbers from the
    stream as one draw per order would."""
    grid, m = problem.grid, problem.m
    n = grid.count
    cap = grid.to_steps(problem.max_order_per_location)
    index = np.moveaxis(np.indices((n,) * m), 0, -1)
    highs = np.minimum(cap, n - 1 - index) + 1
    table = np.zeros((problem.periods,) + highs.shape, dtype=np.int32)
    for k in range(problem.periods):
        table[k] = rng.integers(0, highs)
    return table


def random_problem(rng: np.random.Generator, m: int, periods: int, grid: Grid, *,
                   atoms: tuple, support: int, pieces, cap) -> Problem:
    """A random discrete-demand problem on ``grid``, drawn in this order:
    for each of the ``m`` locations ``rng.integers(*atoms)`` distinct demand
    atoms among 0, 1, ..., ``support`` - 1 grid steps with normalized uniform
    probabilities; the ordering cost's ``pieces(rng)``; holding rates
    U(0.1, 2) and backlog rates U(1, 12); the order cap ``cap(rng)``."""
    marginals = []
    for _ in range(m):
        n_atoms = int(rng.integers(*atoms))
        offsets = rng.choice(np.arange(support), size=n_atoms, replace=False)
        values = tuple(float(grid.step * o) for o in sorted(offsets))
        raw = rng.random(n_atoms)
        probs = tuple(float(p) for p in raw / raw.sum())
        marginals.append(DiscreteMarginal(values=values, probs=probs))
    return Problem(
        m=m,
        horizon=Finite(periods),
        ordering=OrderingCost(pieces=tuple(pieces(rng))),
        holding=HoldingBacklogCost(
            holding=tuple(float(rng.uniform(0.1, 2.0)) for _ in range(m)),
            backlog=tuple(float(rng.uniform(1.0, 12.0)) for _ in range(m))),
        demand=DemandModel(marginals=tuple(marginals)),
        grid=grid,
        max_order_per_location=cap(rng),
    ).validate(dp=True)


def random_small_problem(rng: np.random.Generator) -> Problem:
    """A random instance small enough for brute-force enumeration:
    N <= 2, M <= 2, at most 6 grid points per dimension."""
    m = int(rng.integers(1, 3))
    periods = int(rng.integers(1, 3))
    step = float(rng.choice([0.5, 1.0]))
    count = int(rng.integers(4, 7))
    lo = -step * int(rng.integers(0, 3))

    def pieces(rng):
        if rng.random() < 0.5:
            b = float(step * rng.integers(1, 4))
            m1 = float(rng.uniform(0.5, 4.0))
            m2 = float(rng.uniform(0.5, 4.0))
            # keep the cost lower semicontinuous: no downward jump at b
            lift = max(0.0, (m1 - m2) * b) + float(rng.choice([0.0, rng.uniform(0, 2)]))
            return Piece(b, 0.0, m1), Piece(math.inf, lift, m2)
        return (Piece(math.inf, float(rng.choice([0.0, rng.uniform(0.5, 3.0)])),
                      float(rng.uniform(0.5, 4.0))),)

    return random_problem(rng, m, periods,
                          Grid(lo=lo, hi=lo + step * (count - 1), step=step),
                          atoms=(2, 4), support=4, pieces=pieces,
                          cap=lambda rng: float(step * int(rng.integers(2, 4))))

"""Long-run average cost of stationary base-stock policies.

Once a stationary base-stock policy has replenished every location, each
period's order replaces the previous period's demand exactly, so the
per-period average cost settles at

    E[c(sum_i w_i)]  +  sum_i E[r_i(S_i - w_i)]

and the ordering term does not depend on the levels S at all.  That is
why jointly optimizing the levels over all locations and optimizing each
location in isolation produce the same levels and the same cost; both
optimizers below share one tie-break (toward smaller levels) so the
equality holds argmin-by-argmin, not just in value.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import (Problem, SizeError, UnsupportedDemandError,
                    convolve_atoms, demand_pmf, expected_holding_backlog)


MAX_JOINT_CANDIDATES = 2_000_000


def _require_discrete(problem: Problem):
    if not problem.demand.is_discrete:
        raise UnsupportedDemandError("stationary analysis requires discrete demand")


def total_demand_pmf(problem: Problem):
    """Pmf of one period's total demand across locations (convolution of
    the independent marginals)."""
    _require_discrete(problem)
    atoms = {0.0: 1.0}
    for i in range(problem.m):
        atoms = convolve_atoms(atoms, list(zip(*demand_pmf(problem.demand, i))))
    values = np.array(sorted(atoms))
    return values, np.array([atoms[v] for v in values])


def expected_ordering_term(problem: Problem) -> float:
    """E[c(total demand)] - the level-independent part of the average."""
    values, probs = total_demand_pmf(problem)
    return float(problem.ordering.eval_array(values) @ probs)


def _location_cost(problem: Problem, i: int, levels) -> np.ndarray:
    """E[r_i(S - w_i)] for every level S in ``levels``."""
    return expected_holding_backlog(problem.holding.holding[i],
                                    problem.holding.backlog[i], levels,
                                    problem.demand, i)


def stationary_cost(levels: tuple, problem: Problem) -> float:
    """Steady-state per-period average cost of the stationary base-stock
    policy with the given levels (one per location): the sum of
    ``cost_decomposition``."""
    return sum(cost_decomposition(levels, problem).values())


def optimize_individual(problem: Problem) -> tuple:
    """Per-location argmin of E[r_i(S - w_i)] over the grid; ties break
    toward the smaller level."""
    _require_discrete(problem)
    points = problem.grid.points()
    levels = []
    for i in range(problem.m):
        curve = _location_cost(problem, i, points)
        levels.append(float(points[int(np.argmin(curve))]))
    return tuple(levels)


def optimize_joint(problem: Problem) -> tuple:
    """Exhaustive search of the joint level grid; ties break toward the
    lexicographically smallest level vector."""
    _require_discrete(problem)
    points = problem.grid.points()
    n = len(points)
    if n ** problem.m > MAX_JOINT_CANDIDATES:
        raise SizeError(
            f"joint level search has {n}^{problem.m} = {n ** problem.m} candidates "
            f"(limit {MAX_JOINT_CANDIDATES})")
    total = functools.reduce(np.add.outer, [_location_cost(problem, i, points)
                                            for i in range(problem.m)])
    flat = int(np.argmin(total))  # first minimum in C order = lexicographic
    idx = np.unravel_index(flat, total.shape)
    return tuple(float(points[j]) for j in idx)


def cost_decomposition(levels: tuple, problem: Problem) -> dict:
    """Reporting helper: the constant ordering term and the per-location
    holding/backlog terms."""
    parts = {"ordering": expected_ordering_term(problem)}
    for i, s in enumerate(levels):
        parts[f"location_{i}"] = float(_location_cost(problem, i, s))
    return parts

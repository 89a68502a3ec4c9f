"""Structured-text (JSON) serialization of problems and policies.

The problem schema (all field names are part of the contract; inventory
quantities share the grid's units, rates are cost per unit per period):

    {
      "locations": 2,
      "horizon": {"kind": "finite", "periods": 20}
                 | {"kind": "infinite_averaged", "sim_periods": 2000, "burn_in": 0},
      "grid": {"min": -2.0, "max": 8.0, "step": 0.5},
      "max_order_per_location": 10.0,
      "ordering": {
        "pieces": [{"upper": 6.0, "fixed": 0.0, "slope": 4.0},
                   {"upper": null, "fixed": 12.0, "slope": 2.0}],
        "discounts": [{"z": 2.0, "slope": 1.0}]
      },
      "holding": [{"holding_rate": 0.1, "backlog_rate": 10.0}, ...],
      "demand": {
        "iid_across_periods": true,
        "locations": [{"kind": "discrete", "atoms": [[0.0, 0.125], ...]}
                      | {"kind": "uniform", "lo": 1.0, "hi": 1.1}]
      }
    }

Pieces list consecutive intervals starting just above zero; "upper" is
the inclusive right end, null meaning unbounded.  "iid_across_periods"
is a required declaration that must be true: demand i.i.d. across
periods is the only model the package has.  Policies serialize as
a kind tag plus parameters; tabular policies serialize by digest only,
so ``policy_from_config`` cannot reconstruct them and says so.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .model import (DemandModel, DiscreteMarginal, Finite, Grid,
                    HoldingBacklogCost, InfiniteAveraged, OrderingCost, Piece,
                    Problem, UniformMarginal)
from . import policies as pol_mod


def problem_to_config(problem: Problem) -> dict:
    if isinstance(problem.horizon, Finite):
        horizon = {"kind": "finite", "periods": problem.horizon.periods}
    else:
        horizon = {"kind": "infinite_averaged",
                   "sim_periods": problem.horizon.sim_periods,
                   "burn_in": problem.horizon.burn_in}
    locations = []
    for g in problem.demand.marginals:
        if isinstance(g, DiscreteMarginal):
            locations.append({"kind": "discrete",
                              "atoms": [[float(v), float(p)]
                                        for v, p in zip(g.values, g.probs)]})
        else:
            locations.append({"kind": "uniform", "lo": g.lo, "hi": g.hi})
    return {
        "locations": problem.m,
        "horizon": horizon,
        "grid": {"min": problem.grid.lo, "max": problem.grid.hi,
                 "step": problem.grid.step},
        "max_order_per_location": problem.max_order_per_location,
        "ordering": {
            "pieces": [{"upper": None if math.isinf(p.upper) else p.upper,
                        "fixed": p.fixed, "slope": p.slope}
                       for p in problem.ordering.pieces],
            "discounts": [{"z": z, "slope": s}
                          for z, s in problem.ordering.discounts],
        },
        "holding": [{"holding_rate": a, "backlog_rate": b}
                    for a, b in zip(problem.holding.holding, problem.holding.backlog)],
        "demand": {"iid_across_periods": True, "locations": locations},
    }


_REQUIRED = object()


def _field(cfg, *path, default=_REQUIRED):
    """``cfg[path[0]][path[1]]...``.  A missing field is a ValueError
    naming its path, e.g. ``config: missing field 'holding[1].backlog_rate'``,
    unless a ``default`` for the last key is given."""
    node = cfg
    for j, key in enumerate(path):
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            if default is not _REQUIRED and j == len(path) - 1:
                return default
            raise ValueError(f"config: missing field {_where(path[:j + 1])!r}") from None
    return node


def _where(path) -> str:
    """A field path as written in messages, e.g. ``holding[1].backlog_rate``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _number(cfg, *path, default=_REQUIRED):
    """``_field`` read as a number: a JSON number (an int or a float, not
    a bool or a numeric string), or a ValueError naming its path, e.g.
    ``config: field 'horizon.periods' must be a number, got True``."""
    value = _field(cfg, *path, default=default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config: field {_where(path)!r} must be a number, "
                         f"got {value!r}")
    return value


def _numbers(cfg, *path):
    """``_field`` read as a number or a list (of lists) of numbers, every
    entry through ``_number``, so that an error names the entry, e.g.
    ``config: field 'levels[1]' must be a number, got '2'``."""
    value = _field(cfg, *path)
    if isinstance(value, list):
        return [_numbers(cfg, *path, j) for j in range(len(value))]
    return _number(cfg, *path)


def _count(cfg, *path, default=_REQUIRED) -> int:
    """``_number`` read as a count: a whole number such as 20 or 20.0, or a
    ValueError naming its path, e.g. ``config: field 'horizon.periods'
    must be a whole number, got 2.7``."""
    value = _number(cfg, *path, default=default)
    if not float(value).is_integer():
        raise ValueError(f"config: field {_where(path)!r} must be a whole number, "
                         f"got {value!r}")
    return int(value)


def problem_from_config(cfg: dict) -> Problem:
    kind = _field(cfg, "horizon", "kind")
    if kind == "finite":
        horizon = Finite(_count(cfg, "horizon", "periods"))
    elif kind == "infinite_averaged":
        horizon = InfiniteAveraged(_count(cfg, "horizon", "sim_periods"),
                                   _count(cfg, "horizon", "burn_in", default=0))
    else:
        raise ValueError(f"unknown horizon kind {kind!r}")
    iid = _field(cfg, "demand", "iid_across_periods")
    if iid is not True:
        raise ValueError("config: field 'demand.iid_across_periods' must be true "
                         f"(only i.i.d. demand is supported), got {iid!r}")
    marginals = []
    for i in range(len(_field(cfg, "demand", "locations"))):
        loc = ("demand", "locations", i)
        kind = _field(cfg, *loc, "kind")
        if kind == "discrete":
            atoms = range(len(_field(cfg, *loc, "atoms")))
            marginals.append(DiscreteMarginal(
                values=tuple(float(_number(cfg, *loc, "atoms", j, 0)) for j in atoms),
                probs=tuple(float(_number(cfg, *loc, "atoms", j, 1)) for j in atoms)))
        elif kind == "uniform":
            marginals.append(UniformMarginal(lo=float(_number(cfg, *loc, "lo")),
                                             hi=float(_number(cfg, *loc, "hi"))))
        else:
            raise ValueError(f"unknown demand kind {kind!r}")
    pieces = []
    for j in range(len(_field(cfg, "ordering", "pieces"))):
        upper = _field(cfg, "ordering", "pieces", j, "upper")
        pieces.append(Piece(math.inf if upper is None
                            else float(_number(cfg, "ordering", "pieces", j, "upper")),
                            float(_number(cfg, "ordering", "pieces", j, "fixed")),
                            float(_number(cfg, "ordering", "pieces", j, "slope"))))
    discounts = tuple(
        (float(_number(cfg, "ordering", "discounts", j, "z")),
         float(_number(cfg, "ordering", "discounts", j, "slope")))
        for j in range(len(_field(cfg, "ordering", "discounts", default=[]))))
    rates = range(len(_field(cfg, "holding")))
    return Problem(
        m=_count(cfg, "locations"),
        horizon=horizon,
        ordering=OrderingCost(pieces=tuple(pieces), discounts=discounts),
        holding=HoldingBacklogCost(
            holding=tuple(float(_number(cfg, "holding", i, "holding_rate")) for i in rates),
            backlog=tuple(float(_number(cfg, "holding", i, "backlog_rate")) for i in rates)),
        demand=DemandModel(marginals=tuple(marginals)),
        grid=Grid(lo=float(_number(cfg, "grid", "min")), hi=float(_number(cfg, "grid", "max")),
                  step=float(_number(cfg, "grid", "step"))),
        max_order_per_location=float(_number(cfg, "max_order_per_location")),
    )


def save_problem(problem: Problem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_config(problem), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem(path) -> Problem:
    with open(path) as fh:
        return problem_from_config(json.load(fh)).validate()


def policy_from_config(cfg: dict, problem: Problem):
    """Reconstruct a serialized policy; balancing policies rebuild from
    their parameters against the given problem, and a ``holding``,
    ``backlog`` or ``periods`` field that the rebuilt policy does not
    reproduce is a ValueError naming it."""
    return _policy_from_config(cfg, (), problem)


def _policy_from_config(cfg: dict, where: tuple, problem: Problem):
    """The policy serialized at path ``where`` of ``cfg``."""
    def field(name):
        return _field(cfg, *where, name)

    def numbers(name):
        return _numbers(cfg, *where, name)

    kind = field("kind")
    if kind == "base_stock":
        return pol_mod.BaseStockPolicy(np.asarray(numbers("levels")))
    if kind == "sS":
        return pol_mod.SSPolicy(np.asarray(numbers("small_s")),
                                np.asarray(numbers("big_s")))
    if kind == "decoupled":
        return pol_mod.DecoupledPolicy(
            [_policy_from_config(cfg, where + ("components", i), problem)
             for i in range(len(field("components")))])
    if kind == "pi_v":
        return pol_mod.ExplicitVPolicy(v_values=numbers("v_values"),
                                       threshold=_number(cfg, *where, "threshold"))
    if kind == "balancing":
        from .balancing import make_balancing_policy
        K = field("fixed_charge")  # null: the cost's jump at zero
        K = None if K is None else _number(cfg, *where, "fixed_charge")
        policy = make_balancing_policy(problem, K=K, variant=field("variant"))
        rebuilt = policy.to_config()
        for name in ("holding", "backlog", "periods"):
            given = numbers(name) if name in _field(cfg, *where) else rebuilt[name]
            if given != rebuilt[name]:
                raise ValueError(f"config: balancing field {name!r} is {given!r}, "
                                 f"but the problem gives {rebuilt[name]!r}")
        return policy
    raise ValueError(f"policy kind {kind!r} cannot be reconstructed from config")

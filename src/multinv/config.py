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
from .policies import field_path as _where


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


def _number(cfg, *path, default=_REQUIRED) -> float:
    """``_field`` read as a float by ``policies.parameter``: a JSON number
    (an int or a float, not a bool or a numeric string), or a ValueError
    naming its path, e.g. ``config: field 'horizon.periods' must be a
    number, got True``."""
    try:
        return float(pol_mod.parameter(_field(cfg, *path, default=default), path[-1]))
    except pol_mod.ParameterError as exc:
        raise ValueError(f"config: field {_where(path)!r} {exc.reason}") from None


def _list(cfg, *path, default=_REQUIRED) -> list:
    """``_field`` read as a list, or a ValueError naming its path, e.g.
    ``config: field 'holding' must be a list, got 5``."""
    value = _field(cfg, *path, default=default)
    if not isinstance(value, list):
        raise ValueError(f"config: field {_where(path)!r} must be a list, got {value!r}")
    return value


def _count(cfg, *path, default=_REQUIRED) -> int:
    """``_number`` read as a count: a whole number such as 20 or 20.0, or a
    ValueError naming its path, e.g. ``config: field 'horizon.periods'
    must be a whole number, got 2.7``."""
    value = _number(cfg, *path, default=default)
    if not value.is_integer():
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
    for i in range(len(_list(cfg, "demand", "locations"))):
        loc = ("demand", "locations", i)
        kind = _field(cfg, *loc, "kind")
        if kind == "discrete":
            atoms = range(len(_list(cfg, *loc, "atoms")))
            marginals.append(DiscreteMarginal(
                values=tuple(_number(cfg, *loc, "atoms", j, 0) for j in atoms),
                probs=tuple(_number(cfg, *loc, "atoms", j, 1) for j in atoms)))
        elif kind == "uniform":
            marginals.append(UniformMarginal(lo=_number(cfg, *loc, "lo"),
                                             hi=_number(cfg, *loc, "hi")))
        else:
            raise ValueError(f"unknown demand kind {kind!r}")
    pieces = []
    for j in range(len(_list(cfg, "ordering", "pieces"))):
        upper = _field(cfg, "ordering", "pieces", j, "upper")
        pieces.append(Piece(math.inf if upper is None
                            else _number(cfg, "ordering", "pieces", j, "upper"),
                            _number(cfg, "ordering", "pieces", j, "fixed"),
                            _number(cfg, "ordering", "pieces", j, "slope")))
    discounts = tuple(
        (_number(cfg, "ordering", "discounts", j, "z"),
         _number(cfg, "ordering", "discounts", j, "slope"))
        for j in range(len(_list(cfg, "ordering", "discounts", default=[]))))
    rates = range(len(_list(cfg, "holding")))
    return Problem(
        m=_count(cfg, "locations"),
        horizon=horizon,
        ordering=OrderingCost(pieces=tuple(pieces), discounts=discounts),
        holding=HoldingBacklogCost(
            holding=tuple(_number(cfg, "holding", i, "holding_rate") for i in rates),
            backlog=tuple(_number(cfg, "holding", i, "backlog_rate") for i in rates)),
        demand=DemandModel(marginals=tuple(marginals)),
        grid=Grid(lo=_number(cfg, "grid", "min"), hi=_number(cfg, "grid", "max"),
                  step=_number(cfg, "grid", "step")),
        max_order_per_location=_number(cfg, "max_order_per_location"),
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
    """The policy serialized at path ``where`` of ``cfg``.  Its fields go
    to the constructor as they are, and the constructor's ParameterError
    is reported under the field's path in ``cfg``."""
    def field(name):
        return _field(cfg, *where, name)

    kind = field("kind")
    try:
        if kind == "base_stock":
            return pol_mod.BaseStockPolicy(field("levels"))
        if kind == "sS":
            return pol_mod.SSPolicy(field("small_s"), field("big_s"))
        if kind == "decoupled":
            return pol_mod.DecoupledPolicy(
                [_policy_from_config(cfg, where + ("components", i), problem)
                 for i in range(len(_list(cfg, *where, "components")))])
        if kind == "pi_v":
            return pol_mod.ExplicitVPolicy(field("v_values"), field("threshold"))
        if kind == "balancing":
            from .balancing import make_balancing_policy
            # a null fixed_charge is the cost's jump at zero
            policy = make_balancing_policy(problem, K=field("fixed_charge"),
                                           variant=field("variant"))
            rebuilt, node = policy.to_config(), _field(cfg, *where)
            for name in ("holding", "backlog", "periods"):
                if name in node and not np.array_equal(
                        pol_mod.parameter(node[name], name, np.ndim(rebuilt[name])),
                        rebuilt[name]):
                    raise ValueError(f"config: balancing field {name!r} is {node[name]!r}, "
                                     f"but the problem gives {rebuilt[name]!r}")
            return policy
    except pol_mod.ParameterError as exc:
        raise ValueError(f"config: field {_where(where + exc.path)!r} {exc.reason}") from None
    raise ValueError(f"policy kind {kind!r} cannot be reconstructed from config")

"""Built-in problem instances.

Identifiers accepted everywhere an instance is named:

* ``fig1_linear``     -- two locations, two periods, integer grid, demand
  0 or 1 with equal probability, holding/backlog rates (1, 10), linear
  ordering cost 2z.
* ``fig1_nonlinear``  -- same, but the per-unit cost doubles beyond one
  unit: 2z for z <= 1, 4z above.
* ``sector_sim``      -- two locations, twenty periods, grid [-2, 8] in
  half-unit steps, demand in {0, .5, 1, 1.5} with binomial(3, 1/2)
  weights, rates (0.1, 10), volume-discount cost 4z below 6 and 2z + 12
  above (sector-bounded between 2z and 4z).
* ``affine_sim``      -- like sector_sim with rates (0.2, 10) and a fixed
  charge: 4 + 2z below 6 and 10 + z above.
* ``tightness:M=..,eps=..,l=..,h=..,p=..,sim_periods=..`` -- continuous-
  demand family where ordering costs h per unit except at exactly two
  total-order sizes {M, M(1+delta)} priced l per unit, with delta =
  eps/(l+2), demand Uniform(1, 1+delta), holding rate delta and backlog
  rate p.  Long-horizon averaged over sim_periods periods; simulation
  only (off-grid demand).  Every parameter is optional (``PARAMS``).
* ``transform_check`` -- alias of fig1_linear, conventionally paired
  with the slope-2 ordering-cost transformation.
"""

from __future__ import annotations

import math

from .model import (DemandModel, DiscreteMarginal, Finite, Grid,
                    HoldingBacklogCost, InfiniteAveraged, OrderingCost, Piece,
                    Problem, UniformMarginal)

NAMES = ("fig1_linear", "fig1_nonlinear", "sector_sim", "affine_sim",
         "tightness", "transform_check")

# (s,S)-construction parameters used when reproducing the affine
# instance's benchmark; kept as instance metadata because the honest
# optimal affine envelope of this cost differs (see fit_affine).
DIAMOND_DEFAULTS = {"affine_sim": (16.0 / 3.0, 4.0 / 3.0)}

# Parameters an instance id may set, with their defaults.  An integer
# default marks a parameter that must be a whole number.
PARAMS = {"tightness": {"M": 2, "eps": 0.1, "l": 1.0, "h": 4.0, "p": 100.0,
                        "sim_periods": 2000}}

_BIN3 = ((0.0, 0.125), (0.5, 0.375), (1.0, 0.375), (1.5, 0.125))


def _fig1(ordering: OrderingCost) -> Problem:
    marginal = DiscreteMarginal(values=(0.0, 1.0), probs=(0.5, 0.5))
    return Problem(
        m=2,
        horizon=Finite(2),
        ordering=ordering,
        holding=HoldingBacklogCost(holding=(1.0, 1.0), backlog=(10.0, 10.0)),
        demand=DemandModel(marginals=(marginal, marginal)),
        grid=Grid(lo=-2.0, hi=4.0, step=1.0),
        max_order_per_location=4.0,
    )


def _fig2(ordering: OrderingCost, holding_rate: float) -> Problem:
    marginal = DiscreteMarginal(values=tuple(v for v, _ in _BIN3),
                                probs=tuple(p for _, p in _BIN3))
    return Problem(
        m=2,
        horizon=Finite(20),
        ordering=ordering,
        holding=HoldingBacklogCost(holding=(holding_rate, holding_rate),
                                   backlog=(10.0, 10.0)),
        demand=DemandModel(marginals=(marginal, marginal)),
        grid=Grid(lo=-2.0, hi=8.0, step=0.5),
        max_order_per_location=10.0,
    )


def tightness_delta(eps: float, l: float) -> float:
    return eps / (l + 2.0)


def _tightness(m: int, eps: float, l: float, h: float, p: float,
               sim_periods: int = 2000) -> Problem:
    if not eps > 0:
        raise ValueError("tightness: eps must be > 0")
    if not 0 < l <= h:
        raise ValueError("tightness: need h >= l > 0")
    if p < 10 * h:
        raise ValueError("tightness: backlog rate p must dwarf h (p >= 10h)")
    delta = tightness_delta(eps, l)
    marginal = UniformMarginal(lo=1.0, hi=1.0 + delta)
    return Problem(
        m=m,
        horizon=InfiniteAveraged(sim_periods=sim_periods, burn_in=0),
        ordering=OrderingCost(
            pieces=(Piece(math.inf, 0.0, h),),
            discounts=((float(m), l), (m * (1.0 + delta), l)),
        ),
        holding=HoldingBacklogCost(holding=(delta,) * m, backlog=(float(p),) * m),
        demand=DemandModel(marginals=(marginal,) * m),
        grid=Grid(lo=-4.0, hi=4.0, step=0.5),
        max_order_per_location=4.0,
    )


def parse_spec(text: str, known: dict, what: str):
    """Split ``name[:key=value,...]`` into (name, {key: value text}); the
    grammar of instance ids and of policy specifiers.  ``known`` maps each
    name to the keys it takes, and ``what`` names the kind of thing in
    messages.  An unknown name, a malformed or empty ``key=value``, an
    unknown key or a repeated key raises a ValueError that names it."""
    name, _, rest = text.partition(":")
    if name not in known:
        raise ValueError(f"unknown {what} {name!r} (known: {', '.join(known)})")
    params = {}
    for part in rest.split(",") if rest else ():
        key, _, value = (s.strip() for s in part.partition("="))
        if not value:
            raise ValueError(f"malformed {what} parameter {part!r}")
        if key not in known[name]:
            raise ValueError(f"{name}: unknown parameter {key!r} (known: "
                             f"{', '.join(known[name]) or 'none'})")
        if key in params:
            raise ValueError(f"{name}: repeated parameter {key!r}")
        params[key] = value
    return name, params


def parse_id(text: str):
    """Split an instance id into (name, params), with every parameter the
    instance takes (``PARAMS``) set from the id or to its default.  A
    grammar error (``parse_spec``), or a non-integral value of an integer
    parameter, raises a ValueError that names it."""
    name, given = parse_spec(text, {n: PARAMS.get(n, {}) for n in NAMES}, "instance")
    params = dict(PARAMS.get(name, {}))
    for key, raw in given.items():
        value = float(raw)
        if isinstance(params[key], int):
            if not value.is_integer():
                raise ValueError(f"{name}: parameter {key!r} must be a whole "
                                 f"number, got {value!r}")
            value = int(value)
        params[key] = value
    return name, params


def build(instance_id: str) -> Problem:
    """Construct and validate a built-in instance."""
    name, params = parse_id(instance_id)
    if name in ("fig1_linear", "transform_check"):
        problem = _fig1(OrderingCost(pieces=(Piece(math.inf, 0.0, 2.0),)))
    elif name == "fig1_nonlinear":
        problem = _fig1(OrderingCost(pieces=(Piece(1.0, 0.0, 2.0),
                                             Piece(math.inf, 0.0, 4.0))))
    elif name == "sector_sim":
        problem = _fig2(OrderingCost(pieces=(Piece(6.0, 0.0, 4.0),
                                             Piece(math.inf, 12.0, 2.0))),
                        holding_rate=0.1)
    elif name == "affine_sim":
        problem = _fig2(OrderingCost(pieces=(Piece(6.0, 4.0, 2.0),
                                             Piece(math.inf, 10.0, 1.0))),
                        holding_rate=0.2)
    else:
        problem = _tightness(m=params["M"], eps=params["eps"], l=params["l"],
                             h=params["h"], p=params["p"],
                             sim_periods=params["sim_periods"])
    return problem.validate()


def policy_defaults(instance_id: str) -> dict:
    """Instance-specific defaults for policy construction."""
    name, params = parse_id(instance_id)
    out = {}
    if name in DIAMOND_DEFAULTS:
        out["pi_diamond"] = DIAMOND_DEFAULTS[name]
    if name == "tightness":
        delta = tightness_delta(params["eps"], params["l"])
        out["pi_v"] = {"m": params["M"], "delta": delta}
        out["base_stock_auto"] = 1.0 + delta
    return out

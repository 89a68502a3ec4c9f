"""Online randomized cost-balancing policy.

Each location is controlled independently by the same rule.  At stage k
in state x the rule works with two proxy costs as functions of the
candidate order u:

* an expected holding proxy EH(u), charged over every remaining period
  for the ordered units that period's demand would not have consumed
  (over-ordering cannot be undone), and
* a one-step expected backlog proxy EB(u) = b * E max{0, w - max{0, x+u}}
  (under-ordering can be corrected next period).

The balancing quantity u_hat equates EH and EB; its common value is the
balancing cost theta.  With a fixed ordering charge K > 0 two more
quantities enter: u_tilde sets EH(u_tilde) = K, and the probability p
solves p*K = p*EB(u_tilde) + (1-p)*EB(0).  The rule is then: order
u_hat when theta >= K; otherwise order u_tilde with probability p and
nothing with probability 1-p.  With K = 0 the rule is deterministic.

Two readings of the holding proxy's demand term are supported:

* ``printed``  -- each remaining period contributes
  max{0, u - max{0, w_n - x}} with that period's demand alone;
* ``cumulative`` -- period n contributes
  max{0, u - max{0, (w_k + ... + w_n) - x}} with the demand accumulated
  since the order was placed.

Both count the remaining periods k..N-1.

In the post-order level y = x + u the proxies are
EH(u) = scale * (Phi(x+u) - Phi(x)) and EB(u) = b * Psi(max{0, x+u}),
where Phi(t) = sum_j p_j (t - s_j)^+ over the holding proxy's demand
atoms (s_j, p_j) and Psi(t) = E (w - t)^+ over one period's demand w.
Both are convex and fixed for the stage: linear between the atoms and 0
for discrete demand, quadratic between 0, lo and hi for uniform demand.
One cached table per stage holds them at those knots (filled from prefix
sums), so each solve is a search over the knots and one linear or
quadratic root on the piece found, in closed form.  The three functions
share their knots, so the rule fetches a stage's table
and locates x in its knots once per stage and location; every quantity
at x, and the start of every difference from x, reuses that lookup.

The rule is decoupled: a location's order depends only on (k, x_i), its
cap and one uniform.  A Monte Carlo batch holds many rows at few levels,
so ``act_balancing_batch`` solves u_hat, theta, u_tilde and p once per
distinct level of x (found by one sort) and gathers them back to the
rows; only the ``uniform < p`` pick is made row by row.  That is exact
only when rows at one level share their cap, as ``Problem.order_cap``
(a function of x) guarantees; a batch that breaks this raises.
"""

from __future__ import annotations

import functools
import logging
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Finite, Problem, UniformMarginal, convolve_atoms
from .policies import Policy

logger = logging.getLogger(__name__)

VARIANTS = ("printed", "cumulative")


@dataclass
class BalancingState:
    """Per-location data of the balancing rule."""

    periods: int
    a: float
    b: float
    K: float = 0.0
    marginal: object = None  # DiscreteMarginal or UniformMarginal
    u_cap: float = np.inf
    variant: str = "printed"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown balancing variant {self.variant!r}")
        if self.a < 0 or self.b < 0 or self.K < 0:
            raise ValueError("rates and fixed charge must be >= 0")

    def _check_stage(self, k: int):
        if not 0 <= k < self.periods:
            raise IndexError(f"stage {k} out of range")


# (values, probs) -> partial-sum atoms for horizons 0..H of one marginal;
# heatmap worker threads share it
_PARTIAL_SUMS = {}
_PARTIAL_SUMS_LOCK = threading.Lock()


def _partial_sum_atoms(values: tuple, probs: tuple, horizon: int):
    """Merged (value, weight) atoms of the partial sums w_1+...+w_r over
    r = 1..horizon: each r's pmf enters at full weight and equal values
    from different r coalesce, so the weights sum to ``horizon``.  Each
    horizon's atoms are a snapshot of any longer accumulation, so one pass
    per marginal fills every horizon up to the longest asked so far."""
    with _PARTIAL_SUMS_LOCK:
        tables = _PARTIAL_SUMS.get((values, probs), ())
        if len(tables) > horizon:
            return tables[horizon]
        base = convolve_atoms({0.0: 1.0}, list(zip(values, probs)))
        merged = {}
        current = base
        tables = [(np.array([]), np.array([]))]
        for _ in range(horizon):
            for s, ps in current.items():
                merged[s] = merged.get(s, 0.0) + ps
            current = convolve_atoms(current, base.items())
            out_vals = np.array(sorted(merged))
            tables.append((out_vals, np.array([merged[v] for v in out_vals])))
        _PARTIAL_SUMS[(values, probs)] = tables
        return tables[horizon]


@dataclass(frozen=True)
class _Pieces:
    """A continuous piecewise-quadratic function of the post-order level:
    f(t) = value[i] + d * (slope[i] + curv[i] * d) with d = t - knots[i]
    on [knots[i], knots[i+1]).  The last piece extends to +inf; the first
    also covers t < knots[0], so its slope and curvature must be 0."""

    knots: np.ndarray
    value: np.ndarray
    slope: np.ndarray
    curv: np.ndarray

    def __post_init__(self):
        # tables are cached and shared by every caller
        for arr in (self.knots, self.value, self.slope, self.curv):
            arr.setflags(write=False)

    def locate(self, t):
        """(i, d): the piece holding t and t's offset d = t - knots[i]."""
        i = np.maximum(np.searchsorted(self.knots, t, side="right") - 1, 0)
        return i, t - self.knots[i]

    def evaluate(self, i, d):
        """f at the point located as (i, d)."""
        return self.value[i] + d * (self.slope[i] + self.curv[i] * d)

    def __call__(self, t):
        return self.evaluate(*self.locate(t))

    def rise(self, t, step, at=None):
        """f(t + step) - f(t), with ``at`` = ``locate(t)`` if given.  Within
        one piece this is step times the mean slope, so that a proxy exactly
        at a threshold (say EH at the cap equal to K) does not pick up the
        rounding of two large values."""
        i, d = self.locate(t) if at is None else at
        j, e = self.locate(t + step)
        within = step * (self.slope[i] + self.curv[i] * (d + e))
        across = (self.evaluate(j, e)
                  - self.value[i] - d * (self.slope[i] + self.curv[i] * d))
        return np.where(i == j, within, across)

    def __sub__(self, other):
        return _Pieces(self.knots, self.value - other.value,
                       self.slope - other.slope, self.curv - other.curv)

    def leftmost(self, target):
        """Smallest t with f(t) >= target, elementwise, for nondecreasing
        f: -inf where the flat first piece already reaches the target,
        +inf where f never does."""
        i = np.searchsorted(self.value, target, side="left")
        j = np.maximum(i - 1, 0)
        gap = target - self.value[j]  # > 0 wherever i > 0
        slope, curv = self.slope[j], self.curv[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            # root of curv*d^2 + slope*d = gap, in the form that stays
            # exact as curv -> 0 (gap / slope on linear pieces)
            root = np.sqrt(np.maximum(slope * slope + 4.0 * curv * gap, 0.0))
            d = 2.0 * gap / (slope + root)
        return np.where(i == 0, -np.inf, self.knots[j] + d)


@functools.lru_cache(maxsize=None)
def _discrete_table(values: tuple, probs: tuple, variant: str, a: float,
                    b: float, remaining: int):
    """(hold, back, hold - back) for discrete demand: scale * Phi and
    b * Psi(max{0, .}), linear between the holding atoms, the demand
    atoms and 0.  ``values`` must be sorted."""
    demand, weights = np.array(values), np.array(probs)
    if variant == "printed":
        atoms, mass, scale = demand, weights, a * remaining
    else:
        (atoms, mass), scale = _partial_sum_atoms(values, probs, remaining), a
    # The pad knot -1 carries the flat left end: Phi = 0 and
    # Psi(max{0, y}) = Psi(0) for y < 0 (all atoms are >= 0).
    knots = np.array(sorted({-1.0, 0.0, *atoms, *values}))
    step = np.diff(knots)
    # holding weight at or below each knot; demand weight above it
    below = np.concatenate(([0.0], np.cumsum(mass)))[
        np.searchsorted(atoms, knots, side="right")]
    above = np.concatenate((np.cumsum(weights[::-1])[::-1], [0.0]))[
        np.searchsorted(demand, knots, side="right")]
    phi = np.concatenate(([0.0], np.cumsum(below[:-1] * step)))
    psi = np.concatenate((np.cumsum((above[:-1] * step)[::-1])[::-1], [0.0]))
    psi[0], above[0] = psi[1], 0.0
    flat = np.zeros_like(knots)
    hold = _Pieces(knots, scale * phi, scale * below, flat)
    back = _Pieces(knots, b * psi, -b * above, flat)
    return hold, back, hold - back


@functools.lru_cache(maxsize=None)
def _uniform_table(lo: float, hi: float, scale: float, b: float):
    """(hold, back, hold - back) for U(lo, hi) demand, where Phi(t) is
    (t - lo)^2 / 2(hi - lo) on [lo, hi] and t - mean above, and Psi(t) is
    mean - t below lo and (hi - t)^2 / 2(hi - lo) on [lo, hi]."""
    knots = np.array(sorted({-1.0, 0.0, lo, hi}))
    past = knots >= hi
    mean = 0.5 * (lo + hi)
    curv = np.where(knots == lo, 0.5 / (hi - lo), 0.0)
    hold = _Pieces(knots, scale * np.where(past, knots - mean, 0.0),
                   scale * np.where(past, 1.0, 0.0), scale * curv)
    back = _Pieces(knots, b * np.where(past, 0.0, mean - np.maximum(knots, 0.0)),
                   b * np.where((knots >= 0.0) & ~past, -1.0, 0.0), b * curv)
    return hold, back, hold - back


def _table(state: BalancingState, k: int):
    """(hold, back, balance) of stage k as functions of y = x + u, with
    EH(u) = hold(x+u) - hold(x), EB(u) = back(x+u) and balance = hold -
    back; cached under the stage's data."""
    remaining = state.periods - k
    g = state.marginal
    if isinstance(g, UniformMarginal):
        if state.variant != "printed":
            raise NotImplementedError("cumulative variant needs discrete demand")
        return _uniform_table(float(g.lo), float(g.hi), state.a * remaining, state.b)
    values, probs = g.sorted_pmf()
    return _discrete_table(tuple(values), tuple(probs), state.variant,
                           state.a, state.b, remaining)


class _Located(NamedTuple):
    """A stage's (hold, back, balance) with a batch of levels x located
    in their shared knots: x = knots[i] + d."""

    hold: _Pieces
    back: _Pieces
    balance: _Pieces
    i: np.ndarray
    d: np.ndarray

    @property
    def at(self):
        return self.i, self.d

    def rows(self, mask):
        return self._replace(i=self.i[mask], d=self.d[mask])


def _locate(state: BalancingState, k: int, x: np.ndarray) -> _Located:
    hold, back, balance = _table(state, k)
    return _Located(hold, back, balance, *hold.locate(x))


def _eh_batch(state: BalancingState, k: int, x: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    x, u = np.broadcast_arrays(np.atleast_1d(np.asarray(x, float)),
                               np.atleast_1d(np.asarray(u, float)))
    return _table(state, k)[0].rise(x, u)


def _eb_batch(state: BalancingState, k: int, x: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    x, u = np.broadcast_arrays(np.atleast_1d(np.asarray(x, float)),
                               np.atleast_1d(np.asarray(u, float)))
    return _table(state, k)[1](x + u)


def expected_holding_proxy(state: BalancingState, k: int, x: float,
                           u: float) -> float:
    """EH(u) at (k, x), in closed form for discrete and uniform demand."""
    if u < 0:
        raise ValueError("order must be >= 0")
    state._check_stage(k)
    return float(_eh_batch(state, k, np.asarray(x, float), np.asarray(u, float)).ravel()[0])


def expected_backlog_proxy(state: BalancingState, k: int, x: float,
                           u: float) -> float:
    """EB(u) at (k, x)."""
    if u < 0:
        raise ValueError("order must be >= 0")
    state._check_stage(k)
    return float(_eb_batch(state, k, np.asarray(x, float), np.asarray(u, float)).ravel()[0])


def balancing_order_batch(state: BalancingState, k: int, x: np.ndarray,
                          caps: np.ndarray, located: _Located | None = None):
    """(u_hat, theta) arrays for a batch of states.

    u_hat is the leftmost order in [0, hi] where the balance gap EH - EB
    turns nonnegative, clamped to hi = min(cap, the order that zeroes the
    backlog proxy), where the gap is certainly nonnegative.  ``located``
    is x located in stage k's table (``_locate``); found here if omitted.
    """
    x = np.asarray(x, dtype=float)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), x.shape)
    loc = _locate(state, k, x) if located is None else located
    hi = np.minimum(caps, np.maximum(0.0, state.marginal.max_value - x))
    u_hat = np.clip(loc.balance.leftmost(loc.hold.evaluate(*loc.at)) - x, 0.0, hi)
    u_hat = np.where(loc.back.evaluate(*loc.at) == 0.0, 0.0, u_hat)
    return u_hat, loc.hold.rise(x, u_hat, loc.at)


def balancing_order(state: BalancingState, k: int, x: float):
    """The order equating the two proxies, and their common cost."""
    state._check_stage(k)
    u, theta = balancing_order_batch(state, k, np.asarray([x]),
                                     np.asarray([state.u_cap]))
    return float(u[0]), float(theta[0])


def holding_cost_K_order_batch(state: BalancingState, k: int, x: np.ndarray,
                               caps: np.ndarray, located: _Located | None = None):
    if state.K <= 0:
        raise ValueError("the holding-cost-K order exists only for K > 0")
    x = np.asarray(x, dtype=float)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), x.shape).astype(float)
    loc = _locate(state, k, x) if located is None else located
    hold = loc.hold
    rate = hold.slope[-1]  # EH's slope once the order covers every atom
    if rate <= 0 and not np.all(np.isfinite(caps)):
        raise ValueError("zero holding rate with an unbounded cap cannot reach K")
    slack = 0.0 if rate <= 0 else state.K / rate + 1.0
    hi = np.minimum(caps, np.maximum(0.0, hold.knots[-1] - x) + slack)
    saturated = hold.rise(x, hi, loc.at) < state.K  # only possible when hi == caps
    u = np.clip(hold.leftmost(hold.evaluate(*loc.at) + state.K) - x, 0.0, hi)
    u = np.where(saturated, caps, u)
    return u, saturated


def holding_cost_K_order(state: BalancingState, k: int, x: float):
    """(u_tilde, saturated): the order whose holding proxy equals K, or
    the cap with a saturation flag when even the cap stays below K."""
    state._check_stage(k)
    u, sat = holding_cost_K_order_batch(state, k, np.asarray([x]),
                                        np.asarray([state.u_cap]))
    return float(u[0]), bool(sat[0])


def balancing_probability_batch(state: BalancingState, k: int, x: np.ndarray,
                                u_tilde: np.ndarray,
                                located: _Located | None = None) -> np.ndarray:
    if state.K <= 0:
        raise ValueError("the balancing probability exists only for K > 0")
    x = np.asarray(x, dtype=float)
    loc = _locate(state, k, x) if located is None else located
    eb0 = loc.back.evaluate(*loc.at)
    ebt = loc.back(x + np.asarray(u_tilde, float))
    denom = state.K - ebt + eb0
    bad = denom <= 0
    if np.any(bad):
        logger.warning("balancing probability: nonpositive denominator at "
                       "%d levels, forcing p = 1", int(bad.sum()))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(bad, 1.0, eb0 / np.where(bad, 1.0, denom))
    return np.clip(p, 0.0, 1.0)


def balancing_probability(state: BalancingState, k: int, x: float,
                          u_tilde: float) -> float:
    state._check_stage(k)
    return float(balancing_probability_batch(state, k, np.asarray([x]),
                                             np.asarray([u_tilde]))[0])


def _levels(x: np.ndarray):
    """(levels, inverse, first) of a 1-D batch: its distinct values in
    ascending order, each row's index into them, and the row each level
    was taken from.  One unstable sort; equal values (0.0 and -0.0 too)
    form one level, and each NaN its own."""
    order = np.argsort(x)
    head = np.empty(x.shape, dtype=bool)
    head[:1] = True
    ordered = x[order]
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    inverse = np.empty(x.shape, dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    first = order[head]
    return x[first], inverse, first


def act_balancing_batch(state: BalancingState, k: int, x: np.ndarray,
                        caps: np.ndarray, uniforms) -> np.ndarray:
    """Orders for a batch of states; consumes one uniform per state when
    K > 0 (whether or not the randomized branch is taken).

    The rule is solved once per distinct level of x and gathered back to
    the rows, so every row at one level must have the same cap (true of
    ``Problem.order_cap``, a function of x); a ValueError says otherwise.
    """
    x = np.asarray(x, dtype=float)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), x.shape)
    levels, inverse, first = _levels(x)
    level_caps = caps[first]
    gathered = level_caps[inverse]
    # a NaN level holds one row, so its NaN cap is its own (equal_nan is
    # the slow comparison; most batches never reach it)
    if np.any(caps != gathered) and not np.array_equal(caps, gathered, equal_nan=True):
        raise ValueError("rows at one inventory level have different caps")
    loc = _locate(state, k, levels)
    u_hat, theta = balancing_order_batch(state, k, levels, level_caps, loc)
    if state.K == 0:
        return u_hat[inverse]
    low = theta < state.K
    if not np.any(low):
        return u_hat[inverse]
    sub = loc.rows(low)
    u_til, _ = holding_cost_K_order_batch(state, k, levels[low], level_caps[low], sub)
    p = balancing_probability_batch(state, k, levels[low], u_til, sub)
    # per level: take `hit` when the row's uniform is below `bar`, else
    # `miss`; a level with theta >= K orders u_hat whatever its uniform
    bar = np.full(levels.shape, np.inf)
    hit, miss = u_hat.copy(), u_hat.copy()
    bar[low], hit[low], miss[low] = p, u_til, 0.0
    return np.where(uniforms < bar[inverse], hit[inverse], miss[inverse])


def act_balancing(state: BalancingState, k: int, x: float,
                  stream=None) -> float:
    """One location's order under the balancing rule."""
    state._check_stage(k)
    uniforms = None
    if state.K > 0:
        if stream is None:
            raise ValueError("K > 0 balancing needs a random stream")
        uniforms = stream.random(1)
    u = act_balancing_batch(state, k, np.asarray([x]),
                            np.asarray([state.u_cap]), uniforms)
    return float(u[0])


class BalancingPolicy(Policy):
    """Decoupled composition of per-location balancing rules."""

    kind = "balancing"

    def __init__(self, states):
        self.states = list(states)

    @property
    def uses_randomness(self):
        return any(s.K > 0 for s in self.states)

    def act_batch(self, problem, k, X, uniforms):
        caps = problem.order_cap(X)
        cols = []
        for i, state in enumerate(self.states):
            u = None if uniforms is None else uniforms[:, i]
            cols.append(act_balancing_batch(state, k, X[:, i], caps[:, i], u))
        return np.stack(cols, axis=1)

    def to_config(self):
        s0 = self.states[0]
        return {"kind": self.kind, "fixed_charge": s0.K, "variant": s0.variant,
                "holding": [s.a for s in self.states],
                "backlog": [s.b for s in self.states],
                "periods": s0.periods}

    def diagnostics(self, problem, k: int, x) -> list:
        """Per-location trace of the rule's quantities at (k, x): the
        balancing order and cost, and for K > 0 also the holding-cost-K
        order and the ordering probability."""
        X = np.asarray(x, dtype=float).reshape(1, -1)
        caps = problem.order_cap(X)
        out = []
        for i, state in enumerate(self.states):
            u_hat, theta = balancing_order_batch(state, k, X[:, i], caps[:, i])
            entry = {"location": i, "u_hat": float(u_hat[0]),
                     "theta": float(theta[0])}
            if state.K > 0:
                u_til, sat = holding_cost_K_order_batch(state, k, X[:, i], caps[:, i])
                p = balancing_probability_batch(state, k, X[:, i], u_til)
                entry.update(u_tilde=float(u_til[0]), saturated=bool(sat[0]),
                             probability=float(p[0]))
            out.append(entry)
        return out


def make_balancing_policy(problem: Problem, K: float | None = None,
                          variant: str = "printed") -> BalancingPolicy:
    """Balancing policy for a finite-horizon problem; the fixed charge
    defaults to the ordering cost's jump at zero."""
    if not isinstance(problem.horizon, Finite):
        raise ValueError("the balancing policy is defined for finite horizons")
    if K is None:
        K = problem.ordering.fixed_charge_at_zero
    states = []
    for i in range(problem.m):
        states.append(BalancingState(
            periods=problem.horizon.periods,
            a=problem.holding.holding[i],
            b=problem.holding.backlog[i],
            K=K,
            marginal=problem.demand.marginals[i],
            u_cap=problem.max_order_per_location,
            variant=variant,
        ))
    return BalancingPolicy(states)

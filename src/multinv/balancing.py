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
A table per stage holds them at those knots (filled from prefix sums),
so each solve is a search over the knots and one linear or quadratic
root on the piece found, in closed form.  Every stage's table is built
in one pass the first time a (marginal, variant, a, b, periods) is
asked for, and cached; each solve fetches its stage's table and
locates its own levels in the knots.

The rule is decoupled: a location's order depends only on (k, x_i), its
cap (a function of x_i) and one uniform.  A Monte Carlo batch holds many
rows at few levels, so ``act_balancing_batch`` finds the distinct levels
of x (by one sort), takes each level's cap from the cap rule, solves
u_hat, theta, u_tilde and p once per level and gathers them back to the
rows; only the ``uniform < p`` pick is made row by row.
``BalancingPolicy`` goes one step further: locations with equal
``BalancingState``s run the same rule, so their columns are stacked into
one batch and solved in one call per stage, and a level shared by
several of those locations is solved once for all of them.

Every solve takes its caps from the caller; the policy passes
``Problem.order_cap``, so orders stay in the grid box.  Orders at one
joint state come from ``BalancingPolicy.act``, given one uniform per
location.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .model import Finite, Problem, UniformMarginal, convolve_atoms
from .policies import Policy

logger = logging.getLogger(__name__)

VARIANTS = ("printed", "cumulative")


@dataclass(frozen=True)
class BalancingState:
    """Per-location data of the balancing rule."""

    periods: int
    a: float
    b: float
    K: float = 0.0
    marginal: object = None  # DiscreteMarginal or UniformMarginal
    variant: str = "printed"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown balancing variant {self.variant!r}")
        if not all(np.isfinite(v) and v >= 0 for v in (self.a, self.b, self.K)):
            raise ValueError("rates and fixed charge must be finite and >= 0")


def _partial_sum_atoms(values: tuple, probs: tuple, horizon: int) -> list:
    """Merged (value, weight) atoms of the partial sums w_1+...+w_r over
    r = 1..H, for every horizon H = 0..``horizon``: each r's pmf enters at
    full weight and equal values from different r coalesce, so horizon
    H's weights sum to H.  Each horizon's atoms are a snapshot of the
    longer accumulation, so one pass makes them all."""
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
    return tables


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

    def rise(self, t, step):
        """f(t + step) - f(t).  Within one piece this is step times the mean
        slope, so that a proxy exactly at a threshold (say EH at the cap
        equal to K) does not pick up the rounding of two large values."""
        i, d = self.locate(t)
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


def _discrete_table(values: np.ndarray, probs: np.ndarray, atoms: np.ndarray,
                    mass: np.ndarray, scale: float, b: float):
    """(hold, back, hold - back) for discrete demand (``values``,
    ``probs``), sorted: scale * Phi over the holding atoms (``atoms``,
    ``mass``) and b * Psi(max{0, .}), linear between the holding atoms,
    the demand atoms and 0."""
    # The pad knot -1 carries the flat left end: Phi = 0 and
    # Psi(max{0, y}) = Psi(0) for y < 0 (all atoms are >= 0).
    knots = np.array(sorted({-1.0, 0.0, *atoms, *values}))
    step = np.diff(knots)
    # holding weight at or below each knot; demand weight above it
    below = np.concatenate(([0.0], np.cumsum(mass)))[
        np.searchsorted(atoms, knots, side="right")]
    above = np.concatenate((np.cumsum(probs[::-1])[::-1], [0.0]))[
        np.searchsorted(values, knots, side="right")]
    phi = np.concatenate(([0.0], np.cumsum(below[:-1] * step)))
    psi = np.concatenate((np.cumsum((above[:-1] * step)[::-1])[::-1], [0.0]))
    psi[0], above[0] = psi[1], 0.0
    flat = np.zeros_like(knots)
    hold = _Pieces(knots, scale * phi, scale * below, flat)
    back = _Pieces(knots, b * psi, -b * above, flat)
    return hold, back, hold - back


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


@functools.lru_cache(maxsize=None)
def _stage_tables(marginal, variant: str, a: float, b: float, periods: int) -> tuple:
    """Every stage's (hold, back, balance), indexed by k, for stages with
    periods - k periods remaining."""
    remaining = range(periods, 0, -1)
    if isinstance(marginal, UniformMarginal):
        if variant != "printed":
            raise NotImplementedError("cumulative variant needs discrete demand")
        lo, hi = float(marginal.lo), float(marginal.hi)
        return tuple(_uniform_table(lo, hi, a * r, b) for r in remaining)
    values, probs = marginal.sorted_pmf()
    if variant == "printed":
        return tuple(_discrete_table(values, probs, values, probs, a * r, b)
                     for r in remaining)
    sums = _partial_sum_atoms(tuple(values), tuple(probs), periods)
    return tuple(_discrete_table(values, probs, *sums[r], a, b) for r in remaining)


def _table(state: BalancingState, k: int):
    """(hold, back, balance) of stage k as functions of y = x + u, with
    EH(u) = hold(x+u) - hold(x), EB(u) = back(x+u) and balance = hold -
    back; an IndexError for a stage outside 0..periods-1."""
    if not 0 <= k < state.periods:
        raise IndexError(f"stage {k} out of range")
    return _stage_tables(state.marginal, state.variant, state.a, state.b,
                         state.periods)[k]


def expected_holding_proxy(state: BalancingState, k: int, x, u) -> np.ndarray:
    """EH(u) at stage k and level x, elementwise over broadcast x and u
    (0-d for scalars), in closed form for discrete and uniform demand; a
    ValueError if any u < 0."""
    u = np.asarray(u, float)
    if np.any(u < 0):
        raise ValueError("order must be >= 0")
    return _table(state, k)[0].rise(np.asarray(x, float), u)


def expected_backlog_proxy(state: BalancingState, k: int, x, u) -> np.ndarray:
    """EB(u) at stage k and level x, elementwise like
    ``expected_holding_proxy``."""
    u = np.asarray(u, float)
    if np.any(u < 0):
        raise ValueError("order must be >= 0")
    return np.asarray(_table(state, k)[1](np.asarray(x, float) + u))


def balancing_order_batch(state: BalancingState, k: int, x: np.ndarray,
                          caps: np.ndarray):
    """(u_hat, theta): the order equating the two proxies, and their
    common cost, at each level of x under its cap in ``caps``.

    u_hat is the leftmost order in [0, hi] where the balance gap EH - EB
    turns nonnegative, clamped to hi = min(cap, the order that zeroes the
    backlog proxy), where the gap is certainly nonnegative.
    """
    x = np.asarray(x, dtype=float)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), x.shape)
    hold, back, balance = _table(state, k)
    hi = np.minimum(caps, np.maximum(0.0, state.marginal.max_value - x))
    u_hat = np.clip(balance.leftmost(hold(x)) - x, 0.0, hi)
    u_hat = np.where(back(x) == 0.0, 0.0, u_hat)
    return u_hat, hold.rise(x, u_hat)


def holding_cost_K_order_batch(state: BalancingState, k: int, x: np.ndarray,
                               caps: np.ndarray):
    """(u_tilde, saturated) arrays for a batch of states: the order whose
    holding proxy equals K, or the level's cap in ``caps`` with a
    saturation flag when even the cap stays below K."""
    if state.K <= 0:
        raise ValueError("the holding-cost-K order exists only for K > 0")
    x = np.asarray(x, dtype=float)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), x.shape).astype(float)
    hold = _table(state, k)[0]
    rate = hold.slope[-1]  # EH's slope once the order covers every atom
    if rate <= 0 and not np.all(np.isfinite(caps)):
        raise ValueError("zero holding rate with an unbounded cap cannot reach K")
    slack = 0.0 if rate <= 0 else state.K / rate + 1.0
    hi = np.minimum(caps, np.maximum(0.0, hold.knots[-1] - x) + slack)
    saturated = hold.rise(x, hi) < state.K  # only possible when hi == caps
    u = np.clip(hold.leftmost(hold(x) + state.K) - x, 0.0, hi)
    u = np.where(saturated, caps, u)
    return u, saturated


def balancing_probability_batch(state: BalancingState, k: int, x: np.ndarray,
                                u_tilde: np.ndarray) -> np.ndarray:
    """p at each level of x: p*K = p*EB(u_tilde) + (1-p)*EB(0), clipped to
    [0, 1], and 1 (with a warning) where K - EB(u_tilde) + EB(0) <= 0."""
    if state.K <= 0:
        raise ValueError("the balancing probability exists only for K > 0")
    x = np.asarray(x, dtype=float)
    back = _table(state, k)[1]
    eb0 = back(x)
    ebt = back(x + np.asarray(u_tilde, float))
    denom = state.K - ebt + eb0
    bad = denom <= 0
    if np.any(bad):
        logger.warning("balancing probability: nonpositive denominator at "
                       "%d levels, forcing p = 1", int(bad.sum()))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(bad, 1.0, eb0 / np.where(bad, 1.0, denom))
    return np.clip(p, 0.0, 1.0)


def _levels(x: np.ndarray):
    """(levels, inverse) of a 1-D batch: its distinct values in ascending
    order and each row's index into them.  One unstable sort; equal values
    (0.0 and -0.0 too) form one level, taken from the first of its sorted
    rows, and each NaN its own.  The inverse repeats each level's index
    over its run of sorted rows."""
    order = np.argsort(x)
    head = np.empty(x.shape, dtype=bool)
    head[:1] = True
    ordered = x[order]
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    inverse = np.empty(x.shape, dtype=np.intp)
    inverse[order] = np.repeat(np.arange(len(starts)),
                               np.diff(starts, append=len(x)))
    return ordered[starts], inverse


def act_balancing_batch(state: BalancingState, k: int, x: np.ndarray,
                        order_cap, uniforms) -> np.ndarray:
    """One location's order under the balancing rule at each state of a
    batch; consumes one uniform per state when K > 0 (whether or not the
    randomized branch is taken), so ``uniforms`` is then required.

    ``order_cap`` maps an array of inventory levels to their order caps
    (``Problem.order_cap``); the rule is solved once per distinct level of
    x and gathered back to the rows.
    """
    if state.K > 0 and uniforms is None:
        raise ValueError("K > 0 balancing needs one uniform per state")
    levels, inverse = _levels(np.asarray(x, dtype=float))
    level_caps = order_cap(levels)
    u_hat, theta = balancing_order_batch(state, k, levels, level_caps)
    if state.K == 0:
        return u_hat[inverse]
    low = theta < state.K
    if not np.any(low):
        return u_hat[inverse]
    u_til, _ = holding_cost_K_order_batch(state, k, levels[low], level_caps[low])
    p = balancing_probability_batch(state, k, levels[low], u_til)
    # per level: take `hit` when the row's uniform is below `bar`, else
    # `miss`; a level with theta >= K orders u_hat whatever its uniform
    bar = np.full(levels.shape, np.inf)
    hit, miss = u_hat.copy(), u_hat.copy()
    bar[low], hit[low], miss[low] = p, u_til, 0.0
    return np.where(uniforms < bar[inverse], hit[inverse], miss[inverse])


class BalancingPolicy(Policy):
    """Decoupled composition of per-location balancing rules.

    Locations whose ``BalancingState``s are equal run the same rule; each
    stage solves every such group in one ``act_balancing_batch`` call.
    Every state must have the same fixed charge, variant and horizon:
    ``to_config`` writes each of them once, and the tag built from it
    keys the policy's random streams."""

    kind = "balancing"

    def __init__(self, states):
        self.states = list(states)
        for name, attr in (("fixed_charge", "K"), ("variant", "variant"),
                           ("periods", "periods")):
            values = [getattr(s, attr) for s in self.states]
            if any(v != values[0] for v in values):
                raise ValueError(f"balancing states disagree on {name!r}: {values}")
        # location indices of each distinct state, in order of first appearance
        self._groups = {}
        for i, state in enumerate(self.states):
            self._groups.setdefault(state, []).append(i)

    @property
    def uses_randomness(self):
        return any(s.K > 0 for s in self.states)

    def act_batch(self, problem, k, X, uniforms):
        """Orders for a batch of joint states X (rows) at stage k.

        The columns of each group of locations with equal states are
        stacked location-major into one 1-D batch, solved in one call and
        scattered back; the rule is elementwise per level, so the orders
        are those of one call per location.  The orders take X's memory
        layout, so each group's scatter into a location-major X writes
        contiguous columns.
        """
        out = np.empty_like(X, dtype=float)
        for state, cols in self._groups.items():
            u = None if uniforms is None else uniforms.T[cols].ravel()
            orders = act_balancing_batch(state, k, X.T[cols].ravel(),
                                         problem.order_cap, u)
            out.T[cols] = orders.reshape(len(cols), len(X))
        return out

    def to_config(self):
        s0 = self.states[0]
        return {"kind": self.kind, "fixed_charge": s0.K, "variant": s0.variant,
                "holding": [s.a for s in self.states],
                "backlog": [s.b for s in self.states],
                "periods": s0.periods}


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
            variant=variant,
        ))
    return BalancingPolicy(states)

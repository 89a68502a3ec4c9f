"""Seeded Monte Carlo engine and cost-ratio reports.

Dynamics, clamping, and cost charging mirror the DP module exactly:
holding/backlog is charged on the pre-clamp level x + u - w, then the
next state clamps into the grid box.  Every (initial state, run) pair
owns purely derived random streams (see rng), so reports are
bit-identical regardless of worker count or which other policies were
estimated in the same session.  Each run's stream is the same as if
drawn from its own generator.

One batched stepper serves every estimate, from one initial state or
the whole grid, and it takes its randomness one way: demand is one
uniform per location per period, policy randomness (when a policy is
randomized) likewise.  The stepper draws them inside its loop, one
block of at most ``_DRAW_PERIODS`` periods at a time: the estimators
re-key one Philox generator per run and block, starting each stream at
the block's first uniform (``rng.fill_streams``' counter offset).  A
block is filled a few runs at a time into one small scratch of at most
``_FILL_DOUBLES`` doubles, whose demand is transformed (and whose policy
uniforms are copied) into the stream's block buffer.  The stepper runs
the dynamics period by period and charges costs per block of periods,
adding the periods' costs to each trajectory's total in period order.
A cost block holds at most ``_BLOCK_ROWS`` (period, trajectory) rows, a
budget sized so the block and its temporaries stay in the L2 cache: a
500-run estimate costs 32 periods per call, an 8,820-row heatmap chunk
one period.  The block's orders are held as they are stepped, and their
per-period totals are formed once per block, not once per period.

Every estimate, ``estimate_cost``'s from one initial state and
``ratio_heatmap``'s over many alike, goes through one chunk driver,
``_estimate_over_states``.  A chunk of runs holds rows x
min(T, _DRAW_PERIODS) x M doubles per stream, however long the horizon,
and chunks are sized to at most ``_CHUNK_DOUBLES`` of them, or one run's
block where that alone is larger.  Chunks are whole states while one state's runs fit the budget;
only a state that alone is over it is split into ranges of runs, which
draw the same streams, since a run's keys hash its own indices.  The
means, standard errors and order traces are read from the assembled
per-run arrays, so no result depends on the chunking.  The two budgets
trade memory for Python work: each draw block re-keys every run's
generator once, and each chunk steps its periods once.

The stepper is location-major throughout: the state, the held orders,
the post-demand levels and each period's demand and policy uniforms are
(B, M) arrays whose columns (one per location) are contiguous, so every
whole-array operation of a period runs as M passes over B runs rather
than B passes over M locations.  The numbers do not depend on the
layout: every operation is elementwise or a column-by-column
``location_sum``.
"""

from __future__ import annotations

import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import dp as dp_mod
from . import rng as rng_mod
from .model import (Finite, Problem, dp_demand_errors, location_sum,
                    transform_uniform_draws)
from .policies import GridTabulationError, Policy


@dataclass(frozen=True)
class SimConfig:
    runs: int = 1000
    seed: int = 0
    initial_states: object = "grid"  # "grid" or a list of state vectors
    crn: bool = False
    threads: int = 1

    def __post_init__(self):
        # Stream keys hash repr(seed), and a numpy integer's repr is not
        # the int's: each integer field is stored as the equal int, and a
        # bool, float or other non-integer is refused.
        for name in ("runs", "seed", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("runs", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # The streams read crn by truth value, so a string "false" would
        # share demand while the report printed false: only a bool (or a
        # numpy bool, stored as the equal bool) is accepted.
        if isinstance(self.crn, np.bool_):
            object.__setattr__(self, "crn", bool(self.crn))
        if not isinstance(self.crn, bool):
            raise ValueError(f"crn must be a bool, got {self.crn!r}")


# ---------------------------------------------------------------------------
# Core stepper
# ---------------------------------------------------------------------------

# Periods are stepped one at a time, but their costs are evaluated once per
# block of up to this many (period, trajectory) rows, so the cost calls
# are amortized when the batch is small.  The budget is sized for the L2
# cache: a block's held orders, order totals, post-demand levels and cost
# temporaries come to about 1-2 MB at 2**14 rows.  Bigger is not better: against 4096
# rows, the tightness work time read 0.92-0.94 at 2**14, 0.97-1.00 at
# 2**16 and 1.14 at 2**20, once blocks spill out of the cache (2-core
# Xeon with 4 MiB of L2, numpy 2.4.6).
_BLOCK_ROWS = 1 << 14

# Random draws are made per block of at most this many periods, so a
# chunk's draw buffers hold rows x min(T, _DRAW_PERIODS) x M doubles per
# stream whatever the horizon.  A multiple of 4, so every block starts on
# a Philox counter boundary (see ``rng.fill_streams``).  Each block re-keys
# every run's generator once, so a smaller block costs re-keys, not draws.
# Against 1024 periods, a 500-run, 2000-period, 2-location estimate holds
# a 2 MB demand block in place of 8 MB, its tracemalloc peak fell from
# 10.6 to 4.5 MB, and its time read 0.998x (median of 10 pairs; 2-core
# Xeon, numpy 2.4.6).
_DRAW_PERIODS = 256

# A draw block is filled and transformed this many doubles at a time (whole
# runs, at least one), in one scratch reused by every block and stream, and
# then stored location-major in the block buffer.  Filling the block buffer
# in place would store it run-major, and transforming whole blocks into a
# second buffer of the same size would double the draws' memory.  This is
# the one bound on the draws of an ``rng.fill_streams`` or
# ``transform_uniform_draws`` call: neither splits its input further.
_FILL_DOUBLES = 1 << 15


def _simulate_batch(problem: Problem, policy: Policy, x0: np.ndarray, draws,
                    collect_orders: bool = False):
    """Average cost of B trajectories over ``problem.periods`` periods.

    x0: (B, M), in any memory layout.  ``draws(k0, n)`` returns the
    demand and policy uniforms of periods k0 .. k0 + n - 1, each (B, n,
    M) (uniforms None for a deterministic policy); it is called once per
    block of at most ``_DRAW_PERIODS`` periods, in period order, and a
    block's arrays are only read until the next call.  Returns costs
    (B,), and with ``collect_orders`` also the per-period total orders
    and ordering costs, each (B, T).

    The state and the post-demand levels are held location-major
    (Fortran-ordered (B, M)), so a policy's elementwise orders come out
    location-major too; draws whose period slices are location-major
    (``_keyed_draws``) keep every operation of a period on contiguous
    columns.  Any layout gives the same numbers.

    The dynamics (policy, orders, post-demand level, clamp) run period
    by period.  Each period's orders are copied into the block's held
    buffer, laid out like the post-demand levels ((span, B, M) views of
    (span, M, B) storage), and the block's order totals are formed from
    it in one ``location_sum``: the same column additions per entry as a
    sum per period.  The block's ordering and holding/backlog costs are
    then evaluated in one call each, and every period's cost is added to
    the running total in period order, so the result is the same as
    charging each period as it is stepped.
    """
    grid = problem.grid
    burn = 0 if isinstance(problem.horizon, Finite) else problem.horizon.burn_in
    periods = problem.periods
    x = np.array(x0, dtype=float, order="F")
    batch, m = x.shape
    total = np.zeros(batch)
    z_trace = np.empty((batch, periods)) if collect_orders else None
    c_trace = np.empty((batch, periods)) if collect_orders else None
    span = max(1, min(periods, _DRAW_PERIODS, _BLOCK_ROWS // batch))
    z = np.empty((span, batch))
    held = np.empty((span, m, batch)).transpose(0, 2, 1)
    post = np.empty((span, m, batch)).transpose(0, 2, 1)
    for d0 in range(0, periods, _DRAW_PERIODS):
        d_end = min(d0 + _DRAW_PERIODS, periods)
        demand, uniforms = draws(d0, d_end - d0)
        for k0 in range(d0, d_end, span):
            n = min(span, d_end - k0)
            for j in range(n):
                k = k0 + j
                uni = None if uniforms is None else uniforms[:, k - d0, :]
                orders = policy.act_batch(problem, k, x, uni)
                np.copyto(held[j], orders)
                np.add(x, orders, out=post[j])
                post[j] -= demand[:, k - d0, :]
                np.maximum(post[j], grid.lo, out=x)
                np.minimum(x, grid.hi, out=x)
            location_sum(held[:n], out=z[:n])
            order_cost = problem.ordering.eval_array(z[:n])
            stage = order_cost + problem.holding.location_total(post[:n])
            for j in range(max(0, burn - k0), n):
                total += stage[j]
            if collect_orders:
                z_trace[:, k0:k0 + n] = z[:n].T
                c_trace[:, k0:k0 + n] = order_cost.T
    costs = total / (periods - burn)
    if collect_orders:
        return costs, z_trace, c_trace
    return costs


def _keyed_draws(problem: Problem, policy: Policy, cfg: SimConfig, states: range,
                 runs: range | None = None):
    """Block source (see ``_simulate_batch``) of the runs in ``runs``
    (default every run, ``range(cfg.runs)``) for each initial-state index
    in ``states``, state-major.

    Row (s - states.start) * len(runs) + (run - runs.start) of a block
    holds exactly the draws of that run's own streams (``rng.demand_stream``/
    ``rng.policy_stream``) for the block's periods: the keys are derived
    once, and each block is filled from uniform k0 * M of every stream.
    The rows are filled a chunk of at most ``_FILL_DOUBLES`` doubles at a
    time into one scratch; a chunk's demand is transformed, and its
    policy uniforms copied, into the stream's block buffer.  Each buffer,
    rows x min(T, _DRAW_PERIODS) x M, is reused by every block and is
    stored (period, location, run), so the returned (B, n, M) arrays have
    location-major (Fortran-ordered) period slices.
    """
    tag = policy.tag
    m = problem.m
    runs = range(cfg.runs) if runs is None else runs
    rows = len(states) * len(runs)
    span = min(problem.periods, _DRAW_PERIODS)
    chunk = max(1, min(rows, _FILL_DOUBLES // (span * m)))
    scratch = np.empty((chunk, span, m))
    demand_keys = rng_mod.demand_keys(cfg.seed, states, runs, tag, cfg.crn)
    demand = np.empty((span, m, rows)).transpose(2, 0, 1)
    policy_keys = uniforms = None
    if policy.uses_randomness:
        policy_keys = rng_mod.policy_keys(cfg.seed, states, runs, tag)
        uniforms = np.empty((span, m, rows)).transpose(2, 0, 1)

    def draws(k0, n):
        for r0 in range(0, rows, chunk):
            r1 = min(r0 + chunk, rows)
            raw = rng_mod.fill_streams(scratch[:r1 - r0, :n], demand_keys[r0:r1],
                                       start=k0 * m)
            transform_uniform_draws(problem.demand, raw, out=demand[r0:r1, :n])
            if policy_keys is not None:
                uniforms[r0:r1, :n] = rng_mod.fill_streams(
                    scratch[:r1 - r0, :n], policy_keys[r0:r1], start=k0 * m)
        return demand[:, :n], None if uniforms is None else uniforms[:, :n]

    return draws


def estimate_cost(problem: Problem, policy: Policy, x0, cfg: SimConfig,
                  state_index: int = 0, collect_orders: bool = False):
    """(mean, standard error) of the average cost from x0 over cfg.runs.

    x0 holds one level per location, each inside [grid.lo, grid.hi]: the
    order caps are measured from there.  The runs draw the streams of
    initial-state index ``state_index``.  The standard error is the sample
    standard deviation over runs divided by sqrt(runs); with a single run
    it is reported as nan.  With ``collect_orders`` the per-period total
    orders and ordering costs of every run, each (runs, T), are returned
    as well.
    """
    x0 = np.asarray(x0, dtype=float)
    grid = problem.grid
    if x0.shape != (problem.m,) or not np.all((x0 >= grid.lo) & (x0 <= grid.hi)):
        raise ValueError(f"x0 must hold {problem.m} levels inside [{grid.lo}, {grid.hi}], "
                         f"got {x0.tolist()}")
    out = _estimate_over_states(problem, policy, x0[None], cfg, first=state_index,
                                collect_orders=collect_orders)
    return (float(out[0][0]), float(out[1][0]), *(trace[0] for trace in out[2:]))


# ---------------------------------------------------------------------------
# Ratio reports
# ---------------------------------------------------------------------------

@dataclass
class RatioReport:
    states: np.ndarray       # (S, M) initial states
    mean_num: np.ndarray
    se_num: np.ndarray
    mean_den: np.ndarray
    se_den: np.ndarray
    ratio: np.ndarray        # ratio of mean costs, per state
    num_tag: str
    den_tag: str
    config: SimConfig
    den_exact: bool
    runtime_s: float = 0.0
    den_reason: str = ""     # why the denominator is not exact

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.ratio))

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratio))

    @property
    def argmax_state(self):
        return tuple(float(v) for v in self.states[int(np.argmax(self.ratio))])

    def csv_text(self) -> str:
        """One header line, then one line per state of float ``repr``s,
        comma-separated (no field needs quoting)."""
        m = self.states.shape[1]
        header = [f"x{i + 1}" for i in range(m)] + [
            "mean_num", "se_num", "mean_den", "se_den", "ratio"]
        table = np.column_stack((self.states, self.mean_num, self.se_num,
                                 self.mean_den, self.se_den, self.ratio)).tolist()
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in table]
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def summary_text(self) -> str:
        lines = [
            f"numerator:   {self.num_tag}",
            f"denominator: {self.den_tag}" + (" (exact evaluation)" if self.den_exact
                                              else f" (Monte Carlo: {self.den_reason})"),
            f"mean_ratio:  {self.mean_ratio!r}",
            f"max_ratio:   {self.max_ratio!r}",
            f"argmax_state: {self.argmax_state}",
            f"runs_per_state: {self.config.runs}",
            f"seed: {self.config.seed}",
            f"crn: {self.config.crn}",
            f"runtime_s: {self.runtime_s:.2f}",
        ]
        return "\n".join(lines)


def initial_states(problem: Problem, cfg: SimConfig) -> np.ndarray:
    """The (S, M) initial states of a report: every joint grid state in
    ``Grid.states`` order for "grid", else the given list, which must not
    be empty, each of whose states must have M levels and be a grid state
    (``Grid.indices`` raises a ValueError naming the first value that is
    not)."""
    if isinstance(cfg.initial_states, str) and cfg.initial_states == "grid":
        return problem.grid.states(problem.m)
    if not len(cfg.initial_states):
        raise ValueError("initial_states must list at least one state")
    for state in cfg.initial_states:
        if np.shape(state) != (problem.m,):
            raise ValueError(f"initial_states: state {state!r} does not have "
                             f"{problem.m} levels")
    states = np.asarray(cfg.initial_states, dtype=float)
    problem.grid.indices(states)
    return states


# Runs are estimated in chunks so the batched stepper sees large arrays.
# A chunk holds up to _CHUNK_DOUBLES doubles per stream in its draw buffer
# (rows x min(T, _DRAW_PERIODS) x M), so its boundaries depend only on the
# state count, runs, horizon and M (never on the thread count), and the
# stepper itself is purely elementwise, so results are identical however
# the chunks are scheduled.  Each chunk steps its periods in Python once,
# so a smaller budget costs per-period calls, not arithmetic: at 2**20
# (8 MB) a 1000-run, 20-period, 2-location heatmap is 17 chunks (5 at
# 2**22).  Against 2**22, the 1000-run ``affine_sim`` balancing heatmap's
# peak RSS fell from 129 to 63 MB, and its time did not move beyond
# noise (2-core Xeon, numpy 2.4.6).
_CHUNK_DOUBLES = 2 ** 20


def _chunks(problem: Problem, cfg: SimConfig, n_states: int):
    """(state range, run range) of each chunk of an estimate over
    ``n_states`` states: runs of whole states while one state's runs fit in
    ``_CHUNK_DOUBLES`` doubles per stream, else every state's runs in
    ranges of as many runs as fit (at least one)."""
    sims = max(1, _CHUNK_DOUBLES // (min(problem.periods, _DRAW_PERIODS) * problem.m))
    if sims >= cfg.runs:
        per_chunk = sims // cfg.runs
        return [(range(a, min(a + per_chunk, n_states)), range(cfg.runs))
                for a in range(0, n_states, per_chunk)]
    return [(range(j, j + 1), range(r, min(r + sims, cfg.runs)))
            for j in range(n_states) for r in range(0, cfg.runs, sims)]


def _estimate_over_states(problem: Problem, policy: Policy, states: np.ndarray,
                          cfg: SimConfig, first: int = 0, collect_orders: bool = False):
    """Per-state (means, standard errors) of cfg.runs runs from each row of
    ``states`` (S, M), whose row j draws the streams of initial-state index
    first + j; with ``collect_orders`` also the per-period total orders and
    ordering costs of every run, each (S, runs, T).

    The chunks of ``_chunks`` are stepped one at a time, or on cfg.threads
    worker threads, and each writes its own cells of the per-run arrays.
    The standard error is the sample standard deviation over runs divided
    by sqrt(runs), nan for a single run."""
    n_states = states.shape[0]
    costs = np.empty((n_states, cfg.runs))
    traces = [np.empty((n_states, cfg.runs, problem.periods))
              for _ in range(2 if collect_orders else 0)]

    def work(chunk):
        js, rs = chunk
        cells = (slice(js.start, js.stop), slice(rs.start, rs.stop))
        draws = _keyed_draws(problem, policy, cfg,
                             range(first + js.start, first + js.stop), rs)
        x0 = np.repeat(states[cells[0]], len(rs), axis=0)
        out = _simulate_batch(problem, policy, x0, draws, collect_orders=collect_orders)
        if collect_orders:
            out, *per_period = out
            for trace, part in zip(traces, per_period):
                trace[cells] = part.reshape(len(js), len(rs), -1)
        costs[cells] = out.reshape(len(js), len(rs))

    chunks = _chunks(problem, cfg, n_states)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(work, chunks))
    else:
        for chunk in chunks:
            work(chunk)
    means = costs.mean(axis=1)
    if cfg.runs > 1:
        ses = costs.std(axis=1, ddof=1) / np.sqrt(cfg.runs)
    else:
        ses = np.full(n_states, np.nan)
    return (means, ses, *traces)


def exact_ineligibility(problem: Problem, policy: Policy) -> str | None:
    """Why exact evaluation cannot give the policy's per-state cost on this
    problem, or None when it can (up to a policy whose orders turn out to
    leave the grid, which ``Policy.tabulate`` reports)."""
    if policy.uses_randomness:
        return "randomized policy"
    if not isinstance(problem.horizon, Finite):
        return "infinite horizon"
    errors = dp_demand_errors(problem)
    if errors:
        return errors[0]
    if problem.grid.count ** problem.m > dp_mod.MAX_JOINT_STATES:
        return "joint grid too large for exact evaluation"
    return None


def _exact_costs(problem: Problem, policy: Policy, evaluate=None):
    """(exact per-state table or None, reason when None), by ``evaluate``
    (default ``dp.evaluate_policy_exact``).  Only a policy without an
    order table on the grid falls back; any other error of exact
    evaluation propagates."""
    reason = exact_ineligibility(problem, policy)
    if reason is not None:
        return None, reason
    try:
        return (evaluate or dp_mod.evaluate_policy_exact)(problem, policy), ""
    except GridTabulationError as exc:
        return None, str(exc)


def ratio_heatmap(problem: Problem, policy_num: Policy, policy_den: Policy,
                  cfg: SimConfig) -> RatioReport:
    """Per-initial-state cost ratio of two policies.

    The initial states are ``initial_states(problem, cfg)``: the whole
    joint grid, or a given list of grid states (a state off the grid or
    outside it raises a ValueError that names it, and an empty list one
    that names ``initial_states``).

    The numerator is always estimated by Monte Carlo.  The denominator
    uses exact forward evaluation when the policy admits it (zero
    variance, e.g. the DP-optimal tabular policy; see
    ``exact_ineligibility``); otherwise it is estimated on its own derived
    streams and the report records why.  Errors raised inside exact
    evaluation propagate; they never turn into a Monte Carlo estimate.  Ratios are ratios of mean
    costs, not means of per-run ratios; a state where both mean costs are
    exactly 0 has ratio 1.0 (equal costs), not 0/0.
    """
    t0 = time.perf_counter()
    states = initial_states(problem, cfg)
    mean_num, se_num = _estimate_over_states(problem, policy_num, states, cfg)

    if policy_den.tag == policy_num.tag:
        # identical specifiers derive identical streams, so the estimates
        # coincide exactly: reuse them (the ratios come out exactly 1.0)
        exact, den_reason = None, "same policy"
        mean_den, se_den = mean_num.copy(), se_num.copy()
    else:
        exact, den_reason = _exact_costs(problem, policy_den)
        if exact is not None:
            mean_den = exact[tuple(problem.grid.indices(states).T)]
            se_den = np.zeros_like(mean_den)
        else:
            mean_den, se_den = _estimate_over_states(problem, policy_den, states, cfg)

    free = (mean_num == 0) & (mean_den == 0)
    ratio = np.divide(mean_num, mean_den, out=np.ones_like(mean_num), where=~free)
    return RatioReport(
        states=states, mean_num=mean_num, se_num=se_num,
        mean_den=mean_den, se_den=se_den, ratio=ratio,
        num_tag=policy_num.tag, den_tag=policy_den.tag, config=cfg,
        den_exact=exact is not None, runtime_s=time.perf_counter() - t0,
        den_reason=den_reason)


# ---------------------------------------------------------------------------
# Ordering-cost transformation check
# ---------------------------------------------------------------------------

def shift_ordering_slopes(problem: Problem, m_slope: float) -> Problem:
    """The companion problem with m_slope * z subtracted from the ordering
    cost (every piece and discount slope drops by m_slope)."""
    from .model import OrderingCost, Piece
    for piece in problem.ordering.pieces:
        if piece.slope < m_slope - 1e-12:
            raise ValueError(f"piece slope {piece.slope} is below {m_slope}; "
                             "subtracting would leave a negative cost")
    for z, slope in problem.ordering.discounts:
        if slope < m_slope - 1e-12:
            raise ValueError(f"discount slope {slope} at z={z} is below {m_slope}")
    shifted = OrderingCost(
        pieces=tuple(Piece(p.upper, p.fixed, p.slope - m_slope)
                     for p in problem.ordering.pieces),
        discounts=tuple((z, s - m_slope) for z, s in problem.ordering.discounts))
    return replace(problem, ordering=shifted)


def verify_cost_transformation(problem: Problem, policy: Policy, m_slope: float,
                               cfg: SimConfig | None = None) -> dict:
    """Check the linear-term cost transformation for one policy.

    The claimed identity states that a policy's average cost drops by
    m * E[(1/N) * sum over periods and locations of demand] when m*z is
    removed from the ordering cost.  For deterministic grid policies both
    sides are evaluated exactly, and the report also carries the exact
    order-accounting residual

        J(P) - J(P_hat) - (m/N) * E[total orders]

    which is zero up to rounding by construction.  Expected orders and
    expected demand differ by the terminal displacement E x_N - x_0 less
    the backlog clamped away at the grid floor, so the displacement
    residual  formula gap - (m/N) * sum_i (E x_N,i - x_0,i - E clamp_i)
    is zero up to rounding too.  For randomized policies the check is
    statistical under common random numbers.

    Both branches report over the ``initial_states`` of ``cfg`` (default
    200 runs, seed 0).
    """
    cfg = replace(cfg or SimConfig(runs=200, seed=0), crn=True)
    hat = shift_ordering_slopes(problem, m_slope)
    per_period_demand = sum(problem.demand.mean(i) for i in range(problem.m))
    demand_term = m_slope * per_period_demand

    states = initial_states(problem, cfg)
    ex, _ = _exact_costs(problem, policy, dp_mod.exact_expectations)
    if ex is not None:
        at = tuple(problem.grid.indices(states).T)
        cost, rhs = ex.cost[at], dp_mod.evaluate_policy_exact(hat, policy)[at]
        periods = problem.horizon.periods
        displacement = (ex.final_level[at] - states - ex.clamp[at]).sum(axis=-1)
        formula_gap = cost - (rhs + demand_term)
        accounting_gap = cost - rhs - m_slope * ex.orders[at] / periods
        displacement_gap = formula_gap - m_slope * displacement / periods
        return {
            "mode": "exact",
            "demand_term": demand_term,
            "max_abs_formula_gap": float(np.max(np.abs(formula_gap))),
            "max_abs_accounting_gap": float(np.max(np.abs(accounting_gap))),
            "max_abs_displacement_gap": float(np.max(np.abs(displacement_gap))),
        }

    mean_p, se_p = _estimate_over_states(problem, policy, states, cfg)
    mean_h, se_h = _estimate_over_states(hat, policy, states, cfg)
    gap = mean_p - (mean_h + demand_term)
    se = np.sqrt(se_p ** 2 + se_h ** 2)
    return {
        "mode": "monte_carlo",
        "demand_term": demand_term,
        "max_abs_formula_gap": float(np.max(np.abs(gap))),
        "max_gap_in_se": float(np.max(np.abs(gap) / np.maximum(se, 1e-300))),
    }

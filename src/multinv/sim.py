"""Seeded Monte Carlo engine and cost-ratio reports.

Dynamics, clamping, and cost charging mirror the DP module exactly:
holding/backlog is charged on the pre-clamp level x + u - w, then the
next state clamps into the grid box.  Every (initial state, run) pair
owns purely derived random streams (see rng), so reports are
bit-identical regardless of worker count or which other policies were
estimated in the same session.  Each run's stream is the same as if
drawn from its own generator; a chunk of runs is drawn by re-keying one
Philox generator per chunk, and its demand is transformed in one call.

One batched stepper serves scalar simulation (batch of one) and the
full-grid estimators, so both consume randomness identically: demand is
one uniform per location per period, policy randomness (when a policy
is randomized) likewise.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import dp as dp_mod
from . import rng as rng_mod
from .model import Finite, Problem, dp_demand_errors, transform_uniform_draws
from .policies import GridTabulationError, Policy


@dataclass(frozen=True)
class SimConfig:
    runs: int = 1000
    seed: int = 0
    initial_states: object = "grid"  # "grid" or a list of state vectors
    horizon_override: int | None = None
    crn: bool = False
    threads: int = 1

    def check(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.horizon_override is not None and self.horizon_override < 1:
            raise ValueError("horizon_override must be >= 1")


def _with_horizon(problem: Problem, cfg: SimConfig | None) -> Problem:
    if cfg is None or cfg.horizon_override is None:
        return problem
    return replace(problem, horizon=Finite(cfg.horizon_override))


# ---------------------------------------------------------------------------
# Core stepper
# ---------------------------------------------------------------------------

def _simulate_batch(problem: Problem, policy: Policy, x0: np.ndarray,
                    demand: np.ndarray, uniforms, collect_orders: bool = False):
    """Average cost of B trajectories fed with pre-drawn demand.

    x0: (B, M); demand: (B, T, M); uniforms: (B, T, M) or None.
    Returns costs (B,), and with ``collect_orders`` also the per-period
    total orders and ordering costs, each (B, T).
    """
    grid = problem.grid
    burn = 0 if isinstance(problem.horizon, Finite) else problem.horizon.burn_in
    periods = demand.shape[1]
    x = np.array(x0, dtype=float)
    total = np.zeros(x.shape[0])
    z_trace = np.zeros((x.shape[0], periods)) if collect_orders else None
    c_trace = np.zeros((x.shape[0], periods)) if collect_orders else None
    for k in range(periods):
        uni = None if uniforms is None else uniforms[:, k, :]
        orders = policy.act_batch(problem, k, x, uni)
        z = orders.sum(axis=1)
        order_cost = problem.ordering.eval_array(z)
        post = x + orders - demand[:, k, :]
        stage = order_cost + problem.holding.eval_batch(post).sum(axis=1)
        if k >= burn:
            total += stage
        if collect_orders:
            z_trace[:, k] = z
            c_trace[:, k] = order_cost
        x = np.clip(post, grid.lo, grid.hi)
    costs = total / (periods - burn)
    if collect_orders:
        return costs, z_trace, c_trace
    return costs


def simulate_run(problem: Problem, policy: Policy, x0,
                 demand_stream: np.random.Generator,
                 policy_stream: np.random.Generator | None = None,
                 collect_orders: bool = False):
    """Average cost of one trajectory; deterministic given the streams."""
    periods = problem.periods
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    demand = transform_uniform_draws(
        problem.demand, demand_stream.random((periods, problem.m)))[None]
    uniforms = None
    if policy.uses_randomness:
        if policy_stream is None:
            raise ValueError("randomized policy needs a policy stream")
        uniforms = policy_stream.random((periods, problem.m))[None]
    out = _simulate_batch(problem, policy, x0, demand, uniforms,
                          collect_orders=collect_orders)
    if collect_orders:
        costs, z, c = out
        return float(costs[0]), z[0], c[0]
    return float(out[0])


def _draw_runs(problem: Problem, policy: Policy, cfg: SimConfig, states: range):
    """Demand (and policy-uniform) tensors of cfg.runs runs for each
    initial-state index in ``states``, state-major, shape (rows, T, M).

    Row (s - states.start) * cfg.runs + run holds exactly the draws of
    that run's own streams (``rng.demand_stream``/``rng.policy_stream``);
    the keys of the block are derived in one pass and the uniforms are
    transformed into demand in place with one call.
    """
    tag = policy.tag
    shape = (len(states) * cfg.runs, problem.periods, problem.m)
    demand = rng_mod.fill_streams(
        np.empty(shape), rng_mod.demand_keys(cfg.seed, states, cfg.runs, tag, cfg.crn))
    transform_uniform_draws(problem.demand, demand, out=demand)
    uniforms = None
    if policy.uses_randomness:
        uniforms = rng_mod.fill_streams(
            np.empty(shape), rng_mod.policy_keys(cfg.seed, states, cfg.runs, tag))
    return demand, uniforms


def estimate_cost(problem: Problem, policy: Policy, x0, cfg: SimConfig,
                  state_index: int = 0, collect_orders: bool = False):
    """(mean, standard error) of the average cost from x0 over cfg.runs.

    The standard error is the sample standard deviation over runs divided
    by sqrt(runs); with a single run it is reported as nan.
    """
    cfg.check()
    problem = _with_horizon(problem, cfg)
    demand, uniforms = _draw_runs(problem, policy, cfg,
                                  range(state_index, state_index + 1))
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (cfg.runs, problem.m))
    out = _simulate_batch(problem, policy, x0, demand, uniforms,
                          collect_orders=collect_orders)
    costs = out[0] if collect_orders else out
    mean = float(np.mean(costs))
    se = float(np.std(costs, ddof=1) / np.sqrt(cfg.runs)) if cfg.runs > 1 else float("nan")
    if collect_orders:
        return mean, se, out[1], out[2]
    return mean, se


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        m = self.states.shape[1]
        writer.writerow([f"x{i + 1}" for i in range(m)]
                        + ["mean_num", "se_num", "mean_den", "se_den", "ratio"])
        for j in range(self.states.shape[0]):
            writer.writerow([repr(float(v)) for v in self.states[j]]
                            + [repr(float(self.mean_num[j])), repr(float(self.se_num[j])),
                               repr(float(self.mean_den[j])), repr(float(self.se_den[j])),
                               repr(float(self.ratio[j]))])
        return buf.getvalue()

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


def _grid_states(problem: Problem) -> np.ndarray:
    n = problem.grid.count
    idx = np.stack([g.ravel() for g in np.indices((n,) * problem.m)], axis=1)
    return problem.grid.points()[idx]


def initial_states(problem: Problem, cfg: SimConfig) -> np.ndarray:
    if isinstance(cfg.initial_states, str) and cfg.initial_states == "grid":
        return _grid_states(problem)
    return np.asarray(cfg.initial_states, dtype=float).reshape(-1, problem.m)


# States are estimated in chunks so the batched stepper sees large
# arrays; boundaries depend only on the state count and runs (never on
# the thread count), and the stepper itself is purely elementwise, so
# results are identical however the chunks are scheduled.
_CHUNK_SIMS = 100_000


def _estimate_over_states(problem: Problem, policy: Policy, states: np.ndarray,
                          cfg: SimConfig):
    n_states = states.shape[0]
    means = np.empty(n_states)
    ses = np.empty(n_states)
    per_chunk = max(1, _CHUNK_SIMS // cfg.runs)
    spans = [(a, min(a + per_chunk, n_states)) for a in range(0, n_states, per_chunk)]

    def work(span):
        j0, j1 = span
        demand, uniforms = _draw_runs(problem, policy, cfg, range(j0, j1))
        x0 = np.repeat(states[j0:j1], cfg.runs, axis=0)
        costs = _simulate_batch(problem, policy, x0, demand, uniforms)
        per_state = costs.reshape(j1 - j0, cfg.runs)
        means[j0:j1] = per_state.mean(axis=1)
        if cfg.runs > 1:
            ses[j0:j1] = per_state.std(axis=1, ddof=1) / np.sqrt(cfg.runs)
        else:
            ses[j0:j1] = np.nan

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return means, ses


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

    The numerator is always estimated by Monte Carlo.  The denominator
    uses exact forward evaluation when the policy admits it (zero
    variance, e.g. the DP-optimal tabular policy; see
    ``exact_ineligibility``); otherwise it is estimated on its own derived
    streams and the report records why.  Errors raised inside exact
    evaluation propagate; they never turn into a Monte Carlo estimate.  Ratios are ratios of mean
    costs, not means of per-run ratios; a state where both mean costs are
    exactly 0 has ratio 1.0 (equal costs), not 0/0.
    """
    cfg.check()
    t0 = time.perf_counter()
    problem = _with_horizon(problem, cfg)
    states = initial_states(problem, cfg)
    mean_num, se_num = _estimate_over_states(problem, policy_num, states, cfg)

    if policy_den.tag == policy_num.tag:
        # identical specifiers derive identical streams, so the estimates
        # coincide exactly; reuse them and report unit ratios
        return RatioReport(
            states=states, mean_num=mean_num, se_num=se_num,
            mean_den=mean_num.copy(), se_den=se_num.copy(),
            ratio=np.ones_like(mean_num), num_tag=policy_num.tag,
            den_tag=policy_den.tag, config=cfg, den_exact=False,
            runtime_s=time.perf_counter() - t0, den_reason="same policy")

    exact, den_reason = _exact_costs(problem, policy_den)
    if exact is not None:
        idx = tuple(np.rint((states[:, i] - problem.grid.lo) / problem.grid.step).astype(int)
                    for i in range(problem.m))
        mean_den = exact[idx]
        se_den = np.zeros_like(mean_den)
        den_exact = True
    else:
        mean_den, se_den = _estimate_over_states(problem, policy_den, states, cfg)
        den_exact = False

    free = (mean_num == 0) & (mean_den == 0)
    ratio = np.divide(mean_num, mean_den, out=np.ones_like(mean_num), where=~free)
    return RatioReport(
        states=states, mean_num=mean_num, se_num=se_num,
        mean_den=mean_den, se_den=se_den, ratio=ratio,
        num_tag=policy_num.tag, den_tag=policy_den.tag, config=cfg,
        den_exact=den_exact, runtime_s=time.perf_counter() - t0,
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
    """
    hat = shift_ordering_slopes(problem, m_slope)
    per_period_demand = sum(problem.demand.mean(i) for i in range(problem.m))
    demand_term = m_slope * per_period_demand

    ex, _ = _exact_costs(problem, policy, dp_mod.exact_expectations)
    if ex is not None:
        rhs = dp_mod.evaluate_policy_exact(hat, policy)
        periods = problem.horizon.periods
        x0 = _grid_states(problem).reshape(ex.final_level.shape)
        displacement = (ex.final_level - x0 - ex.clamp).sum(axis=-1)
        formula_gap = ex.cost - (rhs + demand_term)
        accounting_gap = ex.cost - rhs - m_slope * ex.orders / periods
        displacement_gap = formula_gap - m_slope * displacement / periods
        return {
            "mode": "exact",
            "demand_term": demand_term,
            "max_abs_formula_gap": float(np.max(np.abs(formula_gap))),
            "max_abs_accounting_gap": float(np.max(np.abs(accounting_gap))),
            "max_abs_displacement_gap": float(np.max(np.abs(displacement_gap))),
        }

    cfg = cfg or SimConfig(runs=200, seed=0, crn=True)
    cfg = replace(cfg, crn=True)
    states = initial_states(problem, cfg)
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

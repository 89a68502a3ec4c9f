"""The four benchmark workloads, driven through the public multinv API.

Each workload separates three phases:

* ``setup(seed)``  -- what a user pays before the main call: instance
  build, the DP solve for the optimal policy, policy construction, and
  filling the balancing rule's lazy partial-sum cache.  Timed as
  ``setup_s``.
* ``work(ctx, seed, threads)`` -- the main call(s).  Timed as ``work_s``.
* ``oracle(ctx)`` / ``check(ctx, out)`` -- independent expectations
  computed untimed, and the checks of one work output against them.

Sizes are fixed here; ``tiny()`` shrinks them for the smoke test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import multinv as mi
from multinv import balancing, bounds, dp, instances, model, sim

DEFAULT_SEED = 2024

# Aggregate z-bound for Monte Carlo against exact evaluation: the sum of
# per-state errors over all states is a sum of thousands of independent
# runs, so a normal bound of 5 has a false-alarm rate near 6e-7.
Z_BOUND = 5.0
# The mean relative standard error may move with the seed by a few
# percent; a shared or correlated stream moves it far outside this band.
REL_SE_BAND = (0.5, 2.0)
# Ratio drift at the default seed beyond this relative amount is a failure.
RATIO_DRIFT = 1e-9
EXACT_TOL = 1e-9


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Output:
    """What one work call produced, reduced to what checks and metrics need."""

    value: object
    digest: str
    summary: dict = field(default_factory=dict)


class Workload:
    name = ""
    monte_carlo = True

    def __init__(self, **sizes):
        self.sizes = {**self.SIZES, **sizes}

    def tiny(self):
        return type(self)(**self.TINY)

    def oracle(self, ctx):
        return {}

    def steps(self, ctx) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Heatmap workloads: MC numerator against the exact DP-optimal denominator
# ---------------------------------------------------------------------------

class _Heatmap(Workload):
    instance = ""

    def _states(self, problem):
        count = self.sizes["states"]
        if count is None:
            return "grid"
        return sim.initial_states(problem, sim.SimConfig())[:count].tolist()

    def _policy(self, problem):
        raise NotImplementedError

    def setup(self, seed):
        problem = instances.build(self.instance)
        _, table = dp.solve_joint_dp(problem)
        optimal = mi.TabularGridPolicy(table)
        policy = self._policy(problem)
        return {"problem": problem, "optimal": optimal, "policy": policy}

    def config(self, ctx, seed, threads=1):
        return sim.SimConfig(runs=self.sizes["runs"], seed=seed,
                             initial_states=self._states(ctx["problem"]),
                             threads=threads)

    def work(self, ctx, seed, threads=1):
        report = sim.ratio_heatmap(ctx["problem"], ctx["policy"], ctx["optimal"],
                                   self.config(ctx, seed, threads))
        rel_se = float(np.mean(report.se_num / report.mean_num))
        return Output(report, _digest(report.csv_text()),
                      {"mean_ratio": report.mean_ratio,
                       "max_ratio": report.max_ratio, "mc_rel_se": rel_se})

    def steps(self, ctx):
        cfg = self.config(ctx, DEFAULT_SEED)
        states = sim.initial_states(ctx["problem"], cfg).shape[0]
        return states * cfg.runs * ctx["problem"].periods


class SquareSector(_Heatmap):
    name = "square_sector"
    instance = "sector_sim"
    SIZES = {"runs": 20, "states": None}
    TINY = {"runs": 3, "states": 6}

    def _policy(self, problem):
        return mi.make_pi_square(problem, l=2.0)

    def oracle(self, ctx):
        return {"exact_num": dp.evaluate_policy_exact(ctx["problem"], ctx["policy"])}

    def check(self, ctx, oracle, out):
        report = out.value
        problem = ctx["problem"]
        idx = tuple(np.rint((report.states[:, i] - problem.grid.lo)
                            / problem.grid.step).astype(int)
                    for i in range(problem.m))
        exact = oracle["exact_num"][idx]
        err = float(np.sum(report.mean_num - exact))
        se = float(np.sqrt(np.sum(report.se_num ** 2)))
        z = err / se
        return [Check("mc_matches_exact_pi_square", abs(z) <= Z_BOUND,
                      f"aggregate z={z:.3f} (bound {Z_BOUND})"),
                Check("den_exact", bool(report.den_exact))]


class BalancingAffine(_Heatmap):
    name = "balancing_affine"
    instance = "affine_sim"
    SIZES = {"runs": 4, "states": None}
    TINY = {"runs": 2, "states": 6}

    def _policy(self, problem):
        policy = balancing.make_balancing_policy(problem, variant="cumulative")
        # Fill the rule's lazily built partial-sum atoms (an lru_cache) for
        # every stage, so their cost counts in setup_s, not in the first call.
        for state in policy.states:
            for k in range(state.periods):
                balancing.expected_holding_proxy(state, k, 0.0, 0.0)
        return policy

    def oracle(self, ctx):
        fit = bounds.fit_affine(ctx["problem"].ordering, ctx["problem"].m)
        return {"bound": bounds.theoretical_ratio(fit, ctx["problem"].m, "online")}

    def check(self, ctx, oracle, out):
        ratio = out.value.ratio
        ok = bool(np.all(np.isfinite(ratio)) and np.all(ratio < oracle["bound"]))
        return [Check("ratios_finite_below_online_bound", ok,
                      f"max ratio {float(np.max(ratio)):.4f}, bound {oracle['bound']:g}"),
                Check("den_exact", bool(out.value.den_exact))]


# ---------------------------------------------------------------------------
# Long-horizon stepping: continuous demand, one state, estimate_cost
# ---------------------------------------------------------------------------

class TightnessLong(Workload):
    name = "tightness_long"
    SIZES = {"runs": 500, "periods": 2000}
    TINY = {"runs": 5, "periods": 50}
    BASE_ID = "tightness:M=2,eps=0.1,l=1,h=4,p=100"
    FLOOR = 0.9 * 4.0 / 1.1  # criterion 8's floor on the ratio

    def setup(self, seed):
        instance_id = f"{self.BASE_ID},sim_periods={self.sizes['periods']}"
        problem = instances.build(instance_id)
        defaults = instances.policy_defaults(instance_id)
        base = mi.BaseStockPolicy(np.full(problem.m, defaults["base_stock_auto"]))
        pi_v = mi.make_pi_v(defaults["pi_v"]["m"], defaults["pi_v"]["delta"])
        return {"problem": problem, "base": base, "pi_v": pi_v}

    def work(self, ctx, seed, threads=1):
        cfg = sim.SimConfig(runs=self.sizes["runs"], seed=seed, threads=threads)
        x0 = np.zeros(ctx["problem"].m)
        mean_b, se_b = sim.estimate_cost(ctx["problem"], ctx["base"], x0, cfg)
        mean_v, se_v = sim.estimate_cost(ctx["problem"], ctx["pi_v"], x0, cfg)
        ratio = mean_b / mean_v
        text = ",".join(repr(v) for v in (mean_b, se_b, mean_v, se_v))
        rel_se = 0.5 * (se_b / mean_b + se_v / mean_v)
        return Output(ratio, _digest(text),
                      {"mean_ratio": ratio, "max_ratio": ratio, "mc_rel_se": rel_se})

    def check(self, ctx, oracle, out):
        return [Check("ratio_above_criterion_8_floor", out.value >= self.FLOOR,
                      f"ratio {out.value:.4f} >= {self.FLOOR:.4f}")]

    def steps(self, ctx):
        return 2 * self.sizes["runs"] * ctx["problem"].periods


# ---------------------------------------------------------------------------
# Joint DP on a three-location sector instance
# ---------------------------------------------------------------------------

class DPJoint3(Workload):
    name = "dp_joint3"
    monte_carlo = False
    SIZES = {"horizon": 6}
    TINY = {"horizon": 2}

    def setup(self, seed):
        # The seed draws the holding and backlog rates, so every seed poses
        # its own instance; the grid, demand, cost and order cap are fixed.
        rng = np.random.default_rng(seed)
        base = instances.build("sector_sim")
        m = 3
        problem = model.Problem(
            m=m,
            horizon=model.Finite(self.sizes["horizon"]),
            ordering=base.ordering,
            holding=model.HoldingBacklogCost(
                holding=tuple(float(v) for v in rng.uniform(0.05, 0.2, m)),
                backlog=tuple(float(v) for v in rng.uniform(5.0, 15.0, m))),
            demand=model.DemandModel(marginals=(base.demand.marginals[0],) * m),
            grid=base.grid,
            max_order_per_location=3.0,
        ).validate(dp=True)
        square = mi.make_pi_square(problem, l=2.0)
        return {"problem": problem, "square": square}

    def work(self, ctx, seed, threads=1):
        problem = ctx["problem"]
        values, table = dp.solve_joint_dp(problem)
        optimal = mi.TabularGridPolicy(table)
        exact_opt = dp.evaluate_policy_exact(problem, optimal)
        exact_sq = dp.evaluate_policy_exact(problem, ctx["square"])
        v0 = values.values[0] / problem.periods
        text = "".join(a.tobytes().hex() for a in (v0, exact_opt, exact_sq))
        return Output((v0, exact_opt, exact_sq), _digest(text))

    def check(self, ctx, oracle, out):
        v0, exact_opt, exact_sq = out.value
        gap = float(np.max(np.abs(v0 - exact_opt)))
        excess = float(np.max(exact_opt - exact_sq))
        return [Check("v0_equals_exact_optimal", gap <= EXACT_TOL, f"max gap {gap:.2e}"),
                Check("optimal_at_most_pi_square", excess <= EXACT_TOL,
                      f"max excess {excess:.2e}")]

    def steps(self, ctx):
        problem = ctx["problem"]
        return 3 * problem.grid.count ** problem.m * problem.periods


WORKLOADS = {w.name: w for w in (SquareSector, BalancingAffine, TightnessLong, DPJoint3)}


def reference_checks(out, ref):
    """Checks of a default-seed output against its recorded reference.

    Returns (checks, csv_match); csv_match is informational, because
    floating-point reordering may change the bytes without moving the
    ratios beyond RATIO_DRIFT.
    """
    checks = []
    for key in ("mean_ratio", "max_ratio"):
        got = out.summary[key]
        drift = abs(got - ref[key]) / abs(ref[key])
        checks.append(Check(f"reference_{key}", drift <= RATIO_DRIFT,
                            f"{got!r} vs {ref[key]!r} (relative drift {drift:.1e})"))
    return checks, out.digest == ref["csv_sha256"]


def reference_entry(workload, out) -> dict:
    return {"seed": DEFAULT_SEED, "sizes": workload.sizes,
            "mean_ratio": out.summary["mean_ratio"],
            "max_ratio": out.summary["max_ratio"],
            "mc_rel_se": out.summary["mc_rel_se"],
            "csv_sha256": out.digest}

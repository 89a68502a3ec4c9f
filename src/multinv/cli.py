"""Command-line front end.

Subcommands:

* ``solve``    -- exact DP on an instance/config; writes value and policy CSVs.
* ``compare``  -- Monte Carlo cost-ratio heatmap of two policies.
* ``bounds``   -- sector/affine envelope fits and the implied worst-case ratios.
* ``verify``   -- named property suites (theorem1, transform, oracle,
                  balancing-monotone).
* ``config``   -- export a built-in instance to a JSON config.

Policy specifiers for --num/--den:

    optimal                    joint-DP optimal (exact denominator)
    pi_square[:l=2]            decoupled base-stock from the linear proxy
    pi_diamond[:Kh=..,h=..]    decoupled (s,S) from the affine proxy
    balancing[:K=..,variant=printed|cumulative]
    pi_v                       threshold-and-equalize (tightness instances)
    base_stock:S=auto|<level>  stationary base-stock, same level everywhere
    sS:s=..,S=..               stationary (s,S), same pair everywhere

Exit codes: 0 success, 1 property/acceptance failure, 2 usage or
configuration error (a ``UsageError`` or ``ValidationError``).  Any other
exception is an internal fault and propagates.  Every command writes a
manifest JSON next to its outputs; rerunning with the same manifest
inputs reproduces the CSVs byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, bounds, config as config_mod, dp as dp_mod, instances
from .balancing import make_balancing_policy
from .model import Finite, Problem, ValidationError
from .policies import (BaseStockPolicy, SSPolicy, TabularGridPolicy,
                       make_pi_diamond, make_pi_square, make_pi_v)
from .sim import SimConfig, ratio_heatmap, verify_cost_transformation


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _parsing():
    """Read user input: a ValueError raised here is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_problem(args) -> tuple[Problem, str, dict]:
    """(problem, source, policy defaults) named by --instance or --config,
    with the finite horizon set by --horizon where the command has it.  A
    config file has no policy defaults; an instance's come from
    ``instances.policy_defaults``, whose errors are internal faults."""
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        with _parsing():
            problem = config_mod.load_problem(path)
        source, defaults = str(path), {}
    elif getattr(args, "instance", None):
        with _parsing():
            problem = instances.build(args.instance)
        source, defaults = args.instance, instances.policy_defaults(args.instance)
    else:
        raise UsageError("provide --instance NAME or --config PATH")
    horizon = getattr(args, "horizon", None)
    if horizon is not None:
        if horizon < 1:
            raise UsageError("horizon_override must be >= 1")
        problem = replace(problem, horizon=Finite(horizon))
    return problem, source, defaults


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError(f"malformed policy parameter {part!r}")
        out[key.strip()] = value.strip()
    return out


# The parameters each policy specifier takes (see the module docstring).
_SPEC_KEYS = {
    "optimal": (), "pi_square": ("l",), "pi_diamond": ("Kh", "h"),
    "balancing": ("K", "variant"), "pi_v": (), "base_stock": ("S",),
    "sS": ("s", "S"),
}


def build_policy(spec: str, problem: Problem, defaults: dict):
    """Construct a policy from its CLI specifier.  Instance-specific
    defaults (pi_diamond's pair, pi_v, S=auto) come from ``defaults``, an
    ``instances.policy_defaults`` dict; a problem read from a config file
    has none.  A parameter the specifier does not take is a UsageError
    naming it."""
    name, _, rest = spec.partition(":")
    if name == "config":
        path = Path(rest)
        if not path.exists():
            raise UsageError(f"policy config not found: {path}")
        with open(path) as fh, _parsing():
            return config_mod.policy_from_config(json.load(fh), problem)
    if name not in _SPEC_KEYS:
        raise UsageError(f"unknown policy {name!r}")
    params = _parse_kv(rest) if rest else {}
    for key in params:
        if key not in _SPEC_KEYS[name]:
            raise UsageError(f"{name}: unknown parameter {key!r} (known: "
                             f"{', '.join(_SPEC_KEYS[name]) or 'none'})")

    if name == "optimal":
        _, tab = dp_mod.solve_joint_dp(problem)
        return TabularGridPolicy(tab)
    if name == "pi_square":
        with _parsing():
            if "l" in params:
                slope = float(params["l"])
            else:
                slope = bounds.fit_sector(problem.ordering).l
        return make_pi_square(problem, slope)
    if name == "pi_diamond":
        if ("Kh" in params) != ("h" in params):
            raise UsageError("pi_diamond needs both Kh and h, or neither")
        with _parsing():
            if "Kh" in params:
                pair = (float(params["Kh"]), float(params["h"]))
            elif "pi_diamond" in defaults:
                pair = defaults["pi_diamond"]
            else:
                fit = bounds.fit_affine(problem.ordering, problem.m)
                pair = (fit.K_h, fit.h)
        return make_pi_diamond(problem, pair[0], pair[1])
    if name == "balancing":
        with _parsing():
            K = float(params["K"]) if "K" in params else None
            return make_balancing_policy(problem, K=K,
                                          variant=params.get("variant", "printed"))
    if name == "pi_v":
        if "pi_v" not in defaults:
            raise UsageError("pi_v is defined for tightness instances only")
        return make_pi_v(defaults["pi_v"]["m"], defaults["pi_v"]["delta"])
    if name == "base_stock":
        if "S" not in params:
            raise UsageError("base_stock needs S=<level> or S=auto")
        if params["S"] == "auto":
            if "base_stock_auto" not in defaults:
                raise UsageError("S=auto is defined for tightness instances only")
            level = defaults["base_stock_auto"]
        else:
            level = params["S"]
        with _parsing():
            return BaseStockPolicy(np.full(problem.m, float(level)))
    if name == "sS":
        if "s" not in params or "S" not in params:
            raise UsageError("sS needs s=<level>,S=<level>")
        with _parsing():
            return SSPolicy(np.full(problem.m, float(params["s"])),
                            np.full(problem.m, float(params["S"])))


def _write_manifest(out_dir: Path, payload: dict):
    payload = dict(payload)
    payload["artifact_version"] = __version__
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _table_csv(problem: Problem, array: np.ndarray, value_columns) -> str:
    """Stage-major CSV of a per-stage grid table.

    Columns: stage, x1..xM, then the value columns; states enumerate in
    C order of the grid indices.
    """
    coords = problem.grid.states(problem.m)
    header = ["stage"] + [f"x{i + 1}" for i in range(problem.m)] + list(value_columns)
    lines = [",".join(header)]
    for k in range(array.shape[0]):
        table = np.column_stack((coords, array[k].reshape(len(coords), -1))).tolist()
        lines += [f"{k}," + ",".join(map(repr, row)) for row in table]
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    problem, source, _ = _load_problem(args)
    vf, tab = dp_mod.solve_joint_dp(problem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    values = vf.values[:, ..., None]
    (out / "values.csv").write_text(_table_csv(problem, values, ["value"]))
    orders = tab.orders * problem.grid.step
    (out / "policy.csv").write_text(
        _table_csv(problem, orders, [f"u{i + 1}" for i in range(problem.m)]))
    if args.per_location:
        from .model import single_location_problem
        for i in range(problem.m):
            sub = single_location_problem(problem, i)
            _, tabi = dp_mod.solve_joint_dp(sub)
            (out / f"policy_location{i + 1}.csv").write_text(
                _table_csv(sub, tabi.orders * sub.grid.step, ["u1"]))
    _write_manifest(out, {"command": "solve", "source": source,
                          "horizon_override": args.horizon,
                          "per_location": args.per_location})
    print(f"wrote {out / 'values.csv'} and {out / 'policy.csv'}")
    return 0


def cmd_compare(args) -> int:
    problem, source, defaults = _load_problem(args)
    with _parsing():
        cfg = SimConfig(runs=args.runs, seed=args.seed, crn=args.crn,
                        threads=args.threads)
    policy_num = build_policy(args.num, problem, defaults)
    policy_den = build_policy(args.den, problem, defaults)
    report = ratio_heatmap(problem, policy_num, policy_den, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "heatmap.csv")
    (out / "summary.txt").write_text(report.summary_text() + "\n")
    _write_manifest(out, {
        "command": "compare", "source": source, "num": args.num, "den": args.den,
        "runs": cfg.runs, "seed": cfg.seed, "crn": cfg.crn,
        "horizon_override": args.horizon, "threads": cfg.threads,
        "den_exact": report.den_exact, "den_reason": report.den_reason,
    })
    if args.gnuplot:
        (out / "heatmap.gp").write_text(_gnuplot_script(problem))
    print(report.summary_text())
    return 0


def _gnuplot_script(problem: Problem) -> str:
    n = problem.grid.count
    return (
        "# gnuplot script for the ratio heatmap\n"
        "set datafile separator ','\n"
        "set view map\n"
        f"set title 'cost ratio per initial state'\n"
        f"splot 'heatmap.csv' every ::1 using 1:2:{problem.m + 5} with points "
        "pointtype 5 pointsize 2 palette\n")


def cmd_bounds(args) -> int:
    problem, source, _ = _load_problem(args)
    if args.locations is not None and args.locations < 1:
        raise UsageError("--locations must be >= 1")
    m = problem.m if args.locations is None else args.locations
    text = bounds.report(problem.ordering, m)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bounds.txt").write_text(text + "\n")
        _write_manifest(out, {"command": "bounds", "source": source,
                              "locations": m})
    return 0


def cmd_config(args) -> int:
    problem, _, _ = _load_problem(args)
    if args.out:
        config_mod.save_problem(problem, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(config_mod.problem_to_config(problem), indent=2,
                         sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_theorem1() -> list:
    from .stationary import optimize_individual, optimize_joint, stationary_cost
    from .model import Grid, Piece
    from .testing import random_problem
    import math

    def pieces(rng):
        m1 = float(rng.uniform(1, 5))
        m2 = float(rng.uniform(0.5, 3))
        lift = max(0.0, (m1 - m2) * 2.0) + float(rng.uniform(0, 2))
        return Piece(2.0, 0.0, m1), Piece(math.inf, lift, m2)

    results = []
    rng = np.random.default_rng(20240817)
    problems = [instances.build("fig1_linear"), instances.build("fig1_nonlinear")]
    problems += [random_problem(rng, int(rng.integers(1, 4)), 2, Grid(-2.0, 5.0, 0.5),
                                atoms=(2, 5), support=8, pieces=pieces,
                                cap=lambda rng: 4.0)
                 for _ in range(5)]
    for j, problem in enumerate(problems):
        joint = optimize_joint(problem)
        indiv = optimize_individual(problem)
        gap = abs(stationary_cost(joint, problem) - stationary_cost(indiv, problem))
        ok = gap <= 1e-12 and joint == indiv
        results.append((f"theorem1[{j}] levels {indiv} gap {gap:.2e}", ok))
    return results


def _suite_transform() -> list:
    from .testing import random_order_table
    problem = instances.build("fig1_linear")
    results = []
    policies = {
        "pi_square": make_pi_square(problem, 2.0),
        "pi_diamond": make_pi_diamond(problem, 1.0, 2.0),
    }
    table = random_order_table(problem, np.random.default_rng(7))
    policies["random_tabular"] = TabularGridPolicy(dp_mod.TabularPolicy(
        grid=problem.grid, m=2, orders=table,
        cap_steps=problem.grid.to_steps(problem.max_order_per_location)))
    for name, policy in policies.items():
        rep = verify_cost_transformation(problem, policy, 2.0)
        ok = rep["max_abs_formula_gap"] <= 1e-9
        results.append(
            (f"transform[{name}] formula gap {rep['max_abs_formula_gap']:.3e} "
             f"(order-accounting residual {rep['max_abs_accounting_gap']:.1e}, "
             f"displacement-and-clamp residual "
             f"{rep['max_abs_displacement_gap']:.1e})", ok))
    return results


def _suite_oracle() -> list:
    from .testing import brute_force_values, random_small_problem
    results = []
    rng = np.random.default_rng(99)
    for j in range(6):
        problem = random_small_problem(rng)
        vf, _ = dp_mod.solve_joint_dp(problem)
        brute = brute_force_values(problem)
        gap = float(np.max(np.abs(vf.values[0] - brute)))
        results.append((f"oracle[{j}] max gap {gap:.2e}", gap <= 1e-12))
    return results


def _suite_balancing_monotone() -> list:
    from .balancing import (BalancingState, expected_backlog_proxy,
                            expected_holding_proxy)
    from .model import DiscreteMarginal
    results = []
    fig2 = DiscreteMarginal((0.0, 0.5, 1.0, 1.5), (0.125, 0.375, 0.375, 0.125))
    for variant in ("printed", "cumulative"):
        ok = True
        st = BalancingState(periods=20, a=0.1, b=10.0, K=4.0, marginal=fig2,
                            variant=variant)
        for k in (0, 7, 19):
            for x in (-2.0, 0.0, 1.5, 6.0):
                u = np.linspace(0.0, 10.0, 400)
                eh = expected_holding_proxy(st, k, x, u)
                eb = expected_backlog_proxy(st, k, x, u)
                ok &= bool(np.all(np.diff(eh) >= -1e-12))
                ok &= bool(np.all(np.diff(eb) <= 1e-12))
        results.append((f"balancing-monotone[{variant}]", ok))
    return results


SUITES = {
    "theorem1": _suite_theorem1,
    "transform": _suite_transform,
    "oracle": _suite_oracle,
    "balancing-monotone": _suite_balancing_monotone,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    overall = True
    for name in names:
        for label, ok in SUITES[name]():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}")
            overall &= ok
    return 0 if overall else 1


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multinv",
        description="Multi-location inventory control: exact DP, decoupled "
                    "policies, online balancing, and cost-ratio benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sim=False):
        p.add_argument("--instance", help="built-in instance id")
        p.add_argument("--config", help="path to a problem config JSON")
        if sim:
            p.add_argument("--runs", type=int, default=1000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--crn", action="store_true",
                           help="common random numbers across policies")
            p.add_argument("--threads", type=int, default=1)

    p_solve = sub.add_parser("solve", help="exact joint DP")
    common(p_solve)
    p_solve.add_argument("--per-location", action="store_true",
                         help="also solve each single-location problem")
    p_solve.add_argument("--out", default="out")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="cost-ratio heatmap of two policies")
    common(p_cmp, sim=True)
    p_cmp.add_argument("--num", required=True, help="numerator policy spec")
    p_cmp.add_argument("--den", required=True, help="denominator policy spec")
    p_cmp.add_argument("--out", default="out")
    p_cmp.add_argument("--gnuplot", action="store_true",
                       help="also write a gnuplot script for the heatmap")
    p_cmp.set_defaults(func=cmd_compare)
    for p in (p_solve, p_cmp):
        p.add_argument("--horizon", type=int, default=None,
                       help="override the finite horizon length")

    p_bounds = sub.add_parser("bounds", help="envelope fits and ratio bounds")
    common(p_bounds)
    p_bounds.add_argument("--locations", type=int, default=None)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_cfg = sub.add_parser("config", help="export an instance config")
    common(p_cfg)
    p_cfg.add_argument("--out", default=None)
    p_cfg.set_defaults(func=cmd_config)

    p_ver = sub.add_parser("verify", help="run a named property suite")
    p_ver.add_argument("suite", choices=list(SUITES) + ["all"])
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

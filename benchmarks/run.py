"""multinv benchmark: one workload per invocation, result as JSON.

Usage (from the repository root):

    python3 benchmarks/run.py --workload square_sector --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` next to this directory; without it
the command exits with code 2 and prints no result.  With ``--trace 0``
the last stdout line carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced measurement.  The line before
it records the environment, repetition counts and check details.

Times are reported in reference seconds: each timed call runs between two
runs of a fixed calibration loop, and its wall time is scaled by
CALIB_REF_S over theirs.  Setup probes are scaled by the median of all
the run's calibration loops.  On a shared host whose speed swings by up
to 2x within a minute this keeps the figures comparable between runs;
the raw wall times are in the info line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

MIN_REPS = 3
SETUP_PROBES = 5
# Nominal duration of calibrate(): one reference second is the time in
# which the reference machine runs the loop 1 / CALIB_REF_S times.
CALIB_REF_S = 0.04

WARMUP_RULE = (
    "setup_s is the median over fresh interpreters of import multinv + instance "
    "build + DP solve + policy construction (+ filling the balancing partial-sum "
    "lru_cache for every stage), so imports and that cache are paid in every "
    "setup sample. In the benchmark process setup runs once, then one untimed "
    "warm-up call at the default seed; work_s never includes them.")


def load_package():
    """Put the checkout's src/ first on sys.path; exit 2 when it is missing."""
    src = ROOT / "src"
    if not (src / "multinv" / "__init__.py").is_file():
        sys.stderr.write(f"multinv sources not found under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import multinv
    if Path(multinv.__file__).resolve().parent != (src / "multinv").resolve():
        sys.stderr.write(f"imported multinv from {multinv.__file__}, not {src}\n")
        sys.exit(2)


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads_env = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "thread_env": threads_env,
        "warmup_rule": WARMUP_RULE,
        "calib_ref_s": CALIB_REF_S,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def calibrate() -> float:
    """Wall time of a fixed loop shaped like the program's hot code: small
    numpy slices with argmin (the DP's per-state scan), SHA-256 of a
    dict's repr (stream keys and policy tags), small elementwise numpy
    calls (per-run transforms) and elementwise passes over a few thousand
    rows (batched stepping and the balancing bisection)."""
    import numpy as np
    t0 = perf_counter()
    cube = np.arange(343.0).reshape(7, 7, 7)
    grid = np.arange(21.0 ** 3).reshape(21, 21, 21)
    for i in range(750):
        j = i % 14
        int(np.argmin(cube + grid[j:j + 7, j:j + 7, j:j + 7]))
    for i in range(2000):
        hashlib.sha256(repr({"run": i, "levels": [1.0, 2.0]}).encode()).digest()
    row = np.arange(64.0)
    for i in range(1500):
        float(np.maximum(row - i, 0.0).sum())
    rows = np.linspace(0.0, 1.0, 2048)
    acc = np.zeros_like(rows)
    for i in range(2000):
        acc += 0.5 * np.maximum(0.0, rows - i * 0.001)
    return perf_counter() - t0


class HostClock:
    """Wall-clock timer that also samples host speed.

    Every timed call runs between two calibration loops.  A call's
    reference seconds are its wall seconds scaled by those two loops,
    which see the same phase of the host as the call.  ``scale`` uses
    the median of all the run's loops instead; it suits the setup
    probes, which are short and run in another process, so that the
    loops next to one probe predict its speed poorly.
    """

    def __init__(self):
        self.samples = []

    def time(self, fn):
        """Run fn(); return (wall seconds, reference seconds, result)."""
        c0 = calibrate()
        t0 = perf_counter()
        out = fn()
        seconds = perf_counter() - t0
        c1 = calibrate()
        self.samples += [c0, c1]
        return seconds, seconds * CALIB_REF_S / (0.5 * (c0 + c1)), out

    def scale(self) -> float:
        return CALIB_REF_S / statistics.median(self.samples)


def setup_probe_seconds(name: str, seed: int) -> float:
    """Import + setup seconds of one workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_probe(name: str, seed: int):
    t0 = perf_counter()
    load_package()
    import workloads
    workloads.WORKLOADS[name]().setup(seed)
    print(repr(perf_counter() - t0))


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, checks, where):
        for check in checks:
            self.attempted += 1
            if not check.ok:
                self.failures.append(f"{where}: {check.name}: {check.detail}")

    def same(self, name, a, b, where):
        self.attempted += 1
        if a != b:
            self.failures.append(f"{where}: {name}: {a} != {b}")


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_probes: int = SETUP_PROBES, tracer=None):
    """Run one workload; returns (result line dict, info dict)."""
    import tracing
    import workloads

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    checks = Checks()
    clock = HostClock()
    info = {"workload": workload.name, "seed": seed, "sizes": workload.sizes}

    if trace:
        tracer = tracer or tracing.Tracer()
        with tracer.installed():
            wall, ref_s, ctx = clock.time(lambda: workload.setup(seed))
        setup_trace = (*tracer.take(), ref_s / wall)
    else:
        ctx = workload.setup(seed)
    oracle = workload.oracle(ctx)
    ref = reference.get(workload.name)
    ref_sizes_match = ref is not None and ref["sizes"] == workload.sizes

    def check_output(out, where):
        checks.add(workload.check(ctx, oracle, out), where)
        if workload.monte_carlo and ref_sizes_match:
            lo, hi = workloads.REL_SE_BAND
            ratio = out.summary["mc_rel_se"] / ref["mc_rel_se"]
            checks.add([workloads.Check("mc_rel_se_in_band", lo <= ratio <= hi,
                                        f"{ratio:.3f}x the reference")], where)

    # untimed warm-up at the default seed, checked against the reference
    warm_seed = workloads.DEFAULT_SEED if workload.monte_carlo else seed
    warm = workload.work(ctx, warm_seed)
    check_output(warm, "warm-up")
    if warm_seed == workloads.DEFAULT_SEED and ref_sizes_match:
        ref_checks, csv_match = workloads.reference_checks(warm, ref)
        checks.add(ref_checks, "reference")
        info["csv_match"] = csv_match

    kinds = ["plain"]
    if trace:
        kinds.append("traced")
        if workload.name == "square_sector":
            kinds.append("threads2")
    wall = {k: [] for k in kinds}
    times = {k: [] for k in kinds}
    digests = {k: [] for k in kinds}
    rep_traces = []
    # Untraced runs interleave one fresh-interpreter setup probe with each
    # round of calls, so setup and work samples span the same window.
    setup_wall = []
    min_setup = 0 if trace else setup_probes
    t_start = perf_counter()
    while (perf_counter() - t_start < seconds
           or min(len(v) for v in wall.values()) < MIN_REPS
           or len(setup_wall) < min_setup):
        if not trace:
            setup_wall.append(clock.time(
                lambda: setup_probe_seconds(workload.name, seed))[2])
        for kind in kinds:
            threads = 2 if kind == "threads2" else 1
            if kind == "traced":
                with tracer.installed():
                    dt, dt_ref, out = clock.time(lambda: workload.work(ctx, seed))
                rep_traces.append((*tracer.take(), dt_ref / dt, dt))
            else:
                dt, dt_ref, out = clock.time(lambda: workload.work(ctx, seed, threads))
            wall[kind].append(dt)
            times[kind].append(dt_ref)
            digests[kind].append(out.digest)
            check_output(out, f"{kind} rep {len(wall[kind])}")
    for kind in kinds:
        for i, d in enumerate(digests[kind]):
            checks.same("output identical to first plain rep", d, digests["plain"][0],
                        f"{kind} rep {i + 1}")

    work_s = statistics.median(times["plain"])
    info["reps"] = {k: len(v) for k, v in wall.items()}
    info["work_wall_s"] = wall
    info["work_ref_s"] = times
    info["calib_s"] = clock.samples
    info["digests"] = digests
    info["summary"] = out.summary
    if trace:
        metrics = traced_metrics(tracer, setup_trace, rep_traces, workload, ctx, out)
        metrics["trace.overhead_frac"] = (
            statistics.median(times["traced"]) / work_s - 1.0, "1")
        if "threads2" in times:
            metrics["sim.threads2_speedup"] = (
                work_s / statistics.median(times["threads2"]), "1")
        info["absent_symbols"] = tracer.absent
    else:
        info["setup_wall_s"] = setup_wall
        metrics = {
            "setup_s": (statistics.median(setup_wall) * clock.scale(), "s"),
            "work_s": (work_s, "s"),
            "steps_per_s": (workload.steps(ctx) / work_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    info["failures"] = checks.failures
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def traced_metrics(tracer, setup_trace, rep_traces, workload, ctx, out):
    """Per-layer metrics: one traced setup plus the median traced call,
    times in reference seconds."""
    import tracing

    def scaled(stats, counters, factor):
        values = tracing.per_layer_metrics(stats, counters)
        return {k: v * factor if tracing.unit_of(k) == "s" else v
                for k, v in values.items()}

    base = scaled(*setup_trace)
    per_rep = []
    for stats, counters, factor, wall in rep_traces:
        values = scaled(stats, counters, factor)
        values = {k: base[k] + v for k, v in values.items()}
        # share of the call's span covered by the layers' self times
        values["trace.self_sum_frac"] = sum(v[2] for v in stats.values()) / wall
        per_rep.append(values)
    values = {name: statistics.median_low(rep[name] for rep in per_rep)
              for name in per_rep[0]}
    values.update({
        "sim.traj_periods": workload.steps(ctx) if workload.monte_carlo else 0,
        "sim.mc_rel_se": out.summary.get("mc_rel_se", 0.0),
        "sim.threads2_speedup": 0.0,
        "trace.absent_symbols": len(tracer.absent),
    })
    return {name: (value, tracing.unit_of(name)) for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return
    load_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]()
    result, info = measure(workload, args.seed, args.seconds, bool(args.trace))
    info["environment"] = environment()
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

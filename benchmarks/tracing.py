"""Per-layer spans recorded from outside the package.

The tracer patches public (and a few private) names of ``multinv`` in the
namespace where their callers look them up, e.g. ``multinv.sim.
transform_uniform_draws`` (imported into ``sim`` by name) or
``multinv.rng.stream`` (looked up as a module global by
``demand_stream``).  No file of the package is edited; patches are
removed again when the traced block ends.

Each wrapped call is a span.  Spans nest on one stack (traced runs are
single-threaded), so a span's self time is its duration minus the time
covered by the spans it called.  Totals are kept per span name in
memory; nothing is written until the benchmark prints its result.

A target that a later refactor removes is recorded in ``absent`` and
reads as zero calls; it is never an error.
"""

from __future__ import annotations

import importlib
import logging
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("rng", "model", "policies", "balancing", "sim", "dp")

# act_batch spans are named by policy kind; these kinds are reported
# whether or not a workload uses them.
POLICY_KINDS = ("base_stock", "decoupled", "pi_v", "balancing")


def _rows(args, kwargs, out):
    return len(args[2])


def _saturated(args, kwargs, out):
    return int(out[1].sum())


def _state_stages(args, kwargs, out):
    problem = args[0]
    return problem.grid.count ** problem.m * problem.periods


def _den_exact(args, kwargs, out):
    return int(out.den_exact)


# (span name, module, attribute path, counter name, counter function)
TARGETS = (
    ("rng.stream", "multinv.rng", "stream", None, None),
    ("rng.derive_key", "multinv.rng", "derive_key", None, None),
    ("model.transform", "multinv.sim", "transform_uniform_draws", None, None),
    ("model.demand_pmf", "multinv.model", "demand_pmf", None, None),
    ("model.demand_pmf", "multinv.dp", "demand_pmf", None, None),
    ("model.ordering_eval", "multinv.model", "OrderingCost.eval_array", None, None),
    ("model.holding_eval", "multinv.model", "HoldingBacklogCost.eval_batch", None, None),
    ("policies.tag", "multinv.policies", "Policy.tag", None, None),
    ("balancing.order", "multinv.balancing", "balancing_order_batch",
     "balancing.rows", _rows),
    ("balancing.k_order", "multinv.balancing", "holding_cost_K_order_batch",
     "balancing.saturated_states", _saturated),
    ("balancing.probability", "multinv.balancing", "balancing_probability_batch",
     None, None),
    ("dp.solve_joint", "multinv.dp", "solve_joint_dp", "dp.state_stages", _state_stages),
    ("dp.evaluate_exact", "multinv.dp", "evaluate_policy_exact", None, None),
    ("sim.heatmap", "multinv.sim", "ratio_heatmap", "sim.den_exact", _den_exact),
    ("sim.estimate_cost", "multinv.sim", "estimate_cost", None, None),
    ("sim.stepper", "multinv.sim", "_simulate_batch", None, None),
)

# modules whose Policy subclasses get an act_batch span per kind
POLICY_MODULES = ("multinv.policies", "multinv.balancing")

FORCED_P1_LOGGER = "multinv.balancing"


class _ForcedP1Handler(logging.Handler):
    """Counts the states of the 'forcing p = 1' warnings of the
    balancing probability rule (the count is the record's first arg)."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "forcing p = 1" in record.getMessage():
            self.tracer.counters["balancing.forced_p1_states"] += int(record.args[0])


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counters = defaultdict(int)
        self.absent = []
        self._stack = []

    # -- spans -------------------------------------------------------------
    def _wrap(self, name, fn, counter=None, count=None):
        stack = self._stack
        stats = self.stats
        counters = self.counters

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat = stats[name]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
            if counter is not None:
                counters[counter] += count(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self):
        """Return (stats, counters) recorded since the last take, and reset."""
        stats = {k: tuple(v) for k, v in self.stats.items()}
        counters = dict(self.counters)
        self.stats.clear()
        self.counters.clear()
        return stats, counters

    # -- patching ----------------------------------------------------------
    def _resolve(self, module, path):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if attr not in vars(owner):
            return None
        return owner, attr

    def _policy_classes(self):
        """(class, kind) for every Policy subclass defining act_batch."""
        found = []
        policies = importlib.import_module("multinv.policies")
        for module in POLICY_MODULES:
            mod = importlib.import_module(module)
            for obj in vars(mod).values():
                if (isinstance(obj, type) and issubclass(obj, policies.Policy)
                        and obj is not policies.Policy and obj.__module__ == module
                        and "act_batch" in vars(obj)):
                    found.append((obj, obj.kind))
        return found

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        restore = []
        self.absent = []
        for name, module, path, counter, count in self.targets:
            where = self._resolve(module, path)
            if where is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = where
            original = vars(owner)[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget, counter, count))
            else:
                wrapped = self._wrap(name, original, counter, count)
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        kinds = set()
        for cls, kind in self._policy_classes():
            kinds.add(kind)
            original = vars(cls)["act_batch"]
            restore.append((cls, "act_batch", original))
            cls.act_batch = self._wrap(f"policies.act_batch.{kind}", original)
        self.absent += [f"act_batch of policy kind {k}"
                        for k in POLICY_KINDS if k not in kinds]
        handler = _ForcedP1Handler(self)
        log = logging.getLogger(FORCED_P1_LOGGER)
        log.addHandler(handler)
        try:
            yield self
        finally:
            log.removeHandler(handler)
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def unit_of(metric: str) -> str:
    """Times end in _s, ratios and fractions are unitless, the rest count."""
    last = metric.split(".")[1]
    if last.endswith("_s"):
        return "s"
    if last.endswith(("_frac", "_speedup", "_rel_se")):
        return "1"
    return "count"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_metrics(stats: dict, counters: dict) -> dict:
    """The per-layer metric values of one traced block (see README)."""
    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    out = {
        "rng.stream_calls": calls("rng.stream"),
        "rng.stream_s": total("rng.stream"),
        "rng.derive_key_calls": calls("rng.derive_key"),
        "rng.derive_key_s": total("rng.derive_key"),
        "model.transform_calls": calls("model.transform"),
        "model.transform_s": total("model.transform"),
        "model.demand_pmf_calls": calls("model.demand_pmf"),
        "model.ordering_eval_s": total("model.ordering_eval"),
        "model.holding_eval_s": total("model.holding_eval"),
        "policies.tag_calls": calls("policies.tag"),
        "policies.tag_s": total("policies.tag"),
    }
    for kind in POLICY_KINDS:
        out[f"policies.act_batch_calls.{kind}"] = calls(f"policies.act_batch.{kind}")
        out[f"policies.act_batch_s.{kind}"] = total(f"policies.act_batch.{kind}")
    out.update({
        "balancing.order_s": total("balancing.order"),
        "balancing.k_order_s": total("balancing.k_order"),
        "balancing.probability_s": total("balancing.probability"),
        "balancing.rows": counters.get("balancing.rows", 0),
        "balancing.saturated_states": counters.get("balancing.saturated_states", 0),
        "balancing.forced_p1_states": counters.get("balancing.forced_p1_states", 0),
        "dp.solve_joint_calls": calls("dp.solve_joint"),
        "dp.solve_joint_s": total("dp.solve_joint"),
        "dp.evaluate_exact_s": total("dp.evaluate_exact"),
        "dp.state_stages": counters.get("dp.state_stages", 0),
        "sim.heatmap_s": total("sim.heatmap"),
        "sim.estimate_cost_s": total("sim.estimate_cost"),
        "sim.stepper_s": total("sim.stepper"),
        "sim.den_exact": counters.get("sim.den_exact", 0),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((v[2] for k, v in stats.items()
                                      if layer_of(k) == layer), 0.0)
    return out

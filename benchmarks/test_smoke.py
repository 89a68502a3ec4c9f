"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that traced and untraced outputs are byte-identical, that a
missing wrapped symbol is recorded as absent, and that the command
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_package()

import multinv.balancing  # noqa: E402
import multinv.rng  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(workload, trace, tracer=None):
    return run.measure(workload, seed=7, seconds=0, trace=trace,
                       setup_probes=1, tracer=tracer)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, trace):
    result, info = _measure(workloads.WORKLOADS[name]().tiny(), trace)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert result["correct"], info["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        assert info["digests"]["traced"] == info["digests"]["plain"]
        assert len(set(info["digests"]["plain"])) == 1
        # no patch outlives the traced block
        assert not hasattr(multinv.rng.stream, "__wrapped__")


def test_layer_self_times_cover_the_traced_work():
    result, _ = _measure(workloads.SquareSector().tiny(), True)
    assert 0.9 <= result["metrics"]["trace.self_sum_frac"]["value"] <= 1.0 + 1e-9


def test_missing_symbol_records_as_absent(monkeypatch):
    monkeypatch.delattr(multinv.balancing, "balancing_probability_batch")
    bogus = ("sim.bogus", "multinv.sim", "no_such_function", None, None)
    tracer = tracing.Tracer(tracing.TARGETS + (bogus,))
    result, info = _measure(workloads.SquareSector().tiny(), True, tracer)
    assert info["absent_symbols"] == ["multinv.balancing.balancing_probability_batch",
                                      "multinv.sim.no_such_function"]
    assert result["metrics"]["trace.absent_symbols"]["value"] == 2
    assert result["metrics"]["balancing.probability_s"]["value"] == 0
    assert result["correct"], info["failures"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "square_sector",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit, and that after a traced run every
rebound llgeo attribute is the original object again, so an untraced run
never times a wrapper.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import llgeo  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END, PER_LAYER = run.declared_metrics()

# one layer metric per workload that is non-zero only if the wrappers saw calls
EXERCISED = {
    "evolve": "dynamics.step.midpoint_2d.ms",
    "survey": "calculus.so3_log.cells",
    "bracket": "calculus.functional_evals_per_cell",
    "cli_pipeline": "cli.simulate.s",
}


def public_bindings():
    return {key: obj for key, obj in tracer.bound_objects().items()
            if not key[1].startswith("__")}


def test_install_rebinds_cross_module_names_and_uninstall_restores():
    before = public_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for namespace, attr in (("momenta", "partial"), ("cocycle", "momentum_P_general"),
                                ("dynamics", "step"), ("calculus", "so3_log")):
            module = getattr(llgeo, namespace)
            assert getattr(module, attr) is not before[(module.__name__, attr)]
        assert llgeo.Grid.boundary_mask is not before[("llgeo.grid.Grid", "boundary_mask")]
    finally:
        t.uninstall()
    after = public_bindings()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, record = run.benchmark(name, 0, 0, 0, scale="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workloads.operations(name))
    assert set(result["metrics"]) == set(END_TO_END)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[key]
        assert metric["value"] > 0, key
    assert record["seed"] == 0 and record["workload"] == name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_restores_llgeo(name):
    before = public_bindings()
    result, _ = run.benchmark(name, 0, 0, 1, scale="tiny")
    after = public_bindings()
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[key]
    assert result["metrics"][EXERCISED[name]]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert [key for key in before if after.get(key) is not before[key]] == []

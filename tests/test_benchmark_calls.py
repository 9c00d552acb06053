"""The library calls of the benchmark workloads, run at their tiny sizes.

perfbench/workloads.py calls llgeo through module attributes.  Running
every operation of the in-process workloads here makes a change that
deletes or breaks a name the benchmark calls fail the tests, not a
benchmark run.  workloads.py is imported as it is, never edited.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name, run", [
    ("evolve", lambda inputs, op: workloads.evolve_leg(inputs, op, "tiny")),
    ("survey", workloads.survey_snapshot),
    ("bracket", workloads.bracket_verdict),
], ids=["evolve", "survey", "bracket"])
def test_every_workload_operation_runs_at_tiny_scale(name, run):
    inputs = workloads.make_inputs(name, 0, "tiny")
    for op in workloads.operations(name):
        assert isinstance(run(inputs, op), workloads.Outcome), (name, op)

"""The library calls of the benchmark workloads, run at their tiny sizes.

perfbench/workloads.py calls llgeo through module attributes.  Running
every operation of the in-process workloads here makes a change that
deletes or breaks a name the benchmark calls fail the tests, not a
benchmark run.  workloads.py is imported as it is, never edited.
"""

import sys
from pathlib import Path

import pytest

import llgeo.cocycle
import llgeo.momenta

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


@pytest.mark.parametrize("snap, passes", [("s2d", 2), ("s3d", 2), ("bp", 2)])
def test_each_survey_snapshot_shares_one_moments_pass(monkeypatch, snap, passes):
    # make_report, the momenta of the route gap, P_general and the direct
    # cocycle all read the moment tensor that the first moments pass keeps
    # on the frozen snapshot; the second pass is the pairing cocycle's (s2d,
    # bp) or the curl form's (s3d).  Counted through both bindings of the
    # derivative pass: momenta's and the one cocycle imports by name.
    inputs = workloads.make_inputs("survey", 0, "tiny")
    gradients, calls = llgeo.momenta._gradients, []

    def counted(n, out=None):
        calls.append(n)
        return gradients(n, out)

    for module in (llgeo.momenta, llgeo.cocycle):
        monkeypatch.setattr(module, "_gradients", counted)
    workloads.survey_snapshot(inputs, snap)
    assert len(calls) == passes

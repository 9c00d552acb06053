"""The library calls of the benchmark workloads, run at their tiny sizes.

perfbench/workloads.py calls llgeo through module attributes.  Running
every operation of the in-process workloads here makes a change that
deletes or breaks a name the benchmark calls fail the tests, not a
benchmark run.  workloads.py is imported as it is, never edited.
"""

import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("snap, passes", [("s2d", 1), ("s3d", 2), ("bp", 1)])
def test_each_survey_snapshot_shares_one_moments_pass(monkeypatch, snap, passes):
    # make_report, the momenta of the route gap and P_general against the
    # curl form all read moments, which keeps (deg, P, L) on the frozen
    # snapshot; the curl form (s3d) makes the second pass.  Counted through
    # the derivative pass that moments and momentum_P_cross look up in momenta.
    inputs = workloads.make_inputs("survey", 0, "tiny")
    gradients, calls = llgeo.momenta._gradients, []

    def counted(n, out=None):
        calls.append(n)
        return gradients(n, out)

    monkeypatch.setattr(llgeo.momenta, "_gradients", counted)
    workloads.survey_snapshot(inputs, snap)
    assert len(calls) == passes

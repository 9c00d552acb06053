"""The narrative demos run end to end and print their tables.

Every demos/*.py is collected, so a new demo is tested without a list to
update.  Demo 02 is left out: its 1000-step run and the 2000-step run at
dt/2 take about 2.3 s on a 2-core machine, a sixth of the whole suite.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = {"02_conserved_quantities.py"}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")
                                        if p.name not in SLOW))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()

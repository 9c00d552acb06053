"""The narrative demos run end to end and print their tables.

Demo 02 is left out: its 1000-step trajectory alone takes about 9 s on a
2-core machine, a third of the whole suite.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_soliton_and_degree.py",
    "03_momentum_three_ways.py",
    "04_gauge_dichotomy.py",
    "05_cocycle_and_bracket.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()

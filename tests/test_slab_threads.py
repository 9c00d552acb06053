"""Bits that do not depend on the core count.

The stepper splits a grid of at least fields.SLAB_CELLS cells into as many
axis-0 slabs as it may use CPUs, at most fields.MAX_SLABS.  Two child
processes run `llgeo simulate` on one 48^3 snapshot, RK4 and the midpoint:
one pins itself to a single CPU with os.sched_setaffinity before it steps,
the other keeps every CPU it was given.  The CSV and .llgf bytes must be
equal.  On a host that gives this process one CPU both children step on one
slab, and the test passes trivially.  Importing llgeo starts no thread and
does not import concurrent.futures: the slab threads start inside a step.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from llgeo.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import os
import sys
from llgeo import Grid
from llgeo.cli import main
from llgeo.fields import _slab_count

snapshot, out, pin = sys.argv[1:]
if pin == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
print(_slab_count(Grid.centered((48,) * 3, 8.0)))
for scheme in ("rk4", "midpoint"):
    code = main(["simulate", "--in", snapshot, "--out", f"{out}-{scheme}", "--scheme", scheme,
                 "--dt", "2e-3", "--steps", "3", "--report-every", "2", "--a", "0.5"])
    if code:
        sys.exit(code)
"""


def _child(snapshot, out, pin):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(snapshot), str(out), pin],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    slabs = int(done.stdout.splitlines()[0])
    return slabs, [Path(f"{out}-{scheme}{ext}").read_bytes()
                   for scheme in ("rk4", "midpoint") for ext in (".csv", ".llgf")]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_simulate_does_not_depend_on_the_core_count(tmp_path, capsys):
    snapshot = tmp_path / "random.llgf"
    assert main(["init", "--kind", "random", "--grid", "48x48x48", "--box", "8", "--seed", "4",
                 "--out", str(snapshot)]) == 0
    capsys.readouterr()
    (one, pinned), (many, free) = (_child(snapshot, tmp_path / pin, pin) for pin in ("1", "all"))
    assert one == 1 and many == min(2, len(os.sched_getaffinity(0)))
    assert pinned == free


def test_importing_llgeo_starts_no_thread_and_no_executor():
    code = ("import sys, threading, llgeo.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "False"]

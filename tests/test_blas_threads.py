"""Bits that do not depend on the BLAS thread count.

OpenBLAS splits a long dot product across its threads, so a reduction that
goes through BLAS rounds differently at different thread counts.  Two child
processes, at OPENBLAS_NUM_THREADS=1 and =2 (read when numpy loads), compute
the momenta and both cocycle routes of one 48^3 field and run `llgeo
diagnose` on one snapshot; the bytes and the stdout must be equal.
"""

import os
import subprocess
import sys
from pathlib import Path

from llgeo.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
import numpy as np
from llgeo import (EuclideanAlgebraElement, Grid, lift_psi, make_random_smooth, moments,
                   momentum_JH, reduced_momentum_lift)
from llgeo.cli import main
from llgeo.cocycle import cocycle_direct, cocycle_via_pairing

n = make_random_smooth(Grid.centered((48,) * 3, 8.0), 4)
e1 = EuclideanAlgebraElement(3, (0.3, -1.2, 0.7), (1.0, 0.5, -0.4))
e2 = EuclideanAlgebraElement(3, (-0.8, 0.1, 0.9), (-0.2, 1.1, 0.6))
_, P, L = moments(n)
values = [P, L, *reduced_momentum_lift(n), *momentum_JH(lift_psi(n), n),
          cocycle_direct(n, e1, e2), cocycle_via_pairing(n, e1, e2)]
print(b"".join(np.ascontiguousarray(v, float).tobytes() for v in values).hex())
sys.exit(main(["diagnose", "--in", sys.argv[1]]))
"""


def _child(threads, snapshot):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", CHILD, str(snapshot)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_momenta_and_diagnose_do_not_depend_on_the_blas_thread_count(tmp_path, capsys):
    snapshot = tmp_path / "random.llgf"
    assert main(["init", "--kind", "random", "--grid", "48x48x48", "--box", "8", "--seed", "4",
                 "--out", str(snapshot)]) == 0
    capsys.readouterr()
    one, two = (_child(threads, snapshot) for threads in (1, 2))
    assert one.splitlines()[1:] and one.splitlines()[0] == two.splitlines()[0]
    assert one == two

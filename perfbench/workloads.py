"""The four benchmark workloads: their inputs, their operations and the
checks each operation's output must pass.

Every workload is a fixed list of operation kinds.  An operation is one
closed-loop call into llgeo (one simulation leg, one snapshot's diagnostic
suite, one bracket verdict, one CLI chain); the next starts only after the
previous one returns.  `make_inputs(name, seed, scale)` builds everything
an operation needs from the seed; only those generated fields reach llgeo.

Library calls go through module attributes (``llgeo.momenta.lift_psi``),
never through names bound at import, so the wrappers the traced run
installs see every call.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import llgeo
import llgeo.cocycle
import llgeo.dynamics
import llgeo.generators
import llgeo.grid
import llgeo.momenta

WORKLOADS = ("evolve", "survey", "bracket", "cli_pipeline")

# Tolerances of the checks, each taken from the repository's own gates.
NORM_TOL = 1e-12          # evolve: unit norm kept by every stepper
DEG_CHANGE_TOL = 1e-2     # evolve: acceptance criterion 6
ENERGY_DRIFT_TOL = 1e-4   # evolve: acceptance criterion 7
BRACKET_TOL = 0.03        # bracket: the CLI's bracket-check default
LIFT_TOL = 0.02           # survey: the CLI's lift-check default
COCYCLE_TOL = 0.01        # survey: criterion 2 and the CLI cocycle default
P_CROSS_TOL = 1e-6        # survey: criterion 5
DEG0_TOL = 1e-2           # survey: degree of a degree-0 field, criterion 6

E1 = llgeo.EuclideanAlgebraElement.translation((1.0, 0.0))
E2 = llgeo.EuclideanAlgebraElement.translation((0.0, 1.0))

# Grid sizes per scale.  "full" is the benchmark; "tiny" exercises the same
# code paths for the smoke test, on grids just fine enough (and, for the
# bracket, a soliton just wide enough) to pass the same checks.
SIZES = {
    "full": {
        "evolve": {"a": 128, "a_steps": 300, "a_every": 100,
                   "b": 96, "b_steps": 30, "c": 48, "c_steps": 20},
        "survey": {"s2d": 128, "s3d": 64, "bp": 96},
        "bracket": {"n": 64, "lam": 1.5},
        "cli_pipeline": {"n": 96, "steps": 200},
    },
    "tiny": {
        "evolve": {"a": 32, "a_steps": 6, "a_every": 2,
                   "b": 32, "b_steps": 3, "c": 16, "c_steps": 2},
        "survey": {"s2d": 72, "s3d": 16, "bp": 48},
        "bracket": {"n": 36, "lam": 3.0},
        "cli_pipeline": {"n": 32, "steps": 3},
    },
}


class CheckFailed(Exception):
    """An operation returned, but its output failed a benchmark check."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one operation reports besides its wall time."""

    cell_steps: int = 0          # cells x steps it integrated
    simulate_s: float = 0.0      # time spent inside simulate
    accuracy: float = 0.0        # the workload's accuracy figure for this op


def stable_dt(grid, a):
    """dt = 1/rho with rho = 4 sum 1/h_i^2 + |a|, so dt*rho = 1: inside both
    RK4's 2*sqrt(2) limit and the midpoint contraction limit dt*rho/2 < 1."""
    rho = 4.0 * sum(1.0 / h ** 2 for h in grid.spacing) + abs(a)
    return 1.0 / rho


def relative_gap(a, b):
    """Norm of a - b relative to the larger norm (acceptance criterion 5)."""
    a = np.asarray(a, float).ravel()
    b = np.asarray(b, float).ravel()
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / scale)


# ---------------------------------------------------------------- inputs

def make_inputs(name, seed, scale="full"):
    """Generate the fields a workload runs on.  Returns a dict."""
    size = SIZES[scale][name]
    gen = llgeo.generators
    centered = llgeo.grid.Grid.centered
    if name == "evolve":
        return {
            "a": gen.make_bp_soliton(centered((size["a"],) * 2, 16.0), 1, 1.5, 6.0),
            "b": gen.make_bp_soliton(centered((size["b"],) * 2, 16.0), 1, 1.5, 6.0),
            "c": gen.make_random_smooth(centered((size["c"],) * 3, 8.0), seed),
        }
    if name == "survey":
        g2 = centered((size["s2d"],) * 2, 16.0)
        return {
            "s2d": gen.make_random_smooth(g2, seed, amplitude=1.8),
            "alpha": gen.make_gauge_bump_alpha(g2),
            "s3d": gen.make_random_smooth(centered((size["s3d"],) * 3, 12.0), seed,
                                          amplitude=1.5),
            "bp": gen.make_bp_soliton(centered((size["bp"],) * 2, 16.0), 2, 1.5, 6.0),
        }
    if name == "bracket":
        g = centered((size["n"],) * 2, 16.0)
        return {m: gen.make_bp_soliton(g, m, size["lam"], 6.0) for m in (1, -1)}
    if name == "cli_pipeline":
        # the CLI generates its own fields from these arguments
        return {"n": size["n"], "steps": size["steps"], "seed": seed}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- evolve

EVOLVE_LEGS = ("a", "b", "c")


def evolve_leg(inputs, leg, scale="full"):
    size = SIZES[scale]["evolve"]
    n0 = inputs[leg]
    scheme = "midpoint" if leg == "b" else "rk4_project"
    steps = size[f"{leg}_steps"]
    every = size["a_every"] if leg == "a" else steps
    params = llgeo.dynamics.EnergyParams(a=0.5)
    cfg = llgeo.dynamics.SimConfig(dt=stable_dt(n0.grid, params.a), steps=steps,
                                   scheme=scheme, report_every=every, params=params)
    t0 = perf_counter()
    reports, final = llgeo.dynamics.simulate(n0, cfg)
    simulate_s = perf_counter() - t0

    first, last = reports[0], reports[-1]
    worst_norm = max(r.norm_dev for r in reports)
    require(worst_norm <= NORM_TOL, f"leg {leg}: norm_dev {worst_norm:.3e} > {NORM_TOL:g}")
    if first.deg is not None:
        change = abs(last.deg - first.deg)
        require(change < DEG_CHANGE_TOL, f"leg {leg}: degree moved by {change:.3e}")
    drift = abs(last.energy / first.energy - 1.0)
    require(drift < ENERGY_DRIFT_TOL, f"leg {leg}: |dE/E| {drift:.3e} >= {ENERGY_DRIFT_TOL:g}")
    require(np.isfinite(final.values).all(), f"leg {leg}: non-finite field")
    return Outcome(cell_steps=int(np.prod(n0.grid.dims)) * steps,
                   simulate_s=simulate_s, accuracy=drift)


# ---------------------------------------------------------------- survey

SURVEY_SNAPSHOTS = ("s2d", "s3d", "bp")


def _finite_report(rep, what):
    values = [rep.energy, rep.N, rep.norm_dev]
    values += [] if rep.P is None else list(rep.P)
    values += [] if rep.L is None else list(np.ravel(rep.L))
    require(np.isfinite(values).all(), f"{what}: non-finite report entry")


def _route_gap(n):
    """Worst pairwise relative gap among the three momentum routes."""
    m = llgeo.momenta
    routes = (
        m.reduced_momentum_lift(n),
        m.momentum_JH(m.lift_psi(n), n),
        (m.rotational_momentum(n), m.momentum_P_general(n)),
    )
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            for slot in range(2):
                worst = max(worst, relative_gap(routes[i][slot], routes[j][slot]))
    return worst


def _cocycle_pair(n):
    c = llgeo.cocycle
    return c.cocycle_direct(n, E1, E2), c.cocycle_via_pairing(n, E1, E2)


def survey_snapshot(inputs, snap):
    n = inputs[snap]
    rep = llgeo.dynamics.make_report(n, 0.0)
    _finite_report(rep, snap)
    gap = 0.0
    if snap == "s2d":
        require(abs(rep.deg) < DEG0_TOL, f"s2d: degree {rep.deg:.3e} of a degree-0 field")
        gap = _route_gap(n)
        lift = llgeo.momenta.check_lift_identity(n)
        require(lift <= LIFT_TOL, f"s2d: lift identity residual {lift:.3e} > {LIFT_TOL:g}")
        direct, paired = _cocycle_pair(n)
        # the cocycle of a degree-0 field is near zero, so the two routes are
        # compared on the scale 4*pi of a unit-degree field
        require(abs(direct - paired) <= COCYCLE_TOL * 4.0 * np.pi,
                f"s2d: cocycle routes differ by {abs(direct - paired):.3e}")
        res = llgeo.momenta.gauge_invariance_residual(n, inputs["alpha"])
        require(np.isfinite(res), "s2d: non-finite gauge residual")
    elif snap == "s3d":
        gap = _route_gap(n)
        cross_gap = relative_gap(llgeo.momenta.momentum_P_cross(n),
                                 llgeo.momenta.momentum_P_general(n))
        require(cross_gap < P_CROSS_TOL, f"s3d: P_cross vs P_general {cross_gap:.3e}")
    else:
        require(round(rep.deg) == 2, f"bp: degree {rep.deg:.4f} is not near 2")
        direct, paired = _cocycle_pair(n)
        target = -4.0 * np.pi * rep.deg   # omega0(e_x, e_y) = 1
        require(abs(direct - target) < COCYCLE_TOL * abs(target),
                f"bp: cocycle {direct:.6g} vs -4pi*deg {target:.6g}")
        require(abs(direct - paired) < COCYCLE_TOL * abs(direct),
                f"bp: cocycle routes {direct:.6g} vs {paired:.6g}")
    require(np.isfinite(gap), f"{snap}: non-finite route gap")
    return Outcome(accuracy=gap)


# ---------------------------------------------------------------- bracket

BRACKET_CHARGES = (1, -1)


def bracket_verdict(inputs, m):
    n = inputs[m]
    bracket, fourpi_deg = llgeo.cocycle.check_px_py_bracket(n)
    rel = abs(bracket - fourpi_deg) / abs(fourpi_deg)
    require(round(fourpi_deg / (4.0 * np.pi)) == m, f"m={m}: degree {fourpi_deg / (4 * np.pi):.4f}")
    require(rel <= BRACKET_TOL, f"m={m}: bracket rel err {rel:.4f} > {BRACKET_TOL:g}")
    return Outcome(accuracy=rel)


# ---------------------------------------------------------------- cli_pipeline

# The random chain leaves out `cocycle`: on a degree-0 field the CLI's
# relative verdict divides by a near-zero cocycle and FAILs at about half
# the seeds (see README.md, "Defects found while sizing").
CLI_CHAINS = ("bp", "random")


def cli_chain_argvs(chain, n, steps, seed):
    """The subcommands of one chain, in order, as argv lists."""
    grid = f"{n}x{n}"   # passed explicitly: the default grid string fails
    kind = ["--kind", "bp", "--m", "1"] if chain == "bp" else ["--kind", "random", "--seed", str(seed)]
    init = f"{chain}.llgf"
    run = f"run_{chain}"
    argvs = [
        ["init", *kind, "--grid", grid, "--box", "16", "--out", init],
        ["simulate", "--in", init, "--out", run, "--steps", str(steps),
         "--report-every", "1", "--a", "0.5"],
        ["diagnose", "--in", run + ".llgf"],
    ]
    if chain == "bp":
        argvs.append(["cocycle", "--in", run + ".llgf", "--e1", "0,1,0", "--e2", "0,0,1"])
    else:
        argvs.append(["lift-check", "--in", run + ".llgf"])
    return argvs


def _kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key] = value
    return pairs


def check_cli_output(argv, code, stdout, steps):
    """Exit code, verdict and the key outputs of one CLI subcommand."""
    command = argv[0]
    require(code == 0, f"llgeo {command} exited {code}")
    out = _kv(stdout)
    if command == "init":
        require(int(out["CELLS"]) > 0, "init: no cells")
    elif command == "simulate":
        require(int(out["REPORTS"]) == steps + 1, f"simulate: {out['REPORTS']} reports")
    elif command == "diagnose":
        require("norm_dev" in stdout, "diagnose: no report row")
    else:
        lines = stdout.split()
        require("PASS" in lines and "FAIL" not in lines, f"{command}: no PASS verdict")


def cli_chain(inputs, chain, workdir, command_prefix, env):
    """Run one chain of CLI subprocesses, one at a time, in workdir.

    command_prefix is the interpreter invocation (`python3 -m llgeo.cli`, or
    the tracing launcher).
    """
    argvs = cli_chain_argvs(chain, inputs["n"], inputs["steps"], inputs["seed"])
    for argv in argvs:
        proc = subprocess.run(command_prefix + argv, cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        check_cli_output(argv, proc.returncode, proc.stdout, inputs["steps"])
    csv_path = os.path.join(workdir, f"run_{chain}.csv")
    with open(csv_path) as fh:
        rows = fh.read().splitlines()
    require(len(rows) == inputs["steps"] + 2, f"{chain}: csv has {len(rows)} lines")
    return Outcome()


# ---------------------------------------------------------------- dispatch

def operations(name):
    """The operation kinds of a workload, in the order a pass runs them."""
    return {
        "evolve": EVOLVE_LEGS,
        "survey": SURVEY_SNAPSHOTS,
        "bracket": BRACKET_CHARGES,
        "cli_pipeline": CLI_CHAINS,
    }[name]

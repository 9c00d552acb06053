import dataclasses
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from llgeo import (
    ConvergenceError,
    EnergyParams,
    Grid,
    K_AXIS,
    NumericsError,
    SimConfig,
    SpinField,
    energy,
    make_bp_soliton,
    make_constant,
    make_radial_profile,
    make_random_smooth,
    simulate,
    step,
)
from llgeo import EuclideanAlgebraElement, calculus, cocycle, fields, momenta
from llgeo.calculus import cross3, integrate
from llgeo.dynamics import (
    _effective_field,
    _Workspace,
    make_report,
)
from llgeo.fields import _is_planar

import allocating_report
import allocating_stepper
import so3_oracle
from conftest import peak_bytes, relative_gap, tangent_project
from fd_oracle import functional_derivative
from test_generators import profile_bump


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(a=np.inf)
    EnergyParams(a=-0.5)  # negative coupling is legal


def test_energy_vacuum_is_zero():
    g = Grid.centered((24, 24), 8.0)
    n = make_constant(g, (0, 0, -1))
    assert energy(n, EnergyParams(a=0.0)) == 0.0
    assert energy(n, EnergyParams(a=1.0)) == 0.0


def test_energy_rejects_non_decaying():
    g = Grid.centered((24, 24), 8.0)
    n = make_constant(g, (1, 0, 0))
    with pytest.raises(ValueError):
        energy(n)


@pytest.mark.parametrize("seed", [3, 4])
def test_energy_near_the_vacuum_matches_an_exactly_summed_reference(seed):
    # the anisotropy density n.n - n_z^2 cancelled near n = -k: 9.5e-11 and 5.7e-11 off here
    n = make_random_smooth(Grid.centered((64, 64), 16.0), seed=seed, amplitude=1e-3)
    v, g, a = n.values, n.grid, 0.5
    exch = sum(0.5 * math.fsum(((np.diff(v, axis=axis) / h) ** 2).ravel())
               for axis, h in enumerate(g.spacing))
    aniso = 0.5 * a * math.fsum((v[..., 0] ** 2 + v[..., 1] ** 2).ravel())
    want = (exch + aniso) * g.cell_volume
    assert abs(energy(n, EnergyParams(a=a)) - want) <= 1e-14 * want


def test_bp_exchange_energy_harmonic_map_law():
    # On the pure-soliton disk (inside the blend) the exchange energy obeys
    # the degree-1 harmonic-map law: E(r<R) = 4*pi * R^2/(lam^2+R^2).  The
    # compact-support blend annulus necessarily carries extra exchange energy
    # (capacity ~ 4*pi*lam/cutoff), so the 4*pi comparison is made on the
    # analytic region and the whole-field energy is checked against the
    # topological lower bound.
    from llgeo import degree, partial

    lam, cutoff = 1.0, 6.0
    g = Grid.centered((192, 192), 20.0)
    n = make_bp_soliton(g, 1, lam, cutoff)
    dens = 0.5 * sum(
        (partial(n.values, g, i) ** 2).sum(axis=-1) for i in range(2)
    )
    R = cutoff - lam
    core = g.radius() < R
    e_core = float((dens * core).sum() * g.cell_volume)
    exact = 4.0 * np.pi * R ** 2 / (lam ** 2 + R ** 2)
    assert abs(e_core - exact) / exact < 0.03

    e_total = energy(n, EnergyParams(a=0.0))
    assert e_total > 4.0 * np.pi * degree(n) * 0.999  # Bogomolny bound


def test_radial_energy_positive_and_monotone_in_support():
    g = Grid.centered((96, 96), 16.0)
    params = EnergyParams(a=1.0)
    e_wide = energy(make_radial_profile(g, profile_bump(1.0, 5.0)), params)
    e_narrow = energy(make_radial_profile(g, profile_bump(1.0, 3.0)), params)
    assert e_wide > e_narrow > 0.0


def test_variational_derivative_vacuum_and_constant():
    g = Grid.centered((24, 24), 8.0)
    params = EnergyParams(a=1.0)
    n = make_constant(g, (0, 0, -1))
    assert np.abs(allocating_stepper.variational_derivative_energy(n, params)).max() == 0.0

    v = np.array([0.6, 0.0, 0.8])
    m = make_constant(g, v)
    expected = 1.0 * (v - (v @ K_AXIS) * K_AXIS)
    out = allocating_stepper.variational_derivative_energy(m, params)
    assert np.abs(out - expected).max() < 1e-14


def test_variational_derivative_matches_functional_oracle():
    g = Grid.centered((24, 24), 16.0)
    n = make_random_smooth(g, seed=5, amplitude=1.5)
    params = EnergyParams(a=0.7)
    analytic = tangent_project(allocating_stepper.variational_derivative_energy(n, params),
                               n.values)
    oracle = tangent_project(
        functional_derivative(lambda f: energy(f, params), n, step=1e-5), n.values
    )
    assert relative_gap(analytic, oracle) < 1e-5


def test_ll_rhs_vacuum_equilibrium():
    g = Grid.centered((24, 24), 8.0)
    n = make_constant(g, (0, 0, -1))
    params = EnergyParams(a=1.0)
    assert np.abs(allocating_stepper.ll_rhs(n, params)).max() == 0.0
    for scheme in ("rk4_project", "midpoint"):
        cfg = SimConfig(dt=1e-2, steps=1, scheme=scheme, params=params)
        assert np.array_equal(step(n, cfg).values, n.values)


def test_ll_rhs_constant_is_fixed_point_without_anisotropy():
    g = Grid.centered((24, 24), 8.0)
    n = make_constant(g, (1.0, 0.0, 0.0))
    params = EnergyParams(a=0.0)
    assert np.abs(allocating_stepper.ll_rhs(n, params)).max() == 0.0
    for scheme in ("rk4_project", "midpoint"):
        cfg = SimConfig(dt=1e-2, steps=1, scheme=scheme, params=params)
        assert np.array_equal(step(n, cfg).values, n.values)


def test_ll_rhs_uniform_precession_rate():
    g = Grid.centered((24, 24), 8.0)
    theta = 0.7
    a = 1.3
    n = make_constant(g, (np.sin(theta), 0.0, np.cos(theta)))
    rhs = allocating_stepper.ll_rhs(n, EnergyParams(a=a))
    speed = np.linalg.norm(rhs, axis=-1)
    assert np.abs(speed - abs(a * np.cos(theta) * np.sin(theta))).max() < 1e-13
    # one step turns every vector about k by -a cos(theta) dt at fixed
    # latitude, up to the local errors O((a dt)^5) of RK4 and O((a dt)^3) of
    # the midpoint rule
    dt = 1e-3
    for scheme, tol in (("rk4_project", 1e-13), ("midpoint", 1e-10)):
        out = step(n, SimConfig(dt=dt, steps=1, scheme=scheme, params=EnergyParams(a=a))).values
        turn = np.arctan2(out[..., 1], out[..., 0])
        assert np.abs(turn + a * np.cos(theta) * dt).max() < tol
        assert np.abs(out[..., 2] - np.cos(theta)).max() < 1e-15


def test_ll_rhs_tangency_and_energy_orthogonality():
    g = Grid.centered((48, 48), 16.0)
    n = make_random_smooth(g, seed=8, amplitude=1.6)
    params = EnergyParams(a=0.5)
    rhs = allocating_stepper.ll_rhs(n, params)
    ncells = float(np.prod(g.dims))
    assert integrate(np.abs(np.einsum("...i,...i->...", n.values, rhs)), g) < 1e-10 * ncells
    de = allocating_stepper.variational_derivative_energy(n, params)
    pairing = integrate(np.einsum("...i,...i->...", de, rhs), g)
    scale = integrate((de * de).sum(axis=-1), g)
    assert abs(pairing) < 1e-10 * max(scale, 1.0)


def test_step_keeps_equilibrium_bitwise():
    g = Grid.centered((24, 24), 8.0)
    n = make_constant(g, (0, 0, -1))
    cfg = SimConfig(dt=1e-2, steps=1, params=EnergyParams(a=1.0))
    out = step(n, cfg)
    assert np.array_equal(out.values, n.values)


def test_step_uniform_precession_latitude():
    g = Grid.centered((16, 16), 8.0)
    theta = 0.9
    n = make_constant(g, (np.sin(theta), 0.0, np.cos(theta)))
    cfg = SimConfig(dt=1e-3, steps=1, params=EnergyParams(a=1.0))
    cur = n
    for _ in range(1000):
        cur = step(cur, cfg)
    assert np.abs(cur.values[..., 2] - np.cos(theta)).max() < 1e-10
    assert cur.norm_deviation() < 1e-12


def test_rk4_step_refuses_dt_beyond_stability_limit():
    g = Grid.centered((16, 16), 8.0)  # rho = 4 * (4 + 4) + |a| = 33
    n = make_random_smooth(g, seed=1)
    params = EnergyParams(a=-1.0)
    dt_max = 2.0 * np.sqrt(2.0) / 33.0
    with pytest.raises(ValueError, match=r"dt\*rho = 2\.828"):
        step(n, SimConfig(dt=dt_max * (1 + 1e-9), steps=1, params=params))
    out = step(n, SimConfig(dt=dt_max * (1 - 1e-9), steps=1, params=params))
    assert np.isfinite(out.values).all()


def test_step_preserves_boundary_layer_exactly():
    g = Grid.centered((48, 48), 16.0)
    n = make_random_smooth(g, seed=3, amplitude=1.5)
    mask = g.boundary_mask()
    for scheme in ("rk4_project", "midpoint"):
        cfg = SimConfig(dt=1e-3, steps=1, scheme=scheme, params=EnergyParams(a=0.4))
        out = step(n, cfg)
        assert np.array_equal(out.values[mask], n.values[mask])
        out.check_invariants()


def test_midpoint_norm_preservation():
    g = Grid.centered((32, 32), 12.0)
    n = make_random_smooth(g, seed=4, amplitude=1.5)
    cfg = SimConfig(dt=1e-3, steps=1, scheme="midpoint", params=EnergyParams(a=0.5))
    cur = n
    for _ in range(50):
        cur = step(cur, cfg)
    assert cur.norm_deviation() < 1e-9


def _poison(monkeypatch, after, cell=(5, 5), value=lambda count: np.nan):
    """Make _effective_field write value(count) into cell on each of its
    calls past the first `after` that reach the cell's row (one per phase,
    whatever the slab count), count being the number of those calls so far;
    returns that count."""
    import llgeo.dynamics as dyn

    calls = {"count": 0}
    true_field = dyn._effective_field

    def poisoned(values, grid, a, out, scratch, rows=slice(None)):
        out = true_field(values, grid, a, out, scratch, rows)
        if cell[0] in range(*rows.indices(grid.dims[0])):
            calls["count"] += 1
            if calls["count"] > after:
                out[cell] = value(calls["count"])
        return out

    monkeypatch.setattr(dyn, "_effective_field", poisoned)
    return calls


def unsettle(monkeypatch):
    """Make the midpoint's sweep never settle: each phase's effective field
    holds a new finite value in one cell, so every update stays far above
    the solve's tolerance."""
    return _poison(monkeypatch, 0, value=float)


def test_midpoint_divergence_reports_iterations(monkeypatch):
    # the plain sweep failed to converge here at dt*rho = 1.8; the two-step
    # sweep converges at every admitted dt, so a field that moves every
    # sweep stands in for a solve that cannot settle
    n = make_random_smooth(Grid.centered((32, 32), 4.0), seed=4, amplitude=1.5)
    calls = unsettle(monkeypatch)
    with pytest.raises(ConvergenceError, match="did not converge in 50 iterations") as err:
        step(n, SimConfig(dt=1.8 / 512.0, steps=1, scheme="midpoint"))  # dt*rho = 1.8
    assert err.value.iterations == 50 and calls["count"] == 50


def _check_midpoint_stops_at_iteration_3(monkeypatch, cell=(5, 5)):
    g = Grid.centered((32, 32), 12.0)
    n = make_random_smooth(g, seed=12, amplitude=1.2)
    calls = _poison(monkeypatch, 2, cell)
    with pytest.raises(ConvergenceError, match=r"non-finite \(nan\) at iteration 3") as err:
        step(n, _stable_cfg(n, "midpoint"))
    assert err.value.iterations == 3 and calls["count"] == 3


def test_midpoint_stops_at_the_first_non_finite_update(monkeypatch):
    # it used to spend all 50 iterations and report "last update nan"
    _check_midpoint_stops_at_iteration_3(monkeypatch)


def test_midpoint_step_refuses_dt_beyond_its_cap():
    # dt = 5 (dt*rho = 2560) used to overflow in the renormalization, with
    # three RuntimeWarnings, and then spend all 50 iterations
    g = Grid.centered((32, 32), 4.0)  # rho = 4 * (64 + 64) = 512
    n = make_random_smooth(g, seed=4, amplitude=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"dt\*rho = 2560 exceeds the midpoint cap 2, set by "
                                             r"the error per unit of work; use dt <= 0\.003906"):
            step(n, SimConfig(dt=5.0, steps=1, scheme="midpoint"))
    dt_max = 2.0 / 512.0
    with pytest.raises(ValueError, match=r"dt\*rho = 2 "):
        step(n, SimConfig(dt=dt_max * (1 + 1e-9), steps=1, scheme="midpoint"))
    # just inside, the solve converges (the plain sweep did not)
    out = step(n, SimConfig(dt=dt_max * (1 - 1e-9), steps=1, scheme="midpoint"))
    assert np.isfinite(out.values).all() and out.norm_deviation() < 1e-12


# the fields the midpoint's sweeps are counted on: the refusal test's stiff
# random field, the benchmark's 96^2 soliton, a random texture, a soliton on
# unequal spacings, and a 32^3 texture, which steps on two slabs
SWEEP_FIELDS = {
    "32^2_random_box_4": lambda: make_random_smooth(Grid.centered((32, 32), 4.0), seed=4,
                                                    amplitude=1.5),
    "96^2_soliton": lambda: make_bp_soliton(Grid.centered((96, 96), 16.0), 1, 1.5, 6.0),
    "96^2_random": lambda: make_random_smooth(Grid.centered((96, 96), 16.0), seed=3,
                                              amplitude=1.8),
    "96x80_soliton": lambda: make_bp_soliton(Grid.centered((96, 80), 16.0), 1, 1.5, 6.0),
    "32^3_random": lambda: make_random_smooth(Grid.centered((32,) * 3, 8.0), seed=3),
}


def _count_sweeps(monkeypatch):
    """Count the midpoint's sweeps, as the calls of _effective_field that
    reach row 5 (one per phase, whatever the slab count), writing nothing."""
    return _poison(monkeypatch, math.inf)


@pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
def test_the_midpoint_converges_at_every_admitted_dt(monkeypatch, name):
    # the plain sweep took 27 sweeps on the soliton at dt*rho = 1 and ran out
    # of its 50 from dt*rho = 1.4-1.5; the two-step sweep took at most 31
    n = SWEEP_FIELDS[name]()
    work = _Workspace(n)
    if n.grid.p == 3:
        assert len(work.slabs) == min(2, len(os.sched_getaffinity(0)))
    calls = _count_sweeps(monkeypatch)
    try:
        for a in (0.0, 0.5, -2.0):
            rho = 4.0 * sum(1.0 / h ** 2 for h in n.grid.spacing) + abs(a)
            for dt_rho in (0.5, 1.0, 1.5, 1.8, 1.999):
                calls["count"] = 0
                cfg = SimConfig(dt=dt_rho / rho, steps=1, scheme="midpoint",
                                params=EnergyParams(a=a))
                step(n, cfg, work)
                bound = 18 if (name, dt_rho) == ("96^2_soliton", 1.0) else 35
                assert calls["count"] <= bound, (a, dt_rho, calls["count"])
    finally:
        work.close()


def test_the_benchmark_midpoint_run_takes_at_most_18_sweeps_per_step(monkeypatch):
    # the benchmark's midpoint leg: 30 steps of the 96^2 soliton at dt*rho = 1
    n = SWEEP_FIELDS["96^2_soliton"]()
    calls = _count_sweeps(monkeypatch)
    simulate(n, dataclasses.replace(_stable_cfg(n, "midpoint"), steps=30, report_every=30))
    assert calls["count"] <= 18 * 30


@pytest.mark.parametrize("dt_rho", [1.0, 1.8])
@pytest.mark.parametrize("make", [SWEEP_FIELDS["32^2_random_box_4"],
                                  lambda: make_random_smooth(Grid.centered((16, 18, 20), 8.0),
                                                             seed=3)], ids=["2d", "3d"])
def test_the_two_step_sweep_reaches_the_plain_sweeps_fixed_point(make, dt_rho):
    # the bitwise oracle runs the stepper's own sweep; the plain one, with no
    # cap on its sweeps, shares only the fixed point with it
    n = make()
    cfg = _stable_cfg(n, "midpoint")
    cfg = dataclasses.replace(cfg, dt=dt_rho * cfg.dt)
    plain = allocating_stepper.plain_midpoint(n, cfg)
    assert np.abs(step(n, cfg).values - plain.values).max() <= 1e-11


def test_a_midpoint_step_holds_one_field_array_more_than_an_rk4_step():
    # an RK4 step holds the effective field and three stage arrays, and so
    # did the plain sweep (its peak was 304 bytes above RK4's at 96^2); the
    # two-step sweep adds x_{k-1} and no more, the next average written over
    # it; 1 KB is left for the Python objects of a step
    n = SWEEP_FIELDS["96^2_soliton"]()
    peaks = {}
    for scheme in ("rk4_project", "midpoint"):
        cfg = _stable_cfg(n, scheme)
        peaks[scheme] = peak_bytes(lambda: step(n, cfg))
    assert peaks["midpoint"] <= peaks["rk4_project"] + n.values.nbytes + 1024


def _tangent_bases(values):
    """Orthonormal tangent bases (e1, e2) with e1 x e2 = n, one per vector."""
    seed = np.where(np.abs(values[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = seed - (seed * values).sum(axis=-1, keepdims=True) * values
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return e1, cross3(values, e1)


def _symplecticity_defect(n, scheme, every):
    """max |J^T Omega J - Omega| of one step at dt*rho = 1, a = 0.5, with J
    the step's Jacobian on the interior spins in tangent coordinates, by
    central differences, on the columns of every `every`-th interior spin;
    Omega is omega_n(u, v) = sum n.(u x v) in those coordinates."""
    cfg = _stable_cfg(n, scheme)
    interior = ~n.grid.boundary_mask()
    cells = [tuple(c) for c in np.argwhere(interior)]
    out = step(n, cfg).values[interior]
    f1, f2 = _tangent_bases(out)
    e1, e2 = _tangent_bases(n.values[interior])
    eps = 1e-5
    columns = []
    for c in range(0, len(cells), every):
        for e in (e1[c], e2[c]):
            moved = []
            for sign in (1.0, -1.0):
                values = n.values.copy()
                values[cells[c]] = np.cos(eps) * values[cells[c]] + sign * np.sin(eps) * e
                moved.append(step(n.with_values(values, check=False), cfg).values[interior])
            d = (moved[0] - moved[1]) / (2.0 * eps)
            columns.append(np.stack([(d * f).sum(axis=-1) for f in (f1, f2)], axis=-1).ravel())
    J = np.stack(columns, axis=1)
    omega = np.kron(np.eye(len(cells)), [[0.0, 1.0], [-1.0, 0.0]])
    picked = np.ravel([(2 * c, 2 * c + 1) for c in range(0, len(cells), every)])
    return np.abs(J.T @ omega @ J - omega[np.ix_(picked, picked)]).max()


@pytest.mark.parametrize("dims, every", [((12, 12), 1), ((12, 12, 12), 16)], ids=["2d", "3d"])
def test_spherical_midpoint_is_symplectic_and_rk4_is_not(dims, every):
    # each entry of J^T Omega J reads two full columns of J, so a subset of
    # the columns gives exact entries of the defect
    n = make_random_smooth(Grid.centered(dims, 6.0), seed=3)
    assert _symplecticity_defect(n, "midpoint", every) <= 1e-8
    assert _symplecticity_defect(n, "rk4_project", every) >= 1e-4


@pytest.mark.parametrize("name, value", [("steps", 2.5), ("steps", 2.0), ("steps", True),
                                         ("report_every", 1.5), ("report_every", True)])
def test_simconfig_rejects_non_integer_counts(name, value):
    # steps=2.5 and 2.0 used to build a workspace and the t=0 report and then
    # raise TypeError inside simulate, report_every=1.5 to report only at the
    # two ends, and steps=True to run one step
    with pytest.raises(ValueError, match=rf"^{name}: must be an int"):
        SimConfig(dt=1e-3, **{"steps": 1, name: value})


def test_simconfig_accepts_numpy_integer_counts():
    # numpy integers are integers, as a numpy float is a real dt; the counts
    # are stored as Python ints
    cfg = SimConfig(dt=1e-3, steps=np.int64(3), report_every=np.int32(2))
    assert type(cfg.steps) is int and type(cfg.report_every) is int
    assert (cfg.steps, cfg.report_every) == (3, 2)
    reps, _ = simulate(make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0), cfg)
    assert [r.t for r in reps] == pytest.approx([0.0, 2e-3, 3e-3])


@pytest.mark.parametrize("dt", [True, "1e-3"], ids=["bool", "str"])
def test_simconfig_rejects_a_dt_that_is_not_a_real_number(dt):
    # dt=True used to step with dt = 1, and "1e-3" to raise a bare TypeError
    with pytest.raises(ValueError, match=rf"^dt: must be a real number, got {dt!r}$"):
        SimConfig(dt=dt, steps=1)


@pytest.mark.parametrize("a", [True, "0.5"], ids=["bool", "str"])
def test_energy_params_rejects_an_a_that_is_not_a_real_number(a):
    # a=True used to be read as a = 1.0
    with pytest.raises(ValueError, match=rf"^a: must be a real number, got {a!r}$"):
        EnergyParams(a=a)
    assert EnergyParams(a=np.float32(0.5)).a == 0.5 and type(EnergyParams(a=2).a) is float


def test_simconfig_rejects_non_finite_dt():
    for dt in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(dt=dt, steps=1)
        with pytest.raises(ValueError, match="finite"):
            SimConfig(dt=dt, steps=1, scheme="midpoint")


def _tilted_random_field(grid, seed):
    """A random smooth field rotated off -k: non-decaying, so nothing is frozen."""
    n = make_random_smooth(grid, seed=seed, amplitude=1.4)
    return SpinField(grid, n.values @ so3_oracle.so3_exp(np.array([0.4, -0.3, 0.0])).T,
                     decaying=False)


_ORACLE_CASES = {
    "2d_decaying_rk4": (lambda: make_bp_soliton(Grid.centered((40, 40), 16.0), 1, 1.5, 6.0),
                        "rk4_project"),
    "2d_decaying_midpoint": (lambda: make_random_smooth(Grid.centered((32, 36), 12.0), seed=2,
                                                        amplitude=1.5), "midpoint"),
    "3d_rk4": (lambda: make_random_smooth(Grid.centered((12, 14, 16), 8.0), seed=3), "rk4_project"),
    "2d_non_decaying_rk4": (lambda: _tilted_random_field(Grid.centered((24, 28), 10.0), 6),
                            "rk4_project"),
}


def _component_major(values):
    """A writable copy of values (..., 3) as three contiguous planes, the
    layout of every SpinField payload, which check=False adopts."""
    return np.moveaxis(np.moveaxis(values, -1, 0).copy(), 0, -1)


def _stable_cfg(n, scheme, a=0.5):
    rho = 4.0 * sum(1.0 / h ** 2 for h in n.grid.spacing) + a
    return SimConfig(dt=1.0 / rho, steps=1, scheme=scheme, params=EnergyParams(a=a))


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_step_equals_the_allocating_stepper_bitwise(case):
    make, scheme = _ORACLE_CASES[case]
    n = make()
    cfg = _stable_cfg(n, scheme)
    new = old = n
    for _ in range(10):
        new, old = step(new, cfg), allocating_stepper.step(old, cfg)
    assert np.array_equal(new.values, old.values)
    assert np.abs(new.values - n.values).max() > 1e-6  # the field moved


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_simulate_equals_the_allocating_stepper_bitwise(case):
    _check_simulate_equals_the_allocating_stepper(case)


def _check_simulate_equals_the_allocating_stepper(case):
    make, scheme = _ORACLE_CASES[case]
    n0 = make()
    before = n0.values.copy()
    cfg = dataclasses.replace(_stable_cfg(n0, scheme), steps=11, report_every=3)
    seen = []
    reports, final = simulate(n0, cfg, report_sink=seen.append)

    old, expected = n0, [make_report(n0, 0.0, cfg.params)]
    for i in range(1, cfg.steps + 1):
        old = allocating_stepper.step(old, cfg)
        if i % cfg.report_every == 0 or i == cfg.steps:
            expected.append(make_report(old, i * cfg.dt, cfg.params))
    assert np.array_equal(final.values, old.values)
    assert _is_planar(final.values)
    assert np.array_equal(n0.values, before)
    assert len(seen) == len(reports) and all(a is b for a, b in zip(seen, reports))
    assert [r.t for r in reports] == [r.t for r in expected]
    for got, want in zip(reports, expected):
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), (got.t, f.name)


def _slab_threads():
    return [t for t in threading.enumerate() if t.name.startswith("llgeo-slab")]


@pytest.fixture
def two_slabs(monkeypatch):
    """Step every grid, however small, over two axis-0 slabs on two threads."""
    monkeypatch.setattr(fields, "SLAB_CELLS", 0)
    if fields._slab_count(Grid.centered((8, 8), 1.0)) < 2:
        pytest.skip("this process may run on one CPU only")


@pytest.mark.parametrize("scheme", ["rk4_project", "midpoint"])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_step_on_two_slabs_equals_the_allocating_stepper_bitwise(case, scheme, two_slabs):
    n = _ORACLE_CASES[case][0]()
    cfg = _stable_cfg(n, scheme)
    work = _Workspace(n)
    assert len(work.slabs) == 2
    new = old = n
    try:
        for _ in range(10):
            new, old = step(new, cfg, work), allocating_stepper.step(old, cfg)
    finally:
        work.close()
    assert np.array_equal(new.values, old.values)
    assert np.abs(new.values - n.values).max() > 1e-6  # the field moved
    assert not _slab_threads()


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_simulate_on_two_slabs_equals_the_allocating_stepper_bitwise(case, two_slabs):
    _check_simulate_equals_the_allocating_stepper(case)
    assert not _slab_threads()


@pytest.mark.parametrize("scheme", ["rk4_project", "midpoint"])
def test_a_grid_below_slab_cells_steps_inline_with_no_thread(scheme):
    n = _ORACLE_CASES["2d_decaying_rk4"][0]()
    work = _Workspace(n)
    step(n, _stable_cfg(n, scheme), work)
    assert len(work.slabs) == 1 and work._threads is None


def test_a_48_cubed_field_steps_to_the_same_bits_on_two_slabs_as_on_one(monkeypatch):
    # at 48^3 the default SLAB_CELLS gives two slabs on two CPUs; inf gives one
    n = make_random_smooth(Grid.centered((48,) * 3, 8.0), seed=4)
    results = []
    for cells in (fields.SLAB_CELLS, math.inf):
        monkeypatch.setattr(fields, "SLAB_CELLS", cells)
        work = _Workspace(n)
        try:
            rk4 = n
            for _ in range(3):
                rk4 = step(rk4, _stable_cfg(n, "rk4_project"), work)
            results.append((len(work.slabs), rk4.values,
                            step(n, _stable_cfg(n, "midpoint"), work).values))
        finally:
            work.close()
    (two, *fields_two), (one, *fields_one) = results
    assert one == 1 and two == min(2, len(os.sched_getaffinity(0)))
    assert all(np.array_equal(a, b) for a, b in zip(fields_two, fields_one))


@pytest.mark.parametrize("cell", [(5, 5), (20, 5)])
def test_midpoint_on_two_slabs_stops_at_the_same_non_finite_update(monkeypatch, two_slabs, cell):
    # row 20 is in the second slab: Python's max(d, nan) would keep d there
    _check_midpoint_stops_at_iteration_3(monkeypatch, cell)
    assert not _slab_threads()


def test_an_error_in_one_slab_surfaces_and_leaves_no_thread(monkeypatch, two_slabs):
    import llgeo.dynamics as dyn

    true_field = dyn._effective_field

    def poisoned(values, grid, a, out, scratch, rows=slice(None)):
        if rows.start:  # the second slab only
            raise RuntimeError("poisoned slab")
        return true_field(values, grid, a, out, scratch, rows)

    n = _ORACLE_CASES["2d_decaying_rk4"][0]()
    monkeypatch.setattr(dyn, "_effective_field", poisoned)
    for scheme in ("rk4_project", "midpoint"):
        with pytest.raises(RuntimeError, match="poisoned slab"):
            step(n, _stable_cfg(n, scheme))
        with pytest.raises(RuntimeError, match="poisoned slab"):
            simulate(n, dataclasses.replace(_stable_cfg(n, scheme), steps=3))
        assert not _slab_threads()
    monkeypatch.setattr(dyn, "_effective_field", true_field)
    _poison(monkeypatch, after=10)
    with pytest.raises(NumericsError, match=r"step \d+"):
        simulate(n, SimConfig(dt=1e-3, steps=50))
    assert not _slab_threads()


def test_more_slabs_than_cores_under_a_short_switch_interval(monkeypatch):
    # every slab writes its own rows and reads its neighbors' rows of the
    # phase before: a lost or early write would change the bits
    monkeypatch.setattr(fields, "_slab_count", lambda grid: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case, scheme in (("2d_decaying_rk4", "rk4_project"),
                             ("2d_decaying_midpoint", "midpoint"), ("3d_rk4", "rk4_project")):
            n = _ORACLE_CASES[case][0]()
            cfg = dataclasses.replace(_stable_cfg(n, scheme), steps=4)
            _, final = simulate(n, cfg)
            old = n
            for _ in range(cfg.steps):
                old = allocating_stepper.step(old, cfg)
            assert np.array_equal(final.values, old.values), case
    finally:
        sys.setswitchinterval(interval)
    assert not _slab_threads()


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_n_cross_H_equals_minus_n_cross_dE_dn(case):
    # the kernel returns h0^2 H; H drops the Laplacian's diagonal and its
    # free-edge rule, multiples of n, from -dE/dn; the cases cover unequal
    # spacings, 3D and free edges, at a != 0
    n = _ORACLE_CASES[case][0]()
    params = EnergyParams(a=0.7)
    out = np.empty_like(n.values)
    scaled = _effective_field(n.values, n.grid, params.a, out, np.empty_like(n.values))
    assert scaled is out
    assert np.array_equal(scaled, allocating_stepper.scaled_effective_field(n, params))
    H = scaled / n.grid.spacing[0] ** 2
    want = allocating_stepper.effective_field(n, params)
    assert np.abs(H - want).max() <= 1e-13 * np.abs(want).max()
    rhs = cross3(n.values, H)
    ll = allocating_stepper.ll_rhs(n, params)
    assert np.abs(rhs - ll).max() <= 1e-13 * np.abs(ll).max()
    flow = -cross3(n.values, allocating_stepper.variational_derivative_energy(n, params))
    assert np.abs(rhs - flow).max() <= 1e-13 * np.abs(flow).max()


@pytest.mark.parametrize("c_order", ["values", "out", "scratch"])
def test_effective_field_refuses_a_c_order_buffer_instead_of_copying_it(c_order):
    # its flat planes are views; a copy would leave out unwritten
    n = _ORACLE_CASES["2d_decaying_rk4"][0]()
    buffers = {"values": n.values, "out": np.empty_like(n.values),
               "scratch": np.empty_like(n.values)}
    buffers[c_order] = np.ascontiguousarray(buffers[c_order])
    with pytest.raises(ValueError, match="copy"):
        _effective_field(buffers["values"], n.grid, 0.7, buffers["out"], buffers["scratch"])


@pytest.mark.parametrize("scheme", ["rk4_project", "midpoint"])
@pytest.mark.parametrize("case", ["2d_decaying_rk4", "2d_non_decaying_rk4"])
def test_step_never_writes_into_its_input(case, scheme):
    n = _ORACLE_CASES[case][0]()
    cfg = _stable_cfg(n, scheme)
    writable = step(n, cfg)  # built with check=False: its array is writable
    assert writable.values.flags.writeable
    before = writable.values.copy()
    after = step(writable, cfg)
    assert np.array_equal(writable.values, before)
    assert not np.shares_memory(after.values, writable.values)


def test_energy_conservation_against_step_halved_run():
    g = Grid.centered((64, 64), 16.0)
    n = make_bp_soliton(g, 1, 1.5, 5.0)
    params = EnergyParams(a=0.5)
    finals = []
    for dt, steps in ((1e-3, 200), (5e-4, 400)):
        reps, _ = simulate(n, SimConfig(dt=dt, steps=steps, report_every=steps, params=params))
        finals.append(reps[-1].energy)
    e0 = energy(n, params)
    assert abs(finals[0] - finals[1]) / e0 < 1e-6


def test_simulate_zero_steps_single_report():
    g = Grid.centered((32, 32), 12.0)
    n = make_bp_soliton(g, 1, 1.0, 4.0)
    reps, final = simulate(n, SimConfig(dt=1e-3, steps=0))
    assert len(reps) == 1
    assert reps[0].t == 0.0
    assert np.array_equal(final.values, n.values)


def test_simulate_report_cadence_and_sink():
    g = Grid.centered((32, 32), 12.0)
    n = make_bp_soliton(g, 1, 1.0, 4.0)
    seen = []
    reps, final = simulate(n, SimConfig(dt=1e-3, steps=10, report_every=4),
                           report_sink=seen.append)
    # t = 0, 4, 8, 10
    assert [r.t for r in reps] == pytest.approx([0.0, 4e-3, 8e-3, 10e-3])
    assert len(seen) == len(reps) and all(s is r for s, r in zip(seen, reps))


def test_simulate_is_deterministic():
    g = Grid.centered((32, 32), 12.0)
    n = make_random_smooth(g, seed=12, amplitude=1.2)
    cfg = SimConfig(dt=1e-3, steps=20, report_every=5, params=EnergyParams(a=0.3))
    r1, f1 = simulate(n, cfg)
    r2, f2 = simulate(n, cfg)
    assert np.array_equal(f1.values, f2.values)
    assert [r.energy for r in r1] == [r.energy for r in r2]


def test_simulate_steps_and_reports_in_one_workspace(monkeypatch):
    import llgeo.dynamics as dyn

    n = make_bp_soliton(Grid.centered((32, 32), 12.0), 1, 1.0, 4.0)
    seen = {"step": [], "make_report": []}
    for name, calls in seen.items():
        def spy(*args, _true=getattr(dyn, name), _calls=calls):
            _calls.append(args[-1])  # simulate passes the workspace last
            return _true(*args)
        monkeypatch.setattr(dyn, name, spy)
    simulate(n, SimConfig(dt=1e-3, steps=5, report_every=2))
    assert len(seen["step"]) == 5 and len(seen["make_report"]) == 4  # t = 0, 2, 4, 5
    works = seen["step"] + seen["make_report"]
    assert isinstance(works[0], _Workspace) and all(w is works[0] for w in works)


def test_simulate_aborts_on_nan_with_step_index(monkeypatch):
    g = Grid.centered((32, 32), 12.0)
    n = make_random_smooth(g, seed=12, amplitude=1.2)
    _poison(monkeypatch, after=10)
    with pytest.raises(NumericsError, match=r"step \d+"):
        simulate(n, SimConfig(dt=1e-3, steps=50))


def test_non_decaying_fields_evolve_freely_and_report_partial():
    g = Grid.centered((16, 16), 8.0)
    theta = 0.5
    n = make_constant(g, (np.sin(theta), 0.0, np.cos(theta)))
    reps, final = simulate(n, SimConfig(dt=1e-3, steps=100, report_every=50,
                                        params=EnergyParams(a=1.0)))
    # uniform precession: N is pointwise constant, E/P/L/deg unavailable
    n_vals = [r.N for r in reps]
    assert max(abs(v - n_vals[0]) for v in n_vals) < 1e-10
    assert reps[0].energy is None and reps[0].P is None and reps[0].deg is None
    # the whole field precessed: the layer is not frozen for non-decaying fields
    assert np.abs(final.values - n.values).max() > 1e-4
    assert np.abs(final.values[..., 2] - np.cos(theta)).max() < 1e-10


def _field(kind):
    if kind == "soliton_2d":
        return make_bp_soliton(Grid.centered((64, 64), 16.0), 1, 1.5, 6.0)
    return make_random_smooth(Grid.centered((20, 22, 24), 12.0), seed=5, amplitude=1.2)


@pytest.fixture(params=["soliton_2d", "random_3d"])
def report_field(request):
    return _field(request.param)


def test_make_report_shares_one_pass_with_the_public_diagnostics(report_field):
    n = report_field
    rep = make_report(n, 0.0)
    if n.grid.p == 2:
        assert rep.deg == momenta.degree(n)
    else:
        assert rep.deg is None
    assert np.array_equal(rep.P, momenta.momentum_P_general(n))
    assert np.array_equal(rep.L, momenta.rotational_momentum(n))
    assert rep.energy == energy(n)
    assert rep.N == momenta.momentum_N(n)
    assert rep.norm_dev == n.norm_deviation()


def _garbage_workspace(like, order):
    """A workspace for like's grid whose pool and planes hold NaN, so a
    scratch value read before it is written shows in the report; its pool
    arrays are laid out as like's ("planar") or in C order ("C"), so the
    report's bits are shown not to depend on the layout of its scratch."""
    work = _Workspace(like)
    work.pool = [np.full_like(like.values, np.nan, order="K" if order == "planar" else "C")
                 for _ in range(4)]
    for plane in work.planes(like.grid.p + 1):
        plane.fill(np.nan)
    return work


@pytest.mark.parametrize("work", [None, "C", "planar"])
@pytest.mark.parametrize("layout", ["C", "planar"])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_make_report_equals_the_allocating_oracle_bitwise(case, layout, work):
    # layout is that of the array the field is built from: check=False
    # copies a C-order one into planes and adopts planes, so the report is
    # taken on the one layout either way
    n = _ORACLE_CASES[case][0]()
    source = np.ascontiguousarray(n.values) if layout == "C" else _component_major(n.values)
    field = n.with_values(source, check=False)
    assert _is_planar(field.values) and (field.values is source) == (layout == "planar")
    params = EnergyParams(a=0.7)
    want = allocating_report.make_report(n, 0.5, params)
    workspace = None if work is None else _garbage_workspace(field, work)
    for _ in range(2):  # the second report reuses the first one's scratch
        got = make_report(field, 0.5, params, workspace)
        for entry in dataclasses.fields(got):
            a, b = getattr(got, entry.name), getattr(want, entry.name)
            assert (a is None and b is None) or np.array_equal(a, b), entry.name
    if n.decaying:  # moments on its own, with a workspace of its own
        for a, b in zip(momenta.moments(field), (want.deg, want.P, want.L)):
            assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("dims", [(128, 128), (32, 32, 32)], ids=["128^2", "32^3"])
def test_make_report_allocates_no_field_array_in_a_run_workspace(dims):
    n = make_random_smooth(Grid.centered(dims, 12.0), seed=5, amplitude=1.2)
    params = EnergyParams(a=0.5)
    # a run's workspace after its first report (which also caches the grid's
    # coordinates) and one step, the stepped field's array back in its pool
    planar = n.with_values(_component_major(n.values), check=False)
    work = _Workspace(planar)
    make_report(planar, 0.0, params, work)
    stepped = step(planar, _stable_cfg(planar, "rk4_project"), work)
    work.pool.append(planar.values)
    assert peak_bytes(lambda: make_report(stepped, 0.0, params, work)) < n.values.nbytes
    # without one, no more than the allocating composition, whose peak is
    # the one make_report had before it took a workspace
    oracle = peak_bytes(lambda: allocating_report.make_report(n, 0.0, params))
    assert peak_bytes(lambda: make_report(n, 0.0, params)) <= oracle


def test_a_3d_report_borrows_no_workspace_plane():
    # the moments pass takes p derivative arrays and one spare field array,
    # whose three planes hold the plane of F being written and the two
    # products of its triple products; the workspace's planes are the
    # stepper's alone
    n = make_random_smooth(Grid.centered((16, 18, 20), 12.0), seed=2, amplitude=1.5)
    work = _Workspace(n)
    make_report(n, 0.0, EnergyParams(a=0.5), work)
    assert work._planes == [] and len(work.pool) == n.grid.p + 1


@pytest.fixture
def partial_calls(monkeypatch):
    """The axis of every partial call made through momenta or cocycle."""
    calls = []

    def counted(values, grid, axis, out=None):
        calls.append(axis)
        return calculus.partial(values, grid, axis, out=out)

    for module in (momenta, cocycle):
        monkeypatch.setattr(module, "partial", counted)
    return calls


def test_make_report_differentiates_once_per_axis(report_field, partial_calls):
    make_report(report_field, 0.0)
    assert sorted(partial_calls) == list(range(report_field.grid.p))


def _with_rotations(route):
    def diagnostic(n):
        p = n.grid.p
        rng = np.random.default_rng(4)
        e1, e2 = (EuclideanAlgebraElement(p, rng.normal(size=p * (p - 1) // 2),
                                          rng.normal(size=p)) for _ in range(2))
        return route(n, e1, e2)
    return diagnostic


@pytest.mark.parametrize("diagnostic, kind, passes", [
    (momenta.degree, "soliton_2d", 1),
    (_with_rotations(cocycle.cocycle_direct), "soliton_2d", 1),
    (_with_rotations(cocycle.cocycle_direct), "random_3d", 1),
    (cocycle.check_px_py_bracket, "soliton_2d", 1),
    (_with_rotations(cocycle.cocycle_via_pairing), "soliton_2d", 3),
    (_with_rotations(cocycle.cocycle_via_pairing), "random_3d", 3),
    (momenta.momentum_P_cross, "random_3d", 1),
    (momenta.reduced_momentum_lift, "soliton_2d", 1),
    (momenta.check_lift_identity, "soliton_2d", 1),
], ids=["degree", "cocycle_direct_2d", "cocycle_direct_3d", "check_px_py_bracket",
        "cocycle_via_pairing_2d", "cocycle_via_pairing_3d", "momentum_P_cross_3d",
        "reduced_momentum_lift", "check_lift_identity"])
def test_winding_diagnostics_differentiate_once_per_axis(partial_calls, diagnostic, kind,
                                                         passes):
    # each reads one derivative pass of n (the 2-form, or the closed-form
    # lift integrand; the lift's right gradient takes no partial); the
    # pairing route differentiates mu once for both wedge lifts, and the
    # bracket then differentiates each lift once
    n = _field(kind)
    diagnostic(n)
    assert sorted(partial_calls) == sorted(list(range(n.grid.p)) * passes)


@pytest.mark.parametrize("kind", ["soliton_2d", "random_3d"])
def test_cocycle_direct_reads_the_kept_moment_tensor(partial_calls, kind):
    # the first call's pass leaves G on the checked field; a second call,
    # and moments, contract it without a pass
    n = _field(kind)
    direct = _with_rotations(cocycle.cocycle_direct)
    first = direct(n)
    assert sorted(partial_calls) == list(range(n.grid.p))
    partial_calls.clear()
    assert direct(n) == first
    momenta.moments(n)
    assert partial_calls == []

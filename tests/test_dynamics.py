import dataclasses

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
    so3_exp,
    step,
    tangent_project,
    variational_derivative_energy,
)
from llgeo import EuclideanAlgebraElement, calculus, cocycle, momenta
from llgeo.calculus import integrate
from llgeo.dynamics import _component_major, _minus_cross, make_report

import allocating_stepper
from conftest import relative_gap
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
    assert np.abs(variational_derivative_energy(n, params)).max() == 0.0

    v = np.array([0.6, 0.0, 0.8])
    m = make_constant(g, v)
    expected = 1.0 * (v - (v @ K_AXIS) * K_AXIS)
    out = variational_derivative_energy(m, params)
    assert np.abs(out - expected).max() < 1e-14


def test_variational_derivative_matches_functional_oracle():
    g = Grid.centered((24, 24), 16.0)
    n = make_random_smooth(g, seed=5, amplitude=1.5)
    params = EnergyParams(a=0.7)
    analytic = tangent_project(variational_derivative_energy(n, params), n.values)
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
    de = variational_derivative_energy(n, params)
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


def test_midpoint_divergence_reports_iterations():
    g = Grid.centered((32, 32), 4.0)  # fine spacing: stiff exchange term
    n = make_random_smooth(g, seed=4, amplitude=1.5)
    cfg = SimConfig(dt=5.0, steps=1, scheme="midpoint")
    with pytest.raises(ConvergenceError) as err:
        step(n, cfg)
    assert err.value.iterations == 50


def test_simconfig_rejects_non_finite_dt():
    for dt in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(dt=dt, steps=1)
        with pytest.raises(ValueError, match="finite"):
            SimConfig(dt=dt, steps=1, scheme="midpoint")


def _tilted_random_field(grid, seed):
    """A random smooth field rotated off -k: non-decaying, so nothing is frozen."""
    n = make_random_smooth(grid, seed=seed, amplitude=1.4)
    return SpinField(grid, n.values @ so3_exp(np.array([0.4, -0.3, 0.0])).T,
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
    assert final.values.flags.c_contiguous
    assert np.array_equal(n0.values, before)
    assert len(seen) == len(reports) and all(a is b for a, b in zip(seen, reports))
    assert [r.t for r in reports] == [r.t for r in expected]
    for got, want in zip(reports, expected):
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), (got.t, f.name)


@pytest.mark.parametrize("case", ["2d_decaying_rk4", "3d_rk4", "2d_non_decaying_rk4"])
def test_variational_derivative_fills_and_returns_out(case):
    n = _ORACLE_CASES[case][0]()
    params = EnergyParams(a=0.7)
    buf = np.full(n.values.shape, np.nan)
    got = variational_derivative_energy(n, params, out=buf)
    assert got is buf
    assert np.array_equal(buf, variational_derivative_energy(n, params))
    assert np.array_equal(buf, allocating_stepper.variational_derivative_energy(n, params))
    rhs = _minus_cross(n.values, buf, np.empty_like(buf), np.empty((2,) + n.grid.dims))
    assert np.array_equal(rhs, allocating_stepper.ll_rhs(n, params))
    with pytest.raises(ValueError, match="laid out like it"):
        variational_derivative_energy(n, params, out=np.empty(n.values.shape[::-1]).T)


@pytest.mark.parametrize("case", ["2d_decaying_rk4", "3d_rk4", "2d_non_decaying_rk4"])
def test_variational_derivative_of_a_component_major_field_is_bitwise_equal(case):
    n = _ORACLE_CASES[case][0]()
    params = EnergyParams(a=0.7)
    planar = n.with_values(_component_major(n.values), check=False)
    assert all(planar.values[..., c].flags.c_contiguous for c in range(3))
    got = variational_derivative_energy(planar, params)
    assert got.strides == planar.values.strides
    assert np.array_equal(got, variational_derivative_energy(n, params))
    work = np.empty_like(planar.values)
    assert np.array_equal(variational_derivative_energy(planar, params, work=work), got)


def test_variational_derivative_refuses_mismatched_or_gapped_layouts():
    n = _ORACLE_CASES["2d_decaying_rk4"][0]()
    planar = n.with_values(_component_major(n.values), check=False)
    c_order = np.empty(n.values.shape)
    for kwargs in ({"out": c_order}, {"work": c_order}):
        with pytest.raises(ValueError, match="same shape and strides"):
            variational_derivative_energy(planar, **kwargs)
    with pytest.raises(ValueError, match="same shape and strides"):
        variational_derivative_energy(n, work=np.empty(n.values.shape, dtype=np.float32))
    gapped, out, work = (np.empty(n.grid.dims + (4,))[..., :3] for _ in range(3))
    gapped[...] = n.values  # a flat pass would copy it, and lose its writes
    with pytest.raises(ValueError, match="must be dense, and out"):
        variational_derivative_energy(n.with_values(gapped, check=False))
    with pytest.raises(ValueError, match=r"must be dense \(no gaps"):
        variational_derivative_energy(n.with_values(gapped, check=False), out=out, work=work)


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


def test_simulate_aborts_on_nan_with_step_index(monkeypatch):
    g = Grid.centered((32, 32), 12.0)
    n = make_random_smooth(g, seed=12, amplitude=1.2)

    calls = {"count": 0}
    import llgeo.dynamics as dyn

    true_vde = dyn.variational_derivative_energy

    def poisoned(field, params, out=None, work=None):
        calls["count"] += 1
        out = true_vde(field, params, out=out, work=work)
        if calls["count"] > 10:
            out = np.array(out)
            out[5, 5] = np.nan
        return out

    monkeypatch.setattr(dyn, "variational_derivative_energy", poisoned)
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


def test_make_report_is_bitwise_independent_of_layout(report_field):
    # the energy sums used to follow memory order, so both fields failed here
    n = report_field
    planar = n.with_values(_component_major(n.values), check=False)
    rep, rep_planar = make_report(n, 0.0), make_report(planar, 0.0)
    for entry in dataclasses.fields(rep):
        a, b = getattr(rep, entry.name), getattr(rep_planar, entry.name)
        assert (a is None and b is None) or np.array_equal(a, b), entry.name


@pytest.fixture
def partial_calls(monkeypatch):
    """The axis of every partial call made through momenta or cocycle."""
    calls = []

    def counted(values, grid, axis):
        calls.append(axis)
        return calculus.partial(values, grid, axis)

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

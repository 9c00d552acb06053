import numpy as np
import pytest

from llgeo import (
    ConvergenceError,
    EnergyParams,
    Grid,
    K_AXIS,
    NumericsError,
    SimConfig,
    energy,
    functional_derivative,
    ll_rhs,
    make_bp_soliton,
    make_constant,
    make_radial_profile,
    make_random_smooth,
    simulate,
    step,
    tangent_project,
    variational_derivative_energy,
)
from llgeo import momenta
from llgeo.calculus import integrate
from llgeo.dynamics import make_report

from conftest import relative_gap
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
    assert np.abs(ll_rhs(n, EnergyParams(a=1.0))).max() == 0.0


def test_ll_rhs_constant_is_fixed_point_without_anisotropy():
    g = Grid.centered((24, 24), 8.0)
    n = make_constant(g, (1.0, 0.0, 0.0))
    assert np.abs(ll_rhs(n, EnergyParams(a=0.0))).max() == 0.0


def test_ll_rhs_uniform_precession_rate():
    g = Grid.centered((24, 24), 8.0)
    theta = 0.7
    a = 1.3
    n = make_constant(g, (np.sin(theta), 0.0, np.cos(theta)))
    rhs = ll_rhs(n, EnergyParams(a=a))
    speed = np.linalg.norm(rhs, axis=-1)
    assert np.abs(speed - abs(a * np.cos(theta) * np.sin(theta))).max() < 1e-13


def test_ll_rhs_tangency_and_energy_orthogonality():
    g = Grid.centered((48, 48), 16.0)
    n = make_random_smooth(g, seed=8, amplitude=1.6)
    params = EnergyParams(a=0.5)
    rhs = ll_rhs(n, params)
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


def test_simulate_report_cadence_and_sinks():
    g = Grid.centered((32, 32), 12.0)
    n = make_bp_soliton(g, 1, 1.0, 4.0)
    seen = []
    reps, final = simulate(
        n,
        SimConfig(dt=1e-3, steps=10, report_every=4),
        report_sink=seen.append,
        snapshot_sink=lambda f: seen.append("snap"),
    )
    # t = 0, 4, 8, 10
    assert [r.t for r in reps] == pytest.approx([0.0, 4e-3, 8e-3, 10e-3])
    assert len(seen) == len(reps) + 1 and seen[-1] == "snap"


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

    def poisoned(field, params):
        calls["count"] += 1
        out = true_vde(field, params)
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


@pytest.fixture(params=["soliton_2d", "random_3d"])
def report_field(request):
    if request.param == "soliton_2d":
        return make_bp_soliton(Grid.centered((64, 64), 16.0), 1, 1.5, 6.0)
    return make_random_smooth(Grid.centered((20, 22, 24), 12.0), seed=5, amplitude=1.2)


def test_make_report_shares_one_pass_with_the_public_diagnostics(report_field):
    n = report_field
    rep = make_report(n, 0.0)
    if n.grid.p == 2:
        assert rep.deg == momenta.degree(n)
    else:
        assert rep.deg is None
    assert np.array_equal(rep.P, momenta.momentum_P_general(n))
    assert np.array_equal(rep.L, momenta.rotational_momentum(n))


def test_make_report_differentiates_once_per_axis(report_field, monkeypatch):
    calls = []
    original = momenta.partial

    def counted(values, grid, axis):
        calls.append(axis)
        return original(values, grid, axis)

    monkeypatch.setattr(momenta, "partial", counted)
    make_report(report_field, 0.0)
    assert sorted(calls) == list(range(report_field.grid.p))

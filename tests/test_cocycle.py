import numpy as np
import pytest

from llgeo import (
    EnergyParams,
    EuclideanAlgebraElement,
    Grid,
    SimConfig,
    degree,
    make_bp_soliton,
    make_constant,
    make_radial_profile,
    make_random_smooth,
    step,
)
from llgeo.cocycle import (
    check_px_py_bracket,
    cocycle_direct,
    cocycle_via_pairing,
    lie_poisson_bracket,
    omega0,
    semidirect_bracket,
    wedge_lift,
)
from llgeo.calculus import integrate, partial
from llgeo.generators import band_limited, bump_envelope

from allocating_report import two_form
from allocating_stepper import variational_derivative_energy
from conftest import coords, interior, off_axis_texture, relative_gap, tangent_project
from test_generators import profile_bump

E1 = lambda: EuclideanAlgebraElement.translation((1.0, 0.0))
E2 = lambda: EuclideanAlgebraElement.translation((0.0, 1.0))


def random_element(p, rng, scale=1.0):
    n_upper = p * (p - 1) // 2
    return EuclideanAlgebraElement(
        p, scale * rng.normal(size=n_upper), scale * rng.normal(size=p)
    )


def random_tangent(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    env = bump_envelope(n.grid, 0.7)
    raw = np.stack(
        [scale * env * band_limited(n.grid, rng, 3) for _ in range(3)], axis=-1
    )
    return tangent_project(raw, n.values)


def test_omega0_convention():
    assert omega0((1.0, 0.0), (0.0, 1.0)) == 1.0
    assert omega0((0.0, 1.0), (1.0, 0.0)) == -1.0


# ---------- wedge lift ----------

def test_wedge_lift_constant_field_is_zero():
    g = Grid.centered((32, 32), 12.0)
    mu = make_constant(g, (0, 0, -1))
    lifted = wedge_lift(mu, E1())
    assert np.abs(lifted.xi).max() == 0.0


def test_wedge_lift_radial_matches_analytic():
    # mu(r) = (sin w, 0, -cos w): grad_a mu = (a.x/r) w'(r) d mu/d w
    g = Grid.centered((96, 96), 16.0)
    amp, radius = 0.9, 5.0
    mu = make_radial_profile(g, profile_bump(amp, radius))
    lifted = wedge_lift(mu, E1())

    x = coords(g)
    r = np.sqrt((x ** 2).sum(axis=-1))
    arg = 1.0 - (r / radius) ** 2
    w = np.where(r < radius, amp * np.exp(1.0 - 1.0 / np.clip(arg, 1e-12, None)), 0.0)
    dw = np.where(
        r < radius,
        w * (-2.0 * r / radius ** 2) / np.clip(arg, 1e-12, None) ** 2,
        0.0,
    )
    dmu_dw = np.stack([np.cos(w), np.zeros_like(w), np.sin(w)], axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        coeff = np.where(r > 1e-12, x[..., 0] / np.where(r > 1e-12, r, 1.0), 0.0)
    grad = coeff[..., None] * dw[..., None] * dmu_dw
    expected = np.cross(mu.values, grad)
    interior = r < radius - 1.0
    assert np.abs(lifted.xi - expected)[interior].max() < 5e-3


def test_wedge_lift_solves_the_tangency_equation():
    # xi x mu - grad mu vanishes at O(h^2): the obstruction is the discrete
    # product-rule defect in mu . grad mu, which halving h cuts ~4x
    from llgeo.cocycle import _directional_derivative

    maxima = []
    for nn in (64, 128):
        g = Grid.centered((nn, nn), 16.0)
        mu = make_random_smooth(g, seed=6, amplitude=1.3)
        rng = np.random.default_rng(0)
        e = random_element(2, rng)
        lifted = wedge_lift(mu, e)
        dmu = _directional_derivative(mu.values, g, e.velocity_field(g))
        resid = np.cross(lifted.xi, mu.values) - dmu
        inner = interior(g, 4)
        maxima.append(np.abs(resid[inner]).max())
    assert maxima[0] < 0.05
    assert maxima[1] < maxima[0] / 3.0


# ---------- semidirect bracket ----------

def test_semidirect_bracket_antisymmetry():
    g = Grid.centered((32, 32), 12.0)
    mu = make_random_smooth(g, seed=6, amplitude=1.3)
    rng = np.random.default_rng(1)
    u = wedge_lift(mu, random_element(2, rng))
    v = wedge_lift(mu, random_element(2, rng))
    uu = semidirect_bracket(u, u)
    assert np.abs(uu.xi).max() < 1e-12
    assert np.abs(uu.euclid.omega).max() < 1e-12 and np.abs(uu.euclid.adot).max() < 1e-12
    uv = semidirect_bracket(u, v)
    vu = semidirect_bracket(v, u)
    assert np.abs(uv.xi + vu.xi).max() < 1e-12
    assert np.abs(uv.euclid.adot + vu.euclid.adot).max() < 1e-12


def test_semidirect_bracket_euclidean_part():
    g = Grid.centered((32, 32), 12.0)
    mu = make_constant(g, (0, 0, -1))
    a = EuclideanAlgebraElement(2, (0.5,), (1.0, 0.0))
    b = EuclideanAlgebraElement(2, (-0.2,), (0.0, 2.0))
    out = semidirect_bracket(wedge_lift(mu, a), wedge_lift(mu, b)).euclid
    o1, o2 = a.omega, b.omega
    assert np.allclose(out.omega, o1 @ o2 - o2 @ o1, atol=1e-15)
    assert np.allclose(out.adot, o1 @ b.adot - o2 @ a.adot, atol=1e-15)


def test_semidirect_bracket_jacobi_residual_shrinks():
    maxima = []
    for nn in (32, 64):
        g = Grid.centered((nn, nn), 12.0)
        mu = make_random_smooth(g, seed=6, amplitude=1.1)
        rng = np.random.default_rng(2)
        u = wedge_lift(mu, random_element(2, rng))
        v = wedge_lift(mu, random_element(2, rng))
        w = wedge_lift(mu, random_element(2, rng))
        total = (
            semidirect_bracket(u, semidirect_bracket(v, w)).xi
            + semidirect_bracket(v, semidirect_bracket(w, u)).xi
            + semidirect_bracket(w, semidirect_bracket(u, v)).xi
        )
        inner = interior(g, 6)
        maxima.append(np.abs(total[inner]).max())
    assert maxima[1] < maxima[0] / 1.5


# ---------- cocycle ----------

@pytest.mark.parametrize("route", [cocycle_direct, cocycle_via_pairing])
def test_cocycle_routes_refuse_non_decaying_fields(route):
    mu = off_axis_texture(Grid.centered((48, 48), 16.0))
    with pytest.raises(ValueError, match=f"{route.__name__} requires a field decaying"):
        route(mu, E1(), E2())


@pytest.mark.parametrize("route", [cocycle_direct, cocycle_via_pairing,
                                   lambda mu, e1, e2: wedge_lift(mu, e1)],
                         ids=["cocycle_direct", "cocycle_via_pairing", "wedge_lift"])
def test_element_of_the_wrong_dimension_is_refused(route):
    mu = make_constant(Grid.centered((32, 32), 12.0), (0, 0, -1))
    e3 = EuclideanAlgebraElement.translation((1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="algebra element dimension must match the grid"):
        route(mu, e3, E2())


def test_cocycle_zero_for_constant_mu():
    g = Grid.centered((48, 48), 16.0)
    mu = make_constant(g, (0, 0, -1))
    assert cocycle_direct(mu, E1(), E2()) == 0.0
    assert cocycle_via_pairing(mu, E1(), E2()) == 0.0


def test_cocycle_translations_on_solitons(bp_m1_96, bp_m2_96):
    for field, m in ((bp_m1_96, 1), (bp_m2_96, 2)):
        direct = cocycle_direct(field, E1(), E2())
        target = -4.0 * np.pi * omega0((1, 0), (0, 1)) * degree(field)
        assert abs(direct - target) / abs(target) < 1e-12
        assert abs(direct - (-4.0 * np.pi * m)) / (4.0 * np.pi * m) < 0.02


def cocycle_by_planes(mu, e1, e2):
    """The cocycle as the quadrature of its density, plane by plane:
    -int sum_{i<j} (c1_i c2_j - c1_j c2_i) F_ij with the velocity fields and
    the allocating 2-form on the grid; returned with the integral of the sum
    of the terms' absolute values, the scale on which its rounding lives."""
    c1, c2 = e1.velocity_field(mu.grid), e2.velocity_field(mu.grid)
    dens, scale = np.zeros(mu.grid.dims), np.zeros(mu.grid.dims)
    for (i, j), f in two_form(mu).items():
        term = (c1[..., i] * c2[..., j] - c1[..., j] * c2[..., i]) * f
        dens += term
        scale += np.abs(term)
    return -float(integrate(dens, mu.grid)), float(integrate(scale, mu.grid))


@pytest.mark.parametrize("mu", [
    lambda: make_random_smooth(Grid.centered((128, 128), 16.0), seed=4, amplitude=1.8),
    lambda: make_random_smooth(Grid.centered((64,) * 3, 12.0), seed=4, amplitude=1.5),
], ids=["128^2", "64^3"])
def test_cocycle_direct_matches_the_plane_by_plane_density(mu):
    # G's contraction and the density loop are one quadrature summed in two
    # orders; the gap is taken on the scale of the density's terms, so a
    # near-zero cocycle (a degree-0 field, up to 9e-13 relative) does not
    # inflate it: worst 2.4e-16 over 20 pairs each at 128^2, 64^3 and on
    # 96^2 solitons
    mu, rng = mu(), np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        a, b = random_element(mu.grid.p, rng), random_element(mu.grid.p, rng)
        want, scale = cocycle_by_planes(mu, a, b)
        worst = max(worst, abs(cocycle_direct(mu, a, b) - want) / scale)
    assert worst < 1e-14


def test_cocycle_antisymmetry_and_bilinearity():
    g = Grid.centered((48, 48), 16.0)
    mu = make_random_smooth(g, seed=14, amplitude=1.4)
    rng = np.random.default_rng(3)
    a, b = random_element(2, rng), random_element(2, rng)
    s_ab = cocycle_direct(mu, a, b)
    assert abs(s_ab + cocycle_direct(mu, b, a)) < 1e-12
    a25 = EuclideanAlgebraElement(2, 2.5 * a.omega_upper, 2.5 * a.adot)
    assert abs(cocycle_direct(mu, a25, b) - 2.5 * s_ab) < 1e-10 * abs(s_ab)
    assert abs(cocycle_via_pairing(mu, a25, b) - 2.5 * cocycle_via_pairing(mu, a, b)) \
        < 1e-10 * max(abs(s_ab), 1.0)


def test_cocycle_two_paths_agree_on_random_inputs():
    rng = np.random.default_rng(4)
    worst = 0.0
    for case in range(20):
        g = Grid.centered((48, 48), 16.0)
        mu = make_random_smooth(g, seed=100 + case, amplitude=1.4)
        a, b = random_element(2, rng), random_element(2, rng)
        direct = cocycle_direct(mu, a, b)
        paired = cocycle_via_pairing(mu, a, b)
        scale = max(abs(direct), abs(paired), 1e-12)
        worst = max(worst, abs(direct - paired) / scale)
    assert worst < 0.01


def test_cocycle_translation_block_depends_only_on_degree():
    # same degree, different profiles and centers: the translation cocycle
    # agrees (its only field dependence is through the degree)
    g = Grid.centered((128, 128), 20.0)
    f1 = make_bp_soliton(g, 1, 1.4, 6.0)
    f2 = make_bp_soliton(g, 1, 1.8, 6.0, center=(1.0, -0.5))
    s1 = cocycle_direct(f1, E1(), E2())
    s2 = cocycle_direct(f2, E1(), E2())
    assert abs(s1 - s2) / abs(s1) < 0.01


# ---------- Lie-Poisson bracket ----------

def test_bracket_antisymmetric_and_degenerate():
    g = Grid.centered((48, 48), 16.0)
    n = make_random_smooth(g, seed=15, amplitude=1.4)
    dF = random_tangent(n, 20)
    dG = random_tangent(n, 21)
    assert lie_poisson_bracket(dF, dF, n) == 0.0
    ab = lie_poisson_bracket(dF, dG, n)
    assert abs(ab + lie_poisson_bracket(dG, dF, n)) < 1e-12 * max(abs(ab), 1.0)
    # bilinear
    assert abs(lie_poisson_bracket(2.0 * dF, dG, n) - 2.0 * ab) < 1e-10 * max(abs(ab), 1.0)
    # blind to normal parts, so the arguments need no projection
    rng = np.random.default_rng(23)
    alpha, beta = (rng.normal(size=g.dims + (1,)) for _ in range(2))
    moved = lie_poisson_bracket(dF + alpha * n.values, dG + beta * n.values, n)
    assert abs(moved - ab) <= 1e-12 * abs(ab)


def test_bracket_refuses_derivatives_not_shaped_like_the_field():
    # two constant covectors broadcast over the grid and gave -62.80
    g = Grid.centered((48, 48), 16.0)
    n = make_random_smooth(g, seed=15, amplitude=1.4)
    dF = random_tangent(n, 20)
    for a, b, name in ((np.array([1, 0, 0]), np.array([0, 1, 0]), "dF"),
                       (dF, dF[..., :1], "dG"), (dF[None], dF, "dF")):
        with pytest.raises(ValueError, match=f"{name}: shape"):
            lie_poisson_bracket(a, b, n)


def test_bracket_vanishes_at_equilibrium_factor():
    g = Grid.centered((32, 32), 12.0)
    n = make_constant(g, (0, 0, -1))
    dE = variational_derivative_energy(n, EnergyParams(a=1.0))
    dG = random_tangent(n, 22)
    assert lie_poisson_bracket(dE, dG, n) == 0.0


def test_bracket_consistent_with_dynamics():
    # d/dt F(n(t)) == {F, E}(n(t)) for the linear observable F_v = int n . v
    g = Grid.centered((48, 48), 16.0)
    n0 = make_random_smooth(g, seed=13, amplitude=1.4)
    params = EnergyParams(a=0.6)
    rng = np.random.default_rng(5)
    v = np.stack([band_limited(g, rng, 3) for _ in range(3)], axis=-1)
    vol = g.cell_volume

    def F(field):
        return float((field.values * v).sum() * vol)

    cfg = SimConfig(dt=1e-3, steps=1, params=params)
    n1 = step(n0, cfg)
    n2 = step(n1, cfg)
    dFdt = (F(n2) - F(n0)) / (2.0 * cfg.dt)
    bracket = lie_poisson_bracket(v, variational_derivative_energy(n1, params), n1)
    assert abs(dFdt - bracket) / abs(bracket) < 0.02


def test_bracket_consistent_for_conserved_N():
    # both sides are ~0 for the rotation charge: compare at the scale of the
    # raw rates, not against zero
    from llgeo import K_AXIS, momentum_N
    from allocating_stepper import ll_rhs

    g = Grid.centered((48, 48), 16.0)
    n0 = make_random_smooth(g, seed=13, amplitude=1.4)
    params = EnergyParams(a=0.6)
    cfg = SimConfig(dt=1e-3, steps=1, params=params)
    n1 = step(n0, cfg)
    n2 = step(n1, cfg)
    dNdt = (momentum_N(n2) - momentum_N(n0)) / (2.0 * cfg.dt)
    dN = np.broadcast_to(K_AXIS, n1.values.shape)
    bracket = lie_poisson_bracket(dN, variational_derivative_energy(n1, params), n1)
    scale = float(np.linalg.norm(ll_rhs(n1, params)))
    assert abs(dNdt) < 0.02 * scale and abs(bracket) < 0.02 * scale


# ---------- {P_x, P_y} ----------

def test_px_py_bracket_vacuum():
    g = Grid.centered((16, 16), 8.0)
    bracket, fourpi = check_px_py_bracket(make_constant(g, (0, 0, -1)))
    assert abs(bracket) < 1e-10 and fourpi == 0.0


def test_px_py_bracket_p1_rejected():
    g = Grid.centered((32,), 8.0)
    with pytest.raises(ValueError):
        check_px_py_bracket(make_constant(g, (0, 0, -1)))


def test_px_py_bracket_near_4pi_deg_coarse():
    g = Grid.centered((48, 48), 16.0)
    bp = make_bp_soliton(g, 1, 1.5, 6.0)
    bracket, fourpi = check_px_py_bracket(bp)
    assert abs(bracket - fourpi) / abs(fourpi) < 0.06


def test_bracket_equals_minus_cocycle(bp_m1_96):
    # {P_x, P_y} = J_{[i,j]} - Sigma(i,j) with [i,j] = 0 in se(2)
    bracket, _ = check_px_py_bracket(bp_m1_96)
    sigma = cocycle_direct(bp_m1_96, E1(), E2())
    assert abs(bracket - (-sigma)) / abs(sigma) < 0.03

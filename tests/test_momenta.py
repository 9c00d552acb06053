import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llgeo import (
    Grid,
    K_AXIS,
    SingularLiftError,
    degree,
    gauge_invariance_residual,
    check_lift_identity,
    lift_psi,
    lift_singular_mask,
    make_bp_soliton,
    make_constant,
    make_gauge_bump_alpha,
    make_radial_profile,
    make_random_smooth,
    moments,
    momentum_JH,
    momentum_N,
    momentum_P_cross,
    momentum_P_derivative,
    momentum_P_general,
    reduced_momentum_lift,
    rotational_momentum,
)
from llgeo import momenta
from llgeo.momenta import (
    MAX_SINGULAR_FRACTION,
    MomentumReport,
    _JH_density,
    _gradients,
    _lift_identity_residual,
    _lift_integrand,
    _two_form,
)
from llgeo.calculus import integrate, partial

from allocating_report import density_P, density_route, first_moments
from so3_oracle import matrix, quaternion, so3_exp
from conftest import off_axis_texture, relative_gap
from fd_oracle import functional_derivative
from test_generators import profile_bump

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


# ---------- report container ----------

def test_momentum_report_requires_skew_L():
    with pytest.raises(ValueError):
        MomentumReport(t=0.0, energy=1.0, N=0.0, P=np.zeros(2),
                       L=np.array([[0.0, 1.0], [1.0, 0.0]]), deg=0.0, norm_dev=0.0)


# ---------- degree ----------

def test_degree_vacuum_zero_and_p_check():
    g = Grid.centered((24, 24), 8.0)
    assert degree(make_constant(g, (0, 0, -1))) == 0.0
    g1 = Grid.centered((24,), 8.0)
    with pytest.raises(ValueError):
        degree(make_constant(g1, (0, 0, -1)))


def test_degree_translation_invariance():
    g = Grid.centered((128, 128), 20.0)
    h = g.spacing[0]
    d0 = degree(make_bp_soliton(g, 1, 1.2, 5.0))
    d1 = degree(make_bp_soliton(g, 1, 1.2, 5.0, center=(16 * h, -8 * h)))
    assert abs(d0 - d1) < 1e-8


# ---------- N ----------

def test_momentum_N_vacuum_and_positivity():
    g = Grid.centered((24, 24), 8.0)
    assert momentum_N(make_constant(g, (0, 0, -1))) == 0.0
    f = make_radial_profile(g, profile_bump(0.8, 2.5))
    assert momentum_N(f) > 0.0


def test_momentum_N_quadrature_cross_check():
    # bump of tilt against a twice-refined quadrature of the same field
    vals = []
    for nn in (64, 128):
        g = Grid.centered((nn, nn), 16.0)
        f = make_radial_profile(g, profile_bump(1.0, 4.0))
        vals.append(momentum_N(f))
    assert abs(vals[0] - vals[1]) / vals[1] < 1e-4


def test_momentum_N_invariant_under_rotation_about_k():
    g = Grid.centered((48, 48), 16.0)
    f = make_random_smooth(g, seed=2, amplitude=1.4)
    rotated = f.with_values(f.values @ so3_exp(0.83 * K_AXIS).T)
    assert abs(momentum_N(f) - momentum_N(rotated)) < 1e-12


# ---------- the 2-form and P (p = 3) ----------

def _two_form_maxima(n):
    """The plane keys of n's 2-form in the order _two_form yields them, and
    each plane's largest |F|, read before the next plane is written."""
    return [(ij, np.abs(f).max()) for ij, f in _two_form(n, _gradients(n), np.empty(n.grid.dims))]


def test_two_form_zero_for_constant_and_1d_variation():
    # the vorticity of the curl form of P is F read as a vector; the planes
    # come one at a time in plane_pairs order, each into the one out plane
    g = Grid.centered((16, 16, 16), 8.0)
    vacuum = make_constant(g, (0, 0, -1))
    assert _two_form_maxima(vacuum) == [((0, 1), 0.0), ((0, 2), 0.0), ((1, 2), 0.0)]

    x = g.coords()[..., 0]
    theta = 0.6 * np.exp(-(x ** 2))
    vals = np.zeros(g.dims + (3,))
    vals[..., 0] = np.sin(theta)
    vals[..., 2] = -np.cos(theta)
    from llgeo import SpinField

    f = SpinField(g, vals, decaying=False)
    maxima = _two_form_maxima(f)
    assert [ij for ij, _ in maxima] == [(0, 1), (0, 2), (1, 2)]
    assert all(top < 1e-12 for _, top in maxima)

    g2 = Grid.centered((16, 16), 8.0)
    with pytest.raises(ValueError, match="p = 3"):
        momentum_P_cross(make_constant(g2, (0, 0, -1)))


def test_p3_cross_form_equals_general_form():
    g = Grid.centered((24, 24, 24), 12.0)
    f = make_random_smooth(g, seed=11, amplitude=1.5)
    pc = momentum_P_cross(f)
    pg = momentum_P_general(f)
    assert relative_gap(pc, pg) < 1e-6


def test_p3_spherical_field_zero_momentum():
    g = Grid.centered((24, 24, 24), 12.0)
    f = make_radial_profile(g, profile_bump(1.0, 4.0))
    assert np.abs(momentum_P_cross(f)).max() < 1e-10
    assert np.abs(momentum_P_general(f)).max() < 1e-10


# ---------- P and its density ----------

def test_momentum_P_rejects_p1_and_vacuum_is_zero():
    g1 = Grid.centered((32,), 8.0)
    with pytest.raises(ValueError):
        momentum_P_general(make_constant(g1, (0, 0, -1)))
    g = Grid.centered((24, 24), 8.0)
    assert np.abs(momentum_P_general(make_constant(g, (0, 0, -1)))).max() == 0.0


def test_momentum_P_radial_zero():
    g = Grid.centered((96, 96), 16.0)
    f = make_radial_profile(g, profile_bump(1.1, 5.0))
    assert np.abs(momentum_P_general(f)).max() < 1e-8
    assert np.abs(density_P(f)).max() < 1e-10


@pytest.mark.parametrize("field", [
    lambda: make_bp_soliton(Grid.centered((64, 64), 16.0), 1, 1.5, 5.0, center=(0.8, -0.4)),
    lambda: make_random_smooth(Grid.centered((48, 52), 12.0), seed=4, amplitude=1.5),
    lambda: make_random_smooth(Grid.centered((20, 22, 24), 12.0), seed=0, amplitude=1.5),
], ids=["soliton_2d", "random_2d", "random_3d"])
def test_momentum_P_and_L_are_the_moments_of_the_density(field):
    # the moment tensor sums x_j F_ij axis by axis; the density route sums
    # the P-density plane by plane: the same quadrature in another order
    # (worst 6.1e-15 over solitons and random fields at 48^2 to 64^3)
    f = field()
    _, P, L = moments(f)
    P_dens, L_dens = density_route(f)
    assert relative_gap(P, P_dens) < 1e-13 and relative_gap(L, L_dens) < 1e-13


def test_momentum_P_shift_identity():
    # translating by delta changes P by 4*pi*deg * J delta
    g = Grid.centered((160, 160), 20.0)
    delta = np.array([1.0, 0.5])
    f0 = make_bp_soliton(g, 1, 1.5, 6.0)
    f1 = make_bp_soliton(g, 1, 1.5, 6.0, center=delta)
    predicted = 4.0 * np.pi * degree(f0) * (J2 @ delta)
    assert relative_gap(momentum_P_general(f1) - momentum_P_general(f0), predicted) < 1e-6


def p_component_oracle(n, axis):
    return functional_derivative(lambda f: float(momentum_P_general(f)[axis]), n, step=1e-4)


def test_momentum_P_derivative_matches_fd_oracle_2d():
    n = make_random_smooth(Grid.centered((16, 16), 8.0), seed=9, amplitude=1.4)
    adjoint = momentum_P_derivative(n)
    assert adjoint.shape == (2, 16, 16, 3)
    for axis in range(2):
        assert relative_gap(adjoint[axis], p_component_oracle(n, axis)) < 1e-8


def test_momentum_P_derivative_matches_fd_oracle_3d():
    n = make_random_smooth(Grid.centered((9, 10, 11), 6.0), seed=4, amplitude=1.2,
                           support=0.55)
    assert relative_gap(momentum_P_derivative(n)[2], p_component_oracle(n, 2)) < 1e-8


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), amplitude=st.floats(0.3, 2.0))
def test_momentum_P_derivative_oracle_property(seed, amplitude):
    n = make_random_smooth(Grid.centered((12, 13), 6.0), seed=seed, amplitude=amplitude)
    adjoint = momentum_P_derivative(n)
    for axis in range(2):
        assert relative_gap(adjoint[axis], p_component_oracle(n, axis)) < 1e-8


def test_momentum_P_derivative_is_tangent_and_needs_decay():
    n = make_random_smooth(Grid.centered((16, 16), 8.0), seed=2)
    dots = np.einsum("k...i,...i->k...", momentum_P_derivative(n), n.values)
    assert np.abs(dots).max() < 1e-12
    with pytest.raises(ValueError):
        momentum_P_derivative(make_constant(Grid.centered((16, 16), 8.0), (1, 0, 0)))


def test_rotational_momentum_shift_identity():
    # exact wedge-shift identity: L' = L - delta ^ (P + P'), with P' the
    # shifted field's momentum (P itself shifts by the degree cocycle)
    g = Grid.centered((160, 160), 20.0)
    delta = np.array([1.0, 0.5])
    f0 = make_bp_soliton(g, 1, 1.5, 6.0)
    f1 = make_bp_soliton(g, 1, 1.5, 6.0, center=delta)
    L0 = rotational_momentum(f0)[0, 1]
    L1 = rotational_momentum(f1)[0, 1]
    P0 = momentum_P_general(f0)
    P1 = momentum_P_general(f1)
    psum = P0 + P1
    wedge_shift = delta[0] * psum[1] - delta[1] * psum[0]
    # rotational_momentum carries (p-1)/p of the raw wedge moment
    assert abs(L1 - (L0 - 0.5 * wedge_shift)) / abs(L1) < 1e-6


def test_rotational_momentum_radial_and_symmetric():
    g = Grid.centered((96, 96), 16.0)
    f = make_radial_profile(g, profile_bump(1.1, 5.0))
    assert np.abs(rotational_momentum(f)).max() < 1e-10


def test_rotational_momentum_normalization_factor():
    # the raw wedge moment is p/(p-1) times the generator-normalized charge
    g = Grid.centered((64, 64), 16.0)
    f = make_bp_soliton(g, 1, 1.5, 5.0)
    dens = np.moveaxis(density_P(f), 0, -1)
    x = g.coords()
    wedge = x[..., :, None] * dens[..., None, :] - dens[..., :, None] * x[..., None, :]
    raw = integrate(wedge, g)
    assert relative_gap(rotational_momentum(f), -0.5 * raw) < 1e-14


# ---------- the moments memo of a checked field ----------

def _memo_field(p):
    if p == 2:
        return make_random_smooth(Grid.centered((40, 44), 12.0), seed=3, amplitude=1.5)
    return make_random_smooth(Grid.centered((16, 17, 18), 12.0), seed=4, amplitude=1.5)


def _same(a, b):
    return all((x is None and y is None) or np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("p", [2, 3], ids=["2d", "3d"])
def test_memoized_moments_are_bitwise_a_fresh_pass(monkeypatch, p):
    n = _memo_field(p)
    want = moments(n.with_values(np.copy(n.values), check=False))
    assert _same(moments(n), want)
    passes = []
    monkeypatch.setattr(momenta, "_gradients", lambda *args: passes.append(args))
    for _ in range(2):  # answered from the memo, without a derivative pass
        assert _same(moments(n), want)
    assert passes == []


def test_memoized_moments_hand_out_copies():
    n = _memo_field(2)
    deg, P, L = moments(n)
    want = (deg, P.copy(), L.copy())
    for _ in range(2):  # the first answer is the pass's own, later ones the memo's
        P += 1.0
        L[...] = 0.0
        assert _same(moments(n), want)
        deg, P, L = moments(n)


def test_unchecked_field_never_answers_from_a_memo():
    # a check=False field adopts its buffer (as the stepper's pooled fields
    # do), so overwriting the buffer between calls changes the answer
    a, b = _memo_field(2), make_random_smooth(Grid.centered((40, 44), 12.0), seed=5,
                                              amplitude=1.5)
    buf = np.copy(a.values)  # planar, like the payload, so it is adopted
    f = a.with_values(buf, check=False)
    assert f.values is buf
    assert _same(moments(f), moments(a))
    np.copyto(buf, b.values)
    assert _same(moments(f), moments(b)) and not _same(moments(b), moments(a))
    assert f._G is None


@pytest.mark.parametrize("call", [moments, degree, momentum_P_general, rotational_momentum])
def test_moments_refusals_hold_on_every_call(call):
    for n in (off_axis_texture(Grid.centered((24, 24), 8.0)),
              make_constant(Grid.centered((32,), 8.0), (0, 0, -1))):
        for _ in range(2):
            with pytest.raises(ValueError):
                call(n)


# ---------- lift ----------

def test_lift_defining_property_and_identity_at_vacuum():
    g = Grid.centered((64, 64), 16.0)
    n = make_random_smooth(g, seed=7, amplitude=1.8)
    psi = lift_psi(n)
    image = matrix(psi.values) @ K_AXIS
    assert np.abs(image + n.values).max() < 1e-12
    mask = g.boundary_mask()
    assert np.array_equal(psi.values[mask], np.broadcast_to([1.0, 0, 0, 0], (mask.sum(), 4)))


def test_lift_quarter_turn_example():
    g = Grid.centered((24, 24), 8.0)
    # plateau field: n = (1, 0, 0) where the angle from -k is pi/2
    n = make_radial_profile(g, lambda r: np.where(r < 2.0, np.pi / 2.0, 0.0))
    idx = np.unravel_index(np.argmax(n.values[..., 0]), g.dims)
    assert n.values[idx][0] == 1.0
    psi = lift_psi(n)
    expected = (np.pi / 2) * np.array([0.0, -1.0, 0.0])
    assert np.abs(psi.values[idx] - quaternion(expected)).max() < 1e-15
    assert np.abs(matrix(psi.values[idx]) - so3_exp(expected)).max() < 1e-15
    assert np.allclose(matrix(psi.values[idx]) @ K_AXIS, (-1.0, 0.0, 0.0), atol=1e-15)


def test_lift_is_unit_near_plus_k_off_unit_length():
    # a legal field, |n| = 1 + 5e-13 inside, with a plateau 5e-7 from +k:
    # q stays unit to rounding, so the one-step motions pass so3_log's check
    # (a lift that is unit only for a unit n would be off by ~5e-7 there)
    g = Grid.centered((48, 48), 16.0)
    f = make_radial_profile(g, lambda r: np.where(r < 3.0, np.pi - 1e-3, 0.0))
    inside = ~g.boundary_mask()
    values = np.array(f.values)
    values[inside] *= 1.0 + 5e-13
    n = f.with_values(values)
    assert not lift_singular_mask(n).any() and n.values[..., 2].max() > 1.0 - 1e-6
    q = lift_psi(n).values
    assert np.abs((q ** 2).sum(axis=-1) - 1.0).max() <= 1e-15
    assert np.isfinite(momentum_JH(lift_psi(n), n)[1]).all()


def test_lift_singular_cells_reported():
    g = Grid.centered((96, 96), 16.0)
    f = make_radial_profile(g, lambda r: np.where(r < 0.5, np.pi, 0.0))
    # profile == pi inside r<0.5: the field sits at +k on 32 cells (0.35%),
    # a thin singular set that the lift accepts
    singular = lift_singular_mask(f)
    assert singular.sum() == 32
    psi = lift_psi(f)  # singular cells take the deterministic half-turn
    assert np.array_equal(psi.values[singular], np.broadcast_to([0.0, 1, 0, 0], (32, 4)))
    assert np.array_equal(matrix(psi.values[singular]),
                          np.broadcast_to(np.diag([1.0, -1.0, -1.0]), (32, 3, 3)))
    image = matrix(psi.values) @ K_AXIS
    assert np.abs(image + f.values).max() < 1e-10


def test_reduced_momentum_vacuum_and_radial():
    g = Grid.centered((96, 96), 16.0)
    rot, trans = reduced_momentum_lift(make_constant(g, (0, 0, -1)))
    assert np.abs(rot).max() == 0.0 and np.abs(trans).max() == 0.0
    rot, trans = reduced_momentum_lift(make_radial_profile(g, profile_bump(1.1, 5.0)))
    assert np.abs(rot).max() < 1e-10 and np.abs(trans).max() < 1e-10


def test_reduced_momentum_refuses_fat_singular_set():
    g = Grid.centered((64, 64), 16.0)
    f = make_radial_profile(g, lambda r: np.where(r < 5.0, np.pi, 0.0))
    with pytest.raises(SingularLiftError):
        reduced_momentum_lift(f)


def test_three_momentum_routes_agree(smooth_128):
    n = smooth_128
    rot_a, tr_a = reduced_momentum_lift(n)
    rot_b, tr_b = momentum_JH(lift_psi(n), n)
    rot_c = rotational_momentum(n)
    tr_c = momentum_P_general(n)
    assert relative_gap(rot_a, rot_b) < 0.02
    assert relative_gap(rot_a, rot_c) < 0.02
    assert relative_gap(rot_b, rot_c) < 0.02
    assert relative_gap(tr_a, tr_b) < 0.02
    assert relative_gap(tr_a, tr_c) < 0.02
    assert relative_gap(tr_b, tr_c) < 0.02


@pytest.mark.parametrize("dims, box", [((128, 128), 16.0), ((64, 64, 64), 12.0),
                                       ((40, 44), 12.0)], ids=["128^2", "64^3", "40x44"])
def test_lift_and_JH_moments_equal_the_coordinate_plane_oracle(dims, box):
    # the lift and J^H routes read their first moments off the lattice
    # contraction; the oracle takes each as a dot product with a coordinate
    # plane: the same quadrature in another summation order (worst 5.6e-15
    # of the largest entry over seeds 0-7, amplitudes 1 and 1.8, at 40x44,
    # 96^2, 128^2 and 64^3)
    n = make_random_smooth(Grid.centered(dims, box), seed=7, amplitude=1.8)
    psi = lift_psi(n)
    for got, density in ((reduced_momentum_lift(n), _lift_integrand(n)[0]),
                         (momentum_JH(psi, n), _JH_density(psi, n))):
        rot, total = first_moments(density, n.grid)
        want = np.concatenate([rot.ravel(), -total])
        gap = np.abs(np.concatenate([got[0].ravel(), got[1]]) - want).max()
        assert gap <= 2e-14 * np.abs(want).max()


def test_momentum_JH_identity_field_is_zero():
    g = Grid.centered((48, 48), 16.0)
    from llgeo import RotationField

    eye = np.broadcast_to([1.0, 0.0, 0.0, 0.0], g.dims + (4,)).copy()
    psi = RotationField(g, eye)
    mu = make_random_smooth(g, seed=3, amplitude=1.2)
    rot, trans = momentum_JH(psi, mu)
    assert np.abs(rot).max() == 0.0 and np.abs(trans).max() == 0.0


def test_momentum_JH_gauge_shift_formula():
    # moving the lifted point by the turn alpha about k shifts J^H by
    # (int x ^ grad alpha, -int grad alpha) for the momentum slot mu = -psi k
    g = Grid.centered((96, 96), 16.0)
    n = make_random_smooth(g, seed=9, amplitude=1.5)
    alpha = make_gauge_bump_alpha(g, winding=1, support=0.5)
    from llgeo import make_gauge_field

    psi = lift_psi(n)
    moved = psi.compose(make_gauge_field(g, alpha).inverse(), check=False)
    rot0, tr0 = momentum_JH(psi, n)
    rot1, tr1 = momentum_JH(moved, n)

    ga = [partial(alpha, g, i) for i in range(2)]
    x = g.coords()
    rot_shift = integrate(x[..., 0] * ga[1] - x[..., 1] * ga[0], g)
    tr_shift = np.array([integrate(ga[0], g), integrate(ga[1], g)])
    assert abs((rot1 - rot0)[0, 1] - rot_shift) < 2e-2
    assert np.abs((tr1 - tr0) - (-tr_shift)).max() < 2e-2


def test_momentum_JH_reads_one_axis_at_a_time():
    # each axis's right gradient is dotted into its density plane as soon as
    # it is made, so no stack of all p gradients is ever held: the peak stays
    # below 5 spin fields (one axis's logs and gradient, and the p planes)
    n = make_random_smooth(Grid.centered((32, 32, 32), 12.0), seed=1, amplitude=1.5)
    psi = lift_psi(n)
    tracemalloc.start()
    try:
        momentum_JH(psi, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n.values.nbytes


# ---------- gauge invariance ----------

def test_gauge_residual_zero_for_trivial_gauge():
    g = Grid.centered((48, 48), 16.0)
    n = make_random_smooth(g, seed=9, amplitude=1.5)
    assert gauge_invariance_residual(n, np.zeros(g.dims)) == 0.0


def test_gauge_residual_p2_shrinks_under_refinement():
    residuals = []
    for nn in (48, 96):
        g = Grid.centered((nn, nn), 16.0)
        n = make_random_smooth(g, seed=9, amplitude=1.5)
        residuals.append(gauge_invariance_residual(n, make_gauge_bump_alpha(g, 1, 0.5)))
    assert residuals[1] < residuals[0] / 1.8


def test_gauge_residual_p1_winding_is_2pi():
    g = Grid.centered((256,), 16.0)
    n = make_constant(g, (0, 0, -1))
    res = gauge_invariance_residual(n, make_gauge_bump_alpha(g, winding=1))
    assert abs(res - 2.0 * np.pi) < 1e-6
    res2 = gauge_invariance_residual(n, make_gauge_bump_alpha(g, winding=2))
    assert abs(res2 - 4.0 * np.pi) < 1e-6


# ---------- lift identity ----------

def test_lift_identity_vacuum_zero():
    g = Grid.centered((48, 48), 16.0)
    assert check_lift_identity(make_constant(g, (0, 0, -1))) == 0.0


def test_lift_identity_refuses_fat_singular_set():
    # 19.6% of the cells sit at +k: a residual over the rest would say PASS
    g = Grid.centered((96, 96), 16.0)
    f = make_radial_profile(g, lambda r: np.where(r < 4.0, np.pi, 0.0))
    assert lift_singular_mask(f).mean() > MAX_SINGULAR_FRACTION
    # every lift route refuses the field with the same message
    routes = (check_lift_identity, reduced_momentum_lift, lift_psi,
              lambda n: momentum_JH(lift_psi(n), n),
              lambda n: gauge_invariance_residual(n, np.zeros(g.dims)))
    for route in routes:
        with pytest.raises(SingularLiftError,
                           match=r"^19\.57% of cells are singular \(limit 1%\)$"):
            route(f)


def test_lift_identity_converges():
    vals = []
    for nn in (48, 96):
        g = Grid.centered((nn, nn), 16.0)
        vals.append(check_lift_identity(make_random_smooth(g, seed=7, amplitude=1.8)))
    assert vals[1] < vals[0] / 1.8


def test_lift_identity_near_singular_zone_localized():
    # a wide soliton comes within 1e-2 of +k at the center cells; the lift
    # identity residual blows up there and stays moderate elsewhere
    g = Grid.centered((96, 96), 16.0)
    n = make_bp_soliton(g, 1, 2.0, 6.0)
    resid = _lift_identity_residual(n)
    kdot = n.values @ K_AXIS
    near = kdot > 0.8
    assert near.any() and (~near).any()
    assert resid[near].max() > 10.0 * resid[~near].max()

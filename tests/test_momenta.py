import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llgeo import (
    Grid,
    K_AXIS,
    RotationField,
    SingularLiftError,
    check_px_py_bracket,
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
    _lift_frame,
    _lift_integrand,
    _two_form,
)
from llgeo.calculus import cross3, integrate, partial, right_gradient_axis
from llgeo.fields import _dot3

from allocating_report import density_P, density_route, first_moments
from so3_oracle import matrix, qmul, quaternion, so3_exp
from conftest import coords, off_axis_texture, peak_bytes, relative_gap
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

    x = coords(g)[..., 0]
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


# ---------- the adjoint of the moment tensor ----------

def K_deg():
    """The coefficients of deg = G[0, 1, 2, 2] / 4pi (moments)."""
    K = np.zeros((2, 2, 3, 3))
    K[0, 1, 2, 2] = 1.0 / (4.0 * np.pi)
    return K


def K_L(p, a, b):
    """The coefficients of L[a, b] = (m_ba - m_ab) / p, with
    m_ai = sum_j G[i, j, a, j] (moments)."""
    K = np.zeros((p, p, p + 1, p + 1))
    j = np.arange(p)
    K[a, j, b, j] += 1.0 / p
    K[b, j, a, j] -= 1.0 / p
    return K


ADJOINT_CASES = {
    "deg_2d": (K_deg(), lambda f: moments(f)[0]),
    "L_01_2d": (K_L(2, 0, 1), lambda f: moments(f)[2][0, 1]),
    "L_02_3d": (K_L(3, 0, 2), lambda f: moments(f)[2][0, 2]),
}


@pytest.mark.parametrize("case", ADJOINT_CASES)
def test_moment_adjoint_matches_fd_oracle(case):
    # the fields of the P-derivative oracle tests above
    K, functional = ADJOINT_CASES[case]
    n = (make_random_smooth(Grid.centered((16, 16), 8.0), seed=9, amplitude=1.4)
         if K.shape[0] == 2 else
         make_random_smooth(Grid.centered((9, 10, 11), 6.0), seed=4, amplitude=1.2,
                            support=0.55))
    assert abs(np.sum(K * momenta._tensor(n)) - functional(n)) <= 1e-14 * abs(functional(n))
    adjoint = momenta._moment_adjoint(n, _gradients(n), K)
    assert relative_gap(adjoint, functional_derivative(functional, n, step=1e-4)) < 1e-8


@pytest.mark.parametrize("dims", [(16, 16), (9, 10, 11)])
def test_moment_adjoint_pulls_back_once_per_axis(monkeypatch, dims):
    # one partial_T per axis and functional: p per component of P, and two
    # for each of the bracket's two gradients
    n = make_random_smooth(Grid.centered(dims, 6.0), seed=4, support=0.55)
    p, axes, partial_T = n.grid.p, [], momenta.partial_T
    monkeypatch.setattr(momenta, "partial_T", lambda *args: axes.append(args[2]) or partial_T(*args))
    momentum_P_derivative(n)
    assert axes == list(range(p)) * p
    if p == 2:
        axes.clear()
        check_px_py_bracket(n)
        assert axes == [0, 1, 0, 1]


def test_P_derivative_memory_at_64_cubed():
    # in field arrays: the p derivatives, the p outputs and the adjoint's
    # working set (v, c and partial_T's result) come to 9.06; one
    # functional's gradient, its derivatives given, to 4.06 with its output
    n = make_random_smooth(Grid.centered((64, 64, 64), 12.0), seed=1, amplitude=1.5)
    field = n.values.nbytes
    assert peak_bytes(lambda: momentum_P_derivative(n)) <= 9.5 * field
    grads = _gradients(n)
    assert peak_bytes(lambda: momenta._moment_adjoint(n, grads, momenta._K_P(3)[0])) <= 4.5 * field


@pytest.fixture(scope="module")
def random_64_cubed():
    return make_random_smooth(Grid.centered((64, 64, 64), 12.0), seed=3, amplitude=1.5)


def _stacked(planes):
    """The planes of a density stream as one (p,) + dims array, each copied
    as it is yielded (a stream writes every plane into one buffer)."""
    return np.stack([np.array(plane) for plane in planes])


def test_lift_memory_at_64_cubed(random_64_cubed):
    # in field arrays: the closed form's one density plane, a scratch plane,
    # the denominator and the derivative of (n_x, n_y) along one axis come
    # to 1.74; holding all p planes and a three-component derivative took
    # 2.75, and a field array for k x n 3.71 before that
    n = random_64_cubed
    assert peak_bytes(lambda: reduced_momentum_lift(n)) <= 2.0 * n.values.nbytes


@pytest.mark.parametrize("route, bound", [("JH", 5.2), ("check", 6.3), ("gauge", 8.0)])
def test_lift_routes_hold_one_density_plane_at_a_time_at_64_cubed(random_64_cubed, route, bound):
    # in field arrays, with the p density planes held whole: 5.67 for
    # J^H(lift_psi(n), n), 6.71 for the lift identity and 8.33 for the
    # gauge residual; each density streamed one plane at a time: 5.00,
    # 6.04 and 7.67
    n = random_64_cubed
    alpha = make_gauge_bump_alpha(n.grid, 1, 0.5)
    call = {"JH": lambda: momentum_JH(lift_psi(n), n), "check": lambda: check_lift_identity(n),
            "gauge": lambda: gauge_invariance_residual(n, alpha)}[route]
    assert peak_bytes(call) <= bound * n.values.nbytes


@pytest.mark.parametrize("dims", [(40, 44), (20, 22, 24)], ids=["2d", "3d"])
def test_closed_form_differentiates_only_n_x_and_n_y(monkeypatch, dims):
    # k x n = (-n_y, n_x, 0) reads two components, and only those are
    # differentiated: one call per axis, each on a two-component array
    n = make_random_smooth(Grid.centered(dims, 12.0), seed=3, amplitude=1.5)
    want = reduced_momentum_lift(n)
    shapes = []
    monkeypatch.setattr(momenta, "partial",
                        lambda values, *args, **kw: shapes.append(values.shape) or partial(values, *args, **kw))
    got = reduced_momentum_lift(n)
    assert shapes == [dims + (2,)] * len(dims)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("dims", [(40, 44), (20, 22, 24)], ids=["2d", "3d"])
def test_lift_integrand_is_the_cross_formula(dims):
    # (n_x d_i n_y - n_y d_i n_x) / (1 - n_z) is (k x n) . d_i n / (1 - k.n)
    # with k x n from cross3: the same values, up to the sign of a zero,
    # two singular cells (+k) zeroed included
    n = make_random_smooth(Grid.centered(dims, 12.0), seed=3, amplitude=2.5)
    values = np.array(n.values)
    values[(10,) * len(dims)] = values[(11,) * len(dims)] = K_AXIS
    n = n.with_values(values)
    singular = lift_singular_mask(n)
    assert singular.sum() == 2
    cross = cross3(K_AXIS, n.values)
    denom = np.where(singular, 1.0, 1.0 - n.values[..., 2])
    want = np.stack([_dot3(cross, partial(n.values, n.grid, k)) / denom
                     for k in range(n.grid.p)])
    want[:, singular] = 0.0
    mask = _lift_frame(n)
    got = _stacked(_lift_integrand(n, mask))
    assert np.array_equal(mask, singular)
    assert np.array_equal(got, want)


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
    x = coords(g)
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
    for got, density in ((reduced_momentum_lift(n), _stacked(_lift_integrand(n, _lift_frame(n)))),
                         (momentum_JH(psi, n), _stacked(_JH_density(psi, n)))):
        rot, total = first_moments(density, n.grid)
        want = np.concatenate([rot.ravel(), -total])
        gap = np.abs(np.concatenate([got[0].ravel(), got[1]]) - want).max()
        assert gap <= 2e-14 * np.abs(want).max()


def test_momentum_JH_identity_field_is_zero():
    g = Grid.centered((48, 48), 16.0)
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
    moved = RotationField(g, qmul(psi.values, make_gauge_field(g, alpha).values * [1, -1, -1, -1]),
                          check=False)
    rot0, tr0 = momentum_JH(psi, n)
    rot1, tr1 = momentum_JH(moved, n)

    ga = [partial(alpha, g, i) for i in range(2)]
    x = coords(g)
    rot_shift = integrate(x[..., 0] * ga[1] - x[..., 1] * ga[0], g)
    tr_shift = np.array([integrate(ga[0], g), integrate(ga[1], g)])
    assert abs((rot1 - rot0)[0, 1] - rot_shift) < 2e-2
    assert np.abs((tr1 - tr0) - (-tr_shift)).max() < 2e-2


def test_momentum_JH_refuses_a_momentum_slot_that_is_not_a_spin_field():
    # a RotationField's (..., 4) values read as mu gave a momentum from
    # three of its four quaternion components
    psi = lift_psi(make_random_smooth(Grid.centered((32, 32), 12.0), seed=3, amplitude=1.5))
    for mu in (psi, psi.values[..., 1:]):
        with pytest.raises(TypeError, match="mu must be a SpinField"):
            momentum_JH(psi, mu)


def test_momentum_JH_reads_one_axis_at_a_time():
    # each axis's right gradient is dotted into the one density plane as
    # soon as it is made, and that plane's moments are taken before the
    # next axis, so neither a stack of all p gradients nor the p planes is
    # ever held: the peak is 3.68 spin fields (one axis's logs and
    # gradient), where holding the p planes took 4.34
    n = make_random_smooth(Grid.centered((32, 32, 32), 12.0), seed=1, amplitude=1.5)
    psi = lift_psi(n)
    assert peak_bytes(lambda: momentum_JH(psi, n)) < 3.7 * n.values.nbytes


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
    singular = _lift_frame(n)
    resid = np.max([np.abs(w - wbar) for w, wbar in
                    zip(_JH_density(lift_psi(n), n), _lift_integrand(n, singular))], axis=0)
    resid[singular] = 0.0
    kdot = n.values @ K_AXIS
    near = kdot > 0.8
    assert near.any() and (~near).any()
    assert resid[near].max() > 10.0 * resid[~near].max()


@pytest.mark.parametrize("axis", [0, 1])
def test_lift_identity_keeps_a_nan(monkeypatch, axis):
    # the residual is a running max over the axes' planes; a NaN in either
    # comes through (Python's max(0.0, nan) is 0.0, max(x, nan) is x)
    n = make_random_smooth(Grid.centered((40, 44), 12.0), seed=3, amplitude=1.5)
    assert np.isfinite(check_lift_identity(n))

    def gradient_with_a_nan(psi, k):
        out = right_gradient_axis(psi, k)
        if k == axis:
            out[20, 22, 1] = np.nan
        return out

    monkeypatch.setattr(momenta, "right_gradient_axis", gradient_with_a_nan)
    assert np.isnan(check_lift_identity(n))

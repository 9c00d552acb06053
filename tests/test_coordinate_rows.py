"""Every coordinate reader takes the grid's per-axis rows as an open mesh
(Grid._rows) and gives the same bits as its dense form on full coordinate
planes (conftest.coords), kept here as the oracle.  A grid keeps no
grid-sized array, and no reader builds one."""

import numpy as np
import pytest

from llgeo import (
    EuclideanAlgebraElement,
    Grid,
    cocycle_direct,
    cocycle_via_pairing,
    lift_psi,
    make_bp_soliton,
    make_gauge_bump_alpha,
    make_radial_profile,
    make_random_smooth,
    momentum_JH,
    momentum_P_cross,
    momentum_P_derivative,
    moments,
    reduced_momentum_lift,
)
from llgeo.calculus import cross3, partial, partial_T
from llgeo.fields import K_AXIS, _dot3
from llgeo.generators import _cutoff_blend, band_limited, bump, bump_envelope
from llgeo.momenta import _K_P, _gradients, _moment_adjoint

from conftest import coords, relative_gap, tangent_project

GRIDS = [
    Grid.centered((40,), 10.0),
    Grid((37,), (0.3,), (-5.1,)),
    Grid.centered((40, 52), (10.0, 13.5)),
    Grid((36, 44), (0.3, 0.25), (-5.0, -5.6)),
    Grid.centered((20, 24, 28), (8.0, 9.0, 11.0)),
]
SOLITON_GRID = Grid.centered((48, 56), (12.0, 14.0))
CENTRES = [None, (0.7, -0.4), (-1.2, 1.5)]


def _box(grid):
    return coords(grid) / np.array(grid.half_widths())


def dense_radius(grid):
    return np.sqrt((coords(grid) ** 2).sum(axis=-1))


def dense_bump_envelope(grid, support):
    return bump((_box(grid) ** 2).sum(axis=-1) / support ** 2)


def dense_band_limited(grid, rng, modes):
    u = _box(grid)
    out = np.zeros(grid.dims)
    for _ in range(modes):
        kvec = rng.integers(1, 4, size=grid.p)
        phase = rng.uniform(0, 2 * np.pi, size=grid.p)
        term = np.ones(grid.dims)
        for i in range(grid.p):
            term = term * np.cos(np.pi * kvec[i] * u[..., i] + phase[i])
        out += rng.uniform(0.3, 1.0) * term
    return out / modes


def dense_gauge_ramp(grid, winding, support):
    u = _box(grid)[..., 0]
    t = np.clip((u + support) / (2 * support), 0.0, 1.0)
    return 2.0 * np.pi * winding * _cutoff_blend(t)


def dense_soliton(grid, m, lam, cutoff, center):
    """make_bp_soliton's values with its xy lines on the coordinate planes."""
    center = np.zeros(2) if center is None else np.asarray(center, float)
    xy = coords(grid) - center
    z = (xy[..., 0] + 1j * xy[..., 1]) / lam
    w = z ** m if m > 0 else np.conj(z) ** (-m)
    r = np.abs(xy[..., 0] + 1j * xy[..., 1])
    absw2 = np.abs(w) ** 2
    n = np.empty(grid.dims + (3,))
    n[..., 0] = 2.0 * w.real / (1.0 + absw2)
    n[..., 1] = 2.0 * w.imag / (1.0 + absw2)
    n[..., 2] = (1.0 - absw2) / (1.0 + absw2)
    theta = np.arccos(np.clip(n[..., 2], -1.0, 1.0))
    phi = np.arctan2(n[..., 1], n[..., 0])
    s = _cutoff_blend((r - (cutoff - lam)) / lam)
    theta = theta + s * (np.pi - theta)
    n[..., 0] = np.sin(theta) * np.cos(phi)
    n[..., 1] = np.sin(theta) * np.sin(phi)
    n[..., 2] = np.cos(theta)
    n[r >= cutoff] = -K_AXIS
    n /= np.sqrt(_dot3(n, n))[..., None]
    return n


def dense_P_adjoint(n, grads):
    """The hand-derived adjoint of P, an oracle for momentum_P_derivative:
    with a_k = d_k n and s = sum_j x_j d_j n the integrand of P_k is
    f_k = n . (a_k x s)/(p-1), whose partials are a_k x s in n, s x n in a_k
    and n x a_k in s; the last two are pulled back to n through partial_T
    (p + 1 calls per component), with the weights on the coordinate
    planes."""
    grid = n.grid
    x = coords(grid)
    s = sum(x[..., j, None] * g for j, g in enumerate(grads))
    s_x_n = cross3(s, n.values)
    out = np.empty((grid.p,) + n.values.shape)
    for k in range(grid.p):
        n_x_a = cross3(n.values, grads[k])
        total = cross3(grads[k], s) + partial_T(s_x_n, grid, k)
        for j in range(grid.p):
            total += partial_T(x[..., j][..., None] * n_x_a, grid, j)
        out[k] = tangent_project(total, n.values) / (grid.p - 1)
    return out


def dense_moment_adjoint(n, grads, K):
    """momenta._moment_adjoint with its weights Ct_ij on the coordinate
    planes, term for term in the same order."""
    x = coords(n.grid)
    xt = [x[..., a, None] for a in range(n.grid.p)] + [1.0]
    Kt = K - K.swapaxes(0, 1)
    out = np.zeros_like(n.values)
    for i, a_i in enumerate(grads):
        v = np.zeros_like(n.values)
        for j, a, b in zip(*np.nonzero(Kt[i])):
            v += Kt[i, j, a, b] * xt[a] * xt[b] * grads[j]
        out += 0.5 * cross3(a_i, v)
        out += partial_T(cross3(v, n.values), n.grid, i)
    return tangent_project(out, n.values)


def _same(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("grid", GRIDS)
def test_coords_are_the_meshgrid_planes_in_planar_layout(grid):
    axes = [grid.axis_coords(i) for i in range(grid.p)]
    x = coords(grid)
    assert _same(x, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    assert all(x[..., i].flags.c_contiguous for i in range(grid.p))


@pytest.mark.parametrize("grid", GRIDS)
def test_radius_and_envelopes_match_the_dense_forms(grid):
    assert _same(grid.radius(), dense_radius(grid))
    for support in (0.5, 0.75):
        assert _same(bump_envelope(grid, support), dense_bump_envelope(grid, support))
    alpha = make_gauge_bump_alpha(grid, 2, 0.6)
    oracle = (dense_gauge_ramp(grid, 2, 0.6) if grid.p == 1
              else 2.0 * np.pi * 2 * dense_bump_envelope(grid, 0.6))
    assert _same(alpha, oracle)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("modes", [1, 3])
def test_band_limited_matches_the_dense_form(grid, seed, modes):
    got = band_limited(grid, np.random.default_rng(seed), modes)
    assert got.shape == grid.dims
    assert _same(got, dense_band_limited(grid, np.random.default_rng(seed), modes))


@pytest.mark.parametrize("center", CENTRES)
@pytest.mark.parametrize("m", [1, 2, -1])
def test_soliton_matches_the_dense_form(m, center):
    n = make_bp_soliton(SOLITON_GRID, m, 0.9, 3.0, center)
    assert _same(n.values, dense_soliton(SOLITON_GRID, m, 0.9, 3.0, center))


ADJOINT_FIELDS = [
    lambda: make_bp_soliton(SOLITON_GRID, 1, 0.9, 3.0, (0.7, -0.4)),
    lambda: make_random_smooth(GRIDS[3], seed=2, amplitude=1.5, modes=1, support=0.6),
    lambda: make_random_smooth(GRIDS[4], seed=3, amplitude=1.5, support=0.6),
]


@pytest.mark.parametrize("field", ADJOINT_FIELDS)
def test_P_adjoint_matches_the_dense_weights(field):
    n = field()
    grads = [partial(n.values, n.grid, i) for i in range(n.grid.p)]
    for K in _K_P(n.grid.p):
        assert _same(_moment_adjoint(n, grads, K), dense_moment_adjoint(n, grads, K))


@pytest.mark.parametrize("field", ADJOINT_FIELDS)
def test_moment_adjoint_matches_the_dense_weights_for_any_coefficients(field):
    # a coefficient tensor with every kind of weight (1, x_a, x_a x_b) and
    # zero entries among them, in the shape of G
    n = field()
    p = n.grid.p
    rng = np.random.default_rng(p)
    K = rng.normal(size=(p, p, p + 1, p + 1)) * (rng.random((p, p, p + 1, p + 1)) < 0.5)
    grads = _gradients(n)
    assert _same(_moment_adjoint(n, grads, K), dense_moment_adjoint(n, grads, K))


@pytest.mark.parametrize("field", ADJOINT_FIELDS)
def test_P_derivative_matches_the_hand_formula(field):
    # the exact transpose of sum K_P[k] . G against the hand-derived P
    # adjoint: the same gradient, summed in another order
    n = field()
    want = dense_P_adjoint(n, _gradients(n))
    assert relative_gap(momentum_P_derivative(n), want) <= 1e-14


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("dims, box", [((40, 52), (12.0, 14.0)), ((20, 24, 28), (8.0, 9.0, 11.0))])
def test_a_grid_keeps_no_grid_sized_array(dims, box):
    grid = Grid.centered(dims, box)
    p = grid.p
    grid.radius(), bump_envelope(grid, 0.7), make_gauge_bump_alpha(grid)
    band_limited(grid, np.random.default_rng(0), 3)
    make_radial_profile(grid, lambda r: np.where(r < 2.0, np.pi * (1 - r / 2.0), 0.0))
    n = (make_bp_soliton(grid, 1, 0.9, 3.0, (0.5, 0.2)) if p == 2
         else make_random_smooth(grid, seed=1, amplitude=1.5, support=0.6))
    e1 = EuclideanAlgebraElement(p, np.full(p * (p - 1) // 2, 0.3), np.arange(p) - 0.5)
    e2 = EuclideanAlgebraElement(p, np.full(p * (p - 1) // 2, -0.2), 0.5 - np.arange(p))
    e1.velocity_field(grid)
    moments(n), momentum_P_derivative(n), reduced_momentum_lift(n)
    momentum_JH(lift_psi(n), n), cocycle_direct(n, e1, e2), cocycle_via_pairing(n, e1, e2)
    if p == 3:
        momentum_P_cross(n)
    held = list(_arrays(list(vars(grid).values())))
    assert held  # the power rows of _coord_powers, at least
    assert max(a.size for a in held) <= 3 * max(grid.dims)

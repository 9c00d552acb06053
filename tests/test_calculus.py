import numpy as np
import pytest

from llgeo import (
    Grid,
    K_AXIS,
    functional_derivative,
    integrate,
    make_constant,
    make_gauge_field,
    make_gauge_bump_alpha,
    make_random_smooth,
    momentum_N,
    partial,
    partial_T,
    right_gradient,
    right_gradient_axis,
    so3_exp,
    so3_log,
    tangent_project,
)
from llgeo.calculus import cross3, hat, triple, vee

from conftest import random_rotation_field, relative_gap


# ---------- partial ----------

def test_partial_annihilates_constants():
    g = Grid.centered((16, 16), 8.0)
    f = np.full(g.dims, 3.7)
    assert np.abs(partial(f, g, 0)).max() == 0.0


def test_partial_exact_on_linear():
    g = Grid.centered((16, 16), 8.0)
    f = g.coords()[..., 1]
    d = partial(f, g, 1)
    assert np.abs(d - 1.0).max() < 1e-13
    assert np.abs(partial(f, g, 0)).max() < 1e-13


def test_partial_axis_out_of_range():
    g = Grid.centered((16, 16), 8.0)
    with pytest.raises(ValueError):
        partial(np.zeros(g.dims), g, 2)


def test_partial_second_order_convergence():
    errs = []
    for nn in (32, 64, 128):
        g = Grid.centered((nn,), 8.0)
        x = g.coords()[..., 0]
        L = 8.0
        f = np.sin(np.pi * x / L)
        exact = np.pi / L * np.cos(np.pi * x / L)
        errs.append(np.abs(partial(f, g, 0) - exact).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


@pytest.mark.parametrize("dims", [(9, 13), (8, 10, 9)])
def test_partial_T_is_exact_transpose(dims):
    g = Grid(dims, tuple(0.3 + 0.1 * i for i in range(len(dims))), (0.0,) * len(dims))
    rng = np.random.default_rng(len(dims))
    v = rng.standard_normal(dims + (3,))
    c = rng.standard_normal(dims + (3,))
    for axis in range(g.p):
        lhs = np.sum(partial(v, g, axis) * c)
        rhs = np.sum(v * partial_T(c, g, axis))
        assert abs(lhs - rhs) <= 1e-12 * np.abs(partial(v, g, axis) * c).sum()


def test_partial_T_axis_out_of_range():
    g = Grid.centered((8, 8), 4.0)
    with pytest.raises(ValueError):
        partial_T(np.zeros(g.dims), g, 2)


# ---------- integrate ----------

def test_integrate_exact_on_constants():
    g = Grid.centered((16, 24), (4.0, 6.0))
    assert integrate(np.ones(g.dims), g) == pytest.approx(24.0, abs=1e-12)


def test_integrate_odd_function_cancels():
    g = Grid.centered((32, 32), 8.0)
    x = g.coords()[..., 0]
    f = x * np.exp(-(x ** 2))
    assert abs(integrate(f, g)) < 1e-12


def test_integrate_gaussian():
    g = Grid.centered((128, 128), 16.0)
    r2 = (g.coords() ** 2).sum(axis=-1)
    val = integrate(np.exp(-r2), g)
    assert abs(val - np.pi) < 1e-6


def test_integrate_keeps_component_axes():
    g = Grid.centered((16, 16), 4.0)
    f = np.ones(g.dims + (3,))
    out = integrate(f, g)
    assert out.shape == (3,)
    assert np.allclose(out, 16.0)


# ---------- so3 exp / log ----------

def test_hat_vee_convention():
    v = np.array([0.3, -1.0, 0.2])
    w = np.array([1.0, 0.5, -0.7])
    assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-15)
    assert np.allclose(vee(hat(v)), v, atol=1e-15)
    assert np.allclose(cross3(v, w), np.cross(v, w), atol=1e-15)
    assert triple(v, w, v + w) == pytest.approx(0.0, abs=1e-14)


def test_so3_exp_identity_and_quarter_turn():
    assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))
    rot = so3_exp(np.pi / 2 * K_AXIS)
    assert np.allclose(rot @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-15)


def test_so3_exp_inverse_pairs():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(100, 3)) * rng.uniform(0, 3.0, size=(100, 1))
    prod = so3_exp(v) @ so3_exp(-v)
    assert np.abs(prod - np.eye(3)).max() < 1e-12


def test_so3_log_identity_and_round_trip():
    assert np.array_equal(so3_log(np.eye(3)), np.zeros(3))
    v = np.array([0.3, -0.1, 0.7])
    assert np.abs(so3_log(so3_exp(v)) - v).max() < 1e-10


def test_so3_log_round_trip_batch():
    rng = np.random.default_rng(7)
    axis = rng.normal(size=(200, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angles = rng.uniform(1e-8, np.pi - 1e-3, size=(200, 1))
    v = axis * angles
    assert np.abs(so3_log(so3_exp(v)) - v).max() < 1e-10


def test_so3_log_pi_branch():
    rot = so3_exp(np.pi * np.array([1.0, 0.0, 0.0]))
    v = so3_log(rot)
    assert abs(np.linalg.norm(v) - np.pi) < 1e-7
    assert abs(abs(v[0]) - np.pi) < 1e-7


def test_so3_log_rejects_non_rotation():
    with pytest.raises(ValueError):
        so3_log(np.eye(3) * 1.1)
    with pytest.raises(ValueError):
        so3_log(np.diag([1.0, 1.0, -1.0]))


# ---------- right gradient ----------

def test_right_gradient_identity_field():
    g = Grid.centered((24, 24), 8.0)
    eye = np.broadcast_to(np.eye(3), g.dims + (3, 3)).copy()
    from llgeo import RotationField

    psi = RotationField(g, eye)
    assert np.abs(right_gradient_axis(psi, 0)).max() == 0.0


def test_right_gradient_exponential_field():
    # psi = exp(c x1 hat(k)) has right gradient c k along axis 0, exactly here
    from llgeo import RotationField

    g = Grid.centered((48,), 8.0)
    c = 0.4
    alpha = c * g.coords()[..., 0]
    # not a valid gauge field (boundary not 2*pi multiples): build raw
    psi = RotationField(g, so3_exp(alpha[..., None] * K_AXIS), check=False)
    grad = right_gradient_axis(psi, 0)
    assert np.abs(grad - c * K_AXIS).max() < 1e-10


def test_right_gradient_of_gauge_field_is_grad_alpha_times_k():
    g = Grid.centered((64, 64), 16.0)
    alpha = make_gauge_bump_alpha(g, winding=1)
    A = make_gauge_field(g, alpha)
    for axis in range(2):
        grad = right_gradient_axis(A, axis)
        expected = partial(alpha, g, axis)[..., None] * K_AXIS
        assert np.abs(grad - expected).max() < 1e-9


def test_right_gradient_along_vector_is_linear():
    g = Grid.centered((32, 32), 12.0)
    psi = random_rotation_field(g, seed=4)
    gx = right_gradient_axis(psi, 0)
    gy = right_gradient_axis(psi, 1)
    b = np.array([0.7, -0.3])
    assert np.allclose(right_gradient(psi, b), 0.7 * gx - 0.3 * gy, atol=1e-13)


def test_right_gradient_product_identity():
    # (mu . rgrad)(psi phi) = (mu . rgrad)psi + ((psi^-1 mu) . rgrad)phi
    gaps = []
    for nn in (32, 64):
        g = Grid.centered((nn, nn), 12.0)
        psi = random_rotation_field(g, seed=10, amplitude=0.7)
        phi = random_rotation_field(g, seed=11, amplitude=0.7)
        mu = make_random_smooth(g, seed=12, amplitude=1.0).values

        prod = psi.compose(phi, check=False)
        lhs = np.stack(
            [np.einsum("...i,...i->...", mu, right_gradient_axis(prod, a)) for a in range(2)],
            axis=-1,
        )
        psi_inv_mu = np.einsum("...ji,...j->...i", psi.values, mu)
        rhs = np.stack(
            [
                np.einsum("...i,...i->...", mu, right_gradient_axis(psi, a))
                + np.einsum("...i,...i->...", psi_inv_mu, right_gradient_axis(phi, a))
                for a in range(2)
            ],
            axis=-1,
        )
        gaps.append(np.abs(lhs - rhs).max())
    assert gaps[0] < 0.02
    assert gaps[1] < gaps[0] / 1.8


# ---------- functional derivative ----------

def test_functional_derivative_of_rotation_charge():
    g = Grid.centered((20, 20), 10.0)
    n = make_random_smooth(g, seed=5, amplitude=1.3)
    d = functional_derivative(momentum_N, n, step=1e-4)
    expected = tangent_project(np.broadcast_to(K_AXIS, n.values.shape), n.values)
    assert np.abs(d - expected).max() < 2e-6


def test_functional_derivative_zero_at_energy_minimum():
    from llgeo import EnergyParams, energy

    g = Grid.centered((16, 16), 8.0)
    n = make_constant(g, (0, 0, -1))
    d = functional_derivative(lambda f: energy(f, EnergyParams(a=1.0)), n, step=1e-4)
    assert np.abs(d).max() < 1e-8


def test_functional_derivative_rejects_bad_step():
    g = Grid.centered((16, 16), 8.0)
    n = make_constant(g, (0, 0, -1))
    with pytest.raises(ValueError):
        functional_derivative(momentum_N, n, step=0.0)

import numpy as np
import pytest

from llgeo import (
    Grid,
    K_AXIS,
    RotationField,
    integrate,
    make_constant,
    make_gauge_field,
    make_gauge_bump_alpha,
    make_random_smooth,
    momentum_N,
    partial,
    partial_T,
    right_gradient_axis,
    so3_log,
)
from llgeo.calculus import cross3, triple
from llgeo.fields import _dot3, _is_planar

import so3_oracle
from so3_oracle import hat, matrix, quaternion, so3_exp, vee
from conftest import coords, peak_bytes, random_rotation_field, relative_gap, tangent_project
from fd_oracle import functional_derivative
import allocating_report
from test_so3_kernels import component_major


# ---------- partial ----------

def test_partial_annihilates_constants():
    g = Grid.centered((16, 16), 8.0)
    f = np.full(g.dims, 3.7)
    assert np.abs(partial(f, g, 0)).max() == 0.0


def test_partial_exact_on_linear():
    g = Grid.centered((16, 16), 8.0)
    f = coords(g)[..., 1]
    d = partial(f, g, 1)
    assert np.abs(d - 1.0).max() < 1e-13
    assert np.abs(partial(f, g, 0)).max() < 1e-13


@pytest.mark.parametrize("beyond", [False, True], ids=["below_0", "at_p"])
@pytest.mark.parametrize("dims", [(8, 8), (8, 8, 8)], ids=["2d", "3d"])
@pytest.mark.parametrize("op", [partial, partial_T, right_gradient_axis],
                         ids=lambda op: op.__name__)
def test_axis_out_of_range(op, dims, beyond):
    # every stencil goes through one axis rule, with one message
    g = Grid.centered(dims, 4.0)
    axis = g.p if beyond else -1
    with pytest.raises(ValueError, match=rf"^axis {axis} out of range for p={g.p}$"):
        if op is right_gradient_axis:
            eye = np.broadcast_to([1.0, 0.0, 0.0, 0.0], g.dims + (4,))
            op(RotationField(g, eye, check=False), axis)
        else:
            op(np.zeros(g.dims), g, axis)


def test_partial_second_order_convergence():
    errs = []
    for nn in (32, 64, 128):
        g = Grid.centered((nn,), 8.0)
        x = coords(g)[..., 0]
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


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)], ids=["scalar", "vector", "matrix"])
@pytest.mark.parametrize("dims", [(11,), (9, 13), (8, 10, 9)], ids=["1d", "2d", "3d"])
def test_partial_is_bitwise_the_allocating_stencil(dims, trailing):
    # the flat stencils (one pass over the flat rows at +-stride, the edge
    # rows written in place, one division by 2h) give the allocating forms'
    # bits on every axis, in C order, in component planes, in Fortran order
    # and from a strided view (copied once), partial with and without out;
    # an out in another memory order than values has no flat view in
    # values' order and is refused, as a copy of it would be left unwritten
    g = Grid(dims, tuple(0.3 + 0.07 * i for i in range(len(dims))), (0.0,) * len(dims))
    v = np.random.default_rng(len(dims) + len(trailing)).standard_normal(dims + trailing)
    every_other = (slice(None),) * (g.p - 1) + (slice(None, None, 2),)
    copies = {"C": np.array(v, order="C"), "F": np.array(v, order="F"),
              "strided": np.repeat(v, 2, axis=g.p - 1)[every_other]}
    if trailing:
        copies["planar"] = component_major(v, len(trailing))
    for axis in range(g.p):
        want = allocating_report.partial(v, g, axis)
        want_T = allocating_report.partial_T(v, g, axis)
        for layout, values in copies.items():
            assert np.array_equal(partial(values, g, axis), want), (axis, layout)
            out = np.empty_like(values)
            assert partial(values, g, axis, out=out) is out
            assert np.array_equal(out, want), (axis, layout)
            assert np.array_equal(partial_T(values, g, axis), want_T), (axis, layout)
        if g.p > 1:
            with pytest.raises(ValueError, match="copy"):
                partial(copies["C"], g, axis, out=np.empty_like(copies["F"]))


@pytest.mark.parametrize("layout", ["planar", "C", "F"])
@pytest.mark.parametrize("dims", [(128, 128), (32, 32, 32)], ids=["128^2", "32^3"])
def test_stencils_allocate_only_edge_slabs(dims, layout):
    # the interior is one pass over the flat rows at +-stride, which numpy
    # need not buffer along any axis: partial into a given out allocates at
    # most 6 edge slabs (one index's values along the axis), and partial_T
    # its own output and 6 edge slabs more
    g = Grid.centered(dims, 12.0)
    n = make_random_smooth(g, seed=1, amplitude=1.5)
    v = {"planar": n.values, "C": np.ascontiguousarray(n.values),
         "F": np.asfortranarray(n.values)}[layout]
    out = np.empty_like(v)
    for axis in range(g.p):
        slab = v.nbytes // g.dims[axis]
        partial(v, g, axis, out=out), partial_T(v, g, axis)  # warm
        assert peak_bytes(lambda: partial(v, g, axis, out=out)) <= 6 * slab, axis
        assert peak_bytes(lambda: partial_T(v, g, axis)) <= v.nbytes + 6 * slab, axis


# ---------- integrate ----------

def test_integrate_exact_on_constants():
    g = Grid.centered((16, 24), (4.0, 6.0))
    assert integrate(np.ones(g.dims), g) == pytest.approx(24.0, abs=1e-12)


def test_integrate_odd_function_cancels():
    g = Grid.centered((32, 32), 8.0)
    x = coords(g)[..., 0]
    f = x * np.exp(-(x ** 2))
    assert abs(integrate(f, g)) < 1e-12


def test_integrate_gaussian():
    g = Grid.centered((128, 128), 16.0)
    r2 = (coords(g) ** 2).sum(axis=-1)
    val = integrate(np.exp(-r2), g)
    assert abs(val - np.pi) < 1e-6


def test_integrate_keeps_component_axes():
    g = Grid.centered((16, 16), 4.0)
    f = np.ones(g.dims + (3,))
    out = integrate(f, g)
    assert out.shape == (3,)
    assert np.allclose(out, 16.0)


# ---------- rotations: the log and the oracle ----------

def test_hat_vee_convention():
    # the oracle's hat is the cross product, and a unit quaternion turns by
    # so3_exp of its log: matrix(q) == so3_exp(so3_log(q))
    v = np.array([0.3, -1.0, 0.2])
    w = np.array([1.0, 0.5, -0.7])
    assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-15)
    assert np.allclose(vee(hat(v)), v, atol=1e-15)
    assert np.allclose(cross3(v, w), np.cross(v, w), atol=1e-15)
    assert triple(v, w, v + w) == pytest.approx(0.0, abs=1e-14)
    assert np.abs(matrix(quaternion(v)) - so3_exp(v)).max() <= 1e-15
    assert np.abs(so3_exp(so3_log(quaternion(v))) - matrix(quaternion(v))).max() <= 1e-15
    # the one cross and dot kernels on stacks, in both layouts and with
    # K_AXIS broadcast: bitwise the textbook formulas, the same bits with out
    # and scratch as without, and component planes when allocated
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 7, 9, 3))
    pa, pb = component_major(a, 1), component_major(b, 1)
    pairs = [(a, b), (pa, pb), (a, pb), (K_AXIS, pb), (a, K_AXIS)]
    for x, y in pairs:
        (x0, x1, x2), (y0, y1, y2) = np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)
        cross = np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)
        dot = x0 * y0 + x1 * y1 + x2 * y2
        got = cross3(x, y)
        assert np.array_equal(got, cross) and _is_planar(got)
        assert np.array_equal(_dot3(x, y), dot)
        # NaN scratch: each kernel's products go through the scratch it is given
        out, (s, t) = np.empty_like(got), np.full((2,) + got.shape[:-1], np.nan)
        assert cross3(x, y, out, (s, t)) is out and np.array_equal(out, cross)
        assert not np.isnan(t).any()
        t.fill(np.nan)
        assert _dot3(x, y, s, t) is s and np.array_equal(s, dot)
        assert not np.isnan(t).any()


def test_so3_exp_identity_and_quarter_turn():
    # the oracle's exponential: exactly I at 0, and the one sinc expression
    # against the trigonometric Rodrigues formula; matrix(q) of the unit
    # quaternions agrees with it, exactly I at the identity quaternion
    assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))
    assert np.array_equal(matrix(quaternion(np.zeros((4, 3)))),
                          np.broadcast_to(np.eye(3), (4, 3, 3)))
    rot = matrix(quaternion(np.pi / 2 * K_AXIS))
    assert np.allclose(rot @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-15)
    rng = np.random.default_rng(5)
    axis = rng.normal(size=(400, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angles = np.concatenate([np.geomspace(1e-12, 1.0, 200),
                             np.linspace(1.0, np.pi - 1e-9, 200)])
    k = hat(axis)
    expected = (np.eye(3) + np.sin(angles)[:, None, None] * k
                + (1.0 - np.cos(angles))[:, None, None] * (k @ k))
    assert np.abs(so3_exp(axis * angles[:, None]) - expected).max() <= 2e-15
    assert np.abs(matrix(quaternion(axis * angles[:, None])) - expected).max() <= 2e-15


def test_so3_exp_inverse_pairs():
    # q(v) and q(-v) are inverses: their Hamilton product (the oracle's,
    # which builds the composed fields below) is the identity
    rng = np.random.default_rng(2)
    v = rng.normal(size=(100, 3)) * rng.uniform(0, 3.0, size=(100, 1))
    prod = so3_oracle.qmul(quaternion(v), quaternion(-v))
    assert np.abs(prod - [1.0, 0.0, 0.0, 0.0]).max() < 1e-15
    assert np.abs(matrix(prod) - np.eye(3)).max() < 1e-14


def test_so3_log_identity_and_round_trip():
    assert np.array_equal(so3_log(np.array([1.0, 0.0, 0.0, 0.0])), np.zeros(3))
    assert np.array_equal(so3_log(np.array([-1.0, 0.0, 0.0, 0.0])), np.zeros(3))
    v = np.array([0.3, -0.1, 0.7])
    assert np.abs(so3_log(quaternion(v)) - v).max() < 1e-15
    assert np.abs(so3_log(-quaternion(v)) - v).max() < 1e-15


def test_so3_log_round_trip_batch():
    rng = np.random.default_rng(7)
    axis = rng.normal(size=(200, 3))
    angles = rng.uniform(1e-8, np.pi - 1e-9, size=(200, 1))
    # the last ten sit within 1e-3 of pi on axes with one tiny component,
    # the hardest case for the matrix oracle's sym R axis
    angles[-10:] = np.pi - np.geomspace(1e-9, 9.9e-4, 10)[:, None]
    axis[-10:, 2] *= 1e-4
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    v = axis * angles
    q = quaternion(v)
    assert np.abs(so3_log(q) - v).max() <= 1e-14
    assert np.abs(so3_log(-q) - v).max() <= 1e-14
    assert np.abs(so3_log(q) - so3_oracle.so3_log(matrix(q))).max() <= 1e-12


def test_so3_log_pi_branch():
    rot = quaternion(np.pi * np.array([1.0, 0.0, 0.0]))
    assert rot[0] != 0.0  # cos(pi/2) rounds to 6e-17
    v = so3_log(rot)
    assert abs(np.linalg.norm(v) - np.pi) < 1e-15
    assert abs(abs(v[0]) - np.pi) < 1e-15
    assert np.array_equal(so3_log(np.array([0.0, 0.0, 1.0, 0.0])), [0.0, np.pi, 0.0])
    assert np.array_equal(so3_log(np.array([-0.0, 0.0, 1.0, 0.0])), [0.0, -np.pi, 0.0])


def test_so3_log_rejects_non_rotation():
    with pytest.raises(ValueError, match=r"\|q\|\^2 deviates from 1"):
        so3_log(np.array([1.1, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"\|q\|\^2 deviates from 1"):
        so3_log(np.zeros(4))
    # within ROTATION_TOL of unit length is accepted
    so3_log(np.array([1.0 + 4e-9, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_so3_log_rejects_non_finite_without_warning(bad):
    q = quaternion(np.array([0.3, -0.1, 0.7]))[None].repeat(4, axis=0)
    q[2, 1] = bad
    with pytest.raises(ValueError, match="deviates from 1"):
        so3_log(q)


# ---------- right gradient ----------

def test_right_gradient_identity_field():
    g = Grid.centered((24, 24), 8.0)
    eye = np.broadcast_to([1.0, 0.0, 0.0, 0.0], g.dims + (4,)).copy()
    psi = RotationField(g, eye)
    assert np.abs(right_gradient_axis(psi, 0)).max() == 0.0


def test_right_gradient_exponential_field():
    # psi = exp(c x1 hat(k)) has right gradient c k along axis 0, exactly here
    g = Grid.centered((48,), 8.0)
    c = 0.4
    alpha = c * coords(g)[..., 0]
    # not a valid gauge field (boundary not 2*pi multiples): build raw
    psi = RotationField(g, quaternion(alpha[..., None] * K_AXIS), check=False)
    grad = right_gradient_axis(psi, 0)
    assert np.abs(grad - c * K_AXIS).max() < 1e-10


def _exp_field(g, c, v):
    """psi = exp(sum_i c_i x_i hat(v_i)) for one vector per axis; not the
    identity on the boundary, so built unchecked."""
    x = coords(g)
    rotvec = sum(c[i] * x[..., i, None] * v[i] for i in range(g.p))
    return RotationField(g, quaternion(rotvec), check=False)


def test_right_gradient_3d_all_axes_and_edges():
    # exp(c x_axis hat(v)) has the exact gradient c v along that axis, edges
    # included; a random field times a non-trivial one matches the matrix
    # stencil vee(partial(psi) psi^T) to second order, edges included
    rng = np.random.default_rng(5)
    v = rng.normal(size=(3, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    g = Grid.centered((10, 11, 12), 6.0)
    for axis in range(3):
        c = np.zeros(3)
        c[axis] = 0.3
        grad = right_gradient_axis(_exp_field(g, c, v), axis)
        assert np.abs(grad - c[axis] * v[axis]).max() < 1e-12

    # the random factor is the identity near the boundary, the exponential
    # one keeps the edge slices non-trivial; the gap is the RMS over all
    # cells and the max over the two edge slices, worst over the axes
    gaps = []
    for nn in (20, 40):
        g = Grid.centered((nn, nn + 1, nn + 2), 6.0)
        psi = RotationField(g, so3_oracle.qmul(random_rotation_field(g, seed=2).values,
                                               _exp_field(g, (0.2, -0.3, 0.25), v).values),
                            check=False)
        r = matrix(psi.values)
        rms = edge = 0.0
        for axis in range(3):
            ref = vee(partial(r, g, axis) @ np.swapaxes(r, -1, -2))
            gap = right_gradient_axis(psi, axis) - ref
            rms = max(rms, np.sqrt(np.mean(gap ** 2)))
            edge = max(edge, np.abs(np.take(gap, [0, -1], axis=axis)).max())
        gaps.append((rms, edge))
    for coarse, fine in zip(*gaps):
        assert 3.0 < coarse / fine < 5.0, gaps


@pytest.mark.parametrize("dims", [(16,), (12, 13), (10, 11, 12)], ids=["1d", "2d", "3d"])
def test_right_gradient_is_bitwise_the_allocating_assembly(dims):
    # the in-place stencil on component planes, its high edge passing the
    # negated two-step motion, gives the bits of the C-order assembly of the
    # same logged motions
    g = Grid.centered(dims, 6.0)
    psi = random_rotation_field(g, seed=11, amplitude=2.5)
    for axis in range(g.p):
        want = so3_oracle.right_gradient(psi, axis)
        assert np.array_equal(right_gradient_axis(psi, axis), want), axis
    # every payload is four contiguous planes, whatever it is built from, so
    # the flat rows of one-step pairs read contiguous memory
    for check in (True, False):
        for source in (psi.values, np.ascontiguousarray(psi.values)):
            assert _is_planar(RotationField(g, source, check=check).values)


def test_right_gradient_of_gauge_field_is_grad_alpha_times_k():
    g = Grid.centered((64, 64), 16.0)
    alpha = make_gauge_bump_alpha(g, winding=1)
    A = make_gauge_field(g, alpha)
    for axis in range(2):
        grad = right_gradient_axis(A, axis)
        expected = partial(alpha, g, axis)[..., None] * K_AXIS
        assert np.abs(grad - expected).max() < 1e-9


def test_right_gradient_product_identity():
    # (mu . rgrad)(psi phi) = (mu . rgrad)psi + ((psi^-1 mu) . rgrad)phi
    gaps = []
    for nn in (32, 64):
        g = Grid.centered((nn, nn), 12.0)
        psi = random_rotation_field(g, seed=10, amplitude=0.7)
        phi = random_rotation_field(g, seed=11, amplitude=0.7)
        mu = make_random_smooth(g, seed=12, amplitude=1.0).values

        prod = RotationField(g, so3_oracle.qmul(psi.values, phi.values), check=False)
        lhs = np.stack(
            [np.einsum("...i,...i->...", mu, right_gradient_axis(prod, a)) for a in range(2)],
            axis=-1,
        )
        psi_inv_mu = np.einsum("...ji,...j->...i", matrix(psi.values), mu)
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

"""Discrete calculus and SO(3) primitives.

Conventions pinned here once and used everywhere:

* hat map: hat(v) w = v x w, so rotations are so3_exp(theta * axis);
* partial derivatives are second-order central differences, second-order
  one-sided at the grid edge;
* integrals are midpoint-rule sums (cell value times cell volume);
* group-valued differencing uses the group logarithm of one-step motions
  psi(x+h) psi(x)^-1, never matrix subtraction.
"""

import numpy as np

from .fields import RotationField, SpinField

ROTATION_TOL = 1e-8  # so3_log rejects matrices further than this from SO(3)


def partial(values, grid, axis):
    """d(values)/dx_axis with second-order stencils (central in the interior,
    one-sided at the edges).  Works for any trailing component shape."""
    if not 0 <= axis < grid.p:
        raise ValueError(f"axis {axis} out of range for p={grid.p}")
    values = np.asarray(values, float)
    h = grid.spacing[axis]
    out = np.empty_like(values)

    def sl(s):
        idx = [slice(None)] * values.ndim
        idx[axis] = s
        return tuple(idx)

    out[sl(slice(1, -1))] = (values[sl(slice(2, None))] - values[sl(slice(None, -2))]) / (2.0 * h)
    # one-sided second order, written in difference form so constants map to
    # exactly zero
    out[sl(0)] = (
        4.0 * (values[sl(1)] - values[sl(0)]) - (values[sl(2)] - values[sl(0)])
    ) / (2.0 * h)
    out[sl(-1)] = (
        4.0 * (values[sl(-1)] - values[sl(-2)]) - (values[sl(-1)] - values[sl(-3)])
    ) / (2.0 * h)
    return out


def partial_T(cot, grid, axis):
    """Exact transpose of the partial stencil, edge rows included:
    sum(partial(v) * c) == sum(v * partial_T(c)) for every v and c.

    Pulls a cotangent of d(values)/dx_axis back to a cotangent of values,
    which is how the adjoint gradients of quadrature functionals are built.
    """
    if not 0 <= axis < grid.p:
        raise ValueError(f"axis {axis} out of range for p={grid.p}")
    cot = np.asarray(cot, float)
    out = np.zeros_like(cot)

    def sl(s):
        idx = [slice(None)] * cot.ndim
        idx[axis] = s
        return tuple(idx)

    inner = cot[sl(slice(1, -1))]
    out[sl(slice(2, None))] += inner
    out[sl(slice(None, -2))] -= inner
    lo, hi = cot[sl(0)], cot[sl(-1)]
    out[sl(0)] -= 3.0 * lo
    out[sl(1)] += 4.0 * lo
    out[sl(2)] -= lo
    out[sl(-1)] += 3.0 * hi
    out[sl(-2)] -= 4.0 * hi
    out[sl(-3)] += hi
    return out / (2.0 * grid.spacing[axis])


def integrate(values, grid):
    """Midpoint-rule integral: sum over cells times cell volume.

    Trailing (non-spatial) axes are kept, so vector densities integrate to
    vectors.
    """
    spatial = tuple(range(grid.p))
    return np.asarray(values).sum(axis=spatial) * grid.cell_volume


def cross3(a, b):
    """Cross product over the trailing axis, hand-rolled: np.cross is slow on
    broadcast stacks and this sits in quadrature hot paths."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def triple(a, b, c):
    """Scalar triple product a . (b x c) over the trailing axis."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0, c1, c2 = c[..., 0], c[..., 1], c[..., 2]
    return (
        a0 * (b1 * c2 - b2 * c1)
        + a1 * (b2 * c0 - b0 * c2)
        + a2 * (b0 * c1 - b1 * c0)
    )


def hat(v):
    """so(3) matrix of a 3-vector: hat(v) @ w == cross(v, w)."""
    v = np.asarray(v, float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def vee(m):
    """Inverse of hat: the 3-vector of a skew 3x3 matrix (antisymmetric part)."""
    m = np.asarray(m, float)
    return 0.5 * np.stack(
        [
            m[..., 2, 1] - m[..., 1, 2],
            m[..., 0, 2] - m[..., 2, 0],
            m[..., 1, 0] - m[..., 0, 1],
        ],
        axis=-1,
    )


def so3_exp(v):
    """Rodrigues exponential, vectorized over leading axes of v (..., 3)."""
    v = np.asarray(v, float)
    theta = np.linalg.norm(v, axis=-1)
    small = theta < 1e-4
    t2 = theta * theta
    # sin(t)/t and (1-cos t)/t^2 with series fallbacks near zero
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / theta)
        b = np.where(
            small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(theta)) / t2
        )
    vh = hat(v)
    vh2 = vh @ vh
    return np.eye(3) + a[..., None, None] * vh + b[..., None, None] * vh2


def so3_log(r):
    """Rotation vector of R in SO(3), |log| <= pi, vectorized over (..., 3, 3).

    Rejects inputs further than ROTATION_TOL from SO(3).  The branch at angle
    pi uses the stabilized axis extraction from the symmetric part.
    """
    r = np.asarray(r, float)
    if np.abs(np.einsum("...ji,...jk->...ik", r, r) - np.eye(3)).max() > ROTATION_TOL:
        raise ValueError("input is not orthogonal")
    if np.abs(np.linalg.det(r) - 1.0).max() > ROTATION_TOL:
        raise ValueError("input does not have determinant 1")

    trace = r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    cos_t = np.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    anti = vee(r)                      # = sin(theta) * axis
    sin_t = np.sin(theta)

    near_pi = theta > np.pi - 1e-3
    small = theta < 1e-4
    generic = ~(near_pi | small)

    out = np.empty(r.shape[:-2] + (3,))

    # small angles: log ~ anti * (1 + t^2/6 + 7 t^4/360)
    t2 = theta * theta
    out[...] = anti * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)[..., None]

    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(sin_t > 0, theta / np.where(sin_t > 0, sin_t, 1.0), 1.0)
    out = np.where(generic[..., None], anti * scale[..., None], out)

    if near_pi.any():
        # axis^2 from the symmetric part: axis axis^T = (sym(R) + I)/2 at pi
        sym = 0.5 * (r + np.swapaxes(r, -1, -2))
        diag = np.stack([sym[..., 0, 0], sym[..., 1, 1], sym[..., 2, 2]], axis=-1)
        axis = np.sqrt(np.clip((diag + 1.0) / 2.0, 0.0, None))
        # fix relative signs from the largest component's off-diagonal row
        imax = np.argmax(axis, axis=-1)
        for i in range(3):
            pick = imax == i
            if not pick.any():
                continue
            row = sym[..., i, :]
            sign = np.where(row < 0, -1.0, 1.0)
            sign[..., i] = 1.0
            axis = np.where(pick[..., None], axis * sign, axis)
        # orient along the antisymmetric part when it is not degenerate
        orient = np.sign(np.einsum("...i,...i->...", axis, anti))
        orient = np.where(orient == 0, 1.0, orient)
        pi_log = axis * (orient * theta)[..., None]
        out = np.where(near_pi[..., None], pi_log, out)

    return out


def _motion(later, earlier):
    """later @ earlier^T: the rotation carrying earlier to later."""
    return np.einsum("...ij,...kj->...ik", later, earlier)


def right_gradient_axis(psi, axis):
    """Right-hand gradient of a rotation field along a grid axis, as a
    3-vector field: the derivative at epsilon=0 of psi(x + eps e_axis) psi(x)^-1.

    Central in the group in the interior, second-order one-sided at the edges.
    Each one-step motion psi(x+h) psi(x)^-1 is logged once: the backward
    motion at x is the inverse of the forward one at x-h, and log R^-1 = -log R.
    """
    if not isinstance(psi, RotationField):
        raise TypeError("psi must be a RotationField")
    if not 0 <= axis < psi.grid.p:
        raise ValueError(f"axis {axis} out of range for p={psi.grid.p}")
    values = np.moveaxis(psi.values, axis, 0)
    fwd = so3_log(_motion(values[1:], values[:-1]))
    # the two-step motions enter only the one-sided edge stencils
    two = so3_log(_motion(values[[2, -3]], values[[0, -1]]))
    out = np.empty(values.shape[:-1])
    out[1:-1] = fwd[1:] + fwd[:-1]
    out[0] = 4.0 * fwd[0] - two[0]
    out[-1] = 4.0 * fwd[-1] + two[1]
    return np.moveaxis(out / (2.0 * psi.grid.spacing[axis]), 0, axis)


def right_gradient_stack(psi):
    """All axis right-gradients, shape dims + (p, 3)."""
    return np.stack([right_gradient_axis(psi, i) for i in range(psi.grid.p)], axis=-2)


def right_gradient(psi, b):
    """Right-hand gradient along the constant direction b (a p-vector),
    assembled linearly from the axis gradients."""
    b = np.asarray(b, float)
    if b.shape != (psi.grid.p,):
        raise ValueError(f"b must be a {psi.grid.p}-vector")
    stack = right_gradient_stack(psi)
    return np.einsum("i,...ij->...j", b, stack)


def tangent_basis(n_values):
    """Orthonormal tangent pair (t1, t2) at every cell of a unit field, with
    (t1, t2, n) right-handed."""
    n = np.asarray(n_values, float)
    # pick the fixed helper axis least aligned with n, cellwise
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    use_y = np.abs(n[..., 0]) > 0.9
    helper = np.where(use_y[..., None], ey, ex)
    t1 = cross3(helper, n)
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = cross3(n, t1)
    return t1, t2


def functional_derivative(functional, n, step=1e-4):
    """Finite-difference variational derivative of a functional of a SpinField.

    This is the independent test oracle for the analytic and adjoint
    gradients (variational_derivative_energy, momentum_P_derivative); no
    production path calls it.  At each cell the field is rotated by +-step
    about the two tangent axes (staying exactly on the sphere) and the
    central difference is divided by the cell volume, so the result is
    tangent to n by construction.  It costs 4 * ncells full evaluations of
    the functional and assumes nothing about its stencil.
    """
    if not isinstance(n, SpinField):
        raise TypeError("n must be a SpinField")
    if step <= 0:
        raise ValueError("step must be positive")
    base = n.values
    t1, t2 = tangent_basis(base)
    vol = n.grid.cell_volume
    out = np.zeros_like(base)
    cos_s = np.cos(step)
    sin_s = np.sin(step)

    flat = (-1, 3)
    base_flat = base.reshape(flat)
    t1_flat = t1.reshape(flat)
    t2_flat = t2.reshape(flat)
    out_flat = out.reshape(flat)
    work = np.array(base)
    work_flat = work.reshape(flat)

    def difference(cell, nv, u):
        work_flat[cell] = cos_s * nv + sin_s * u
        plus = functional(SpinField(n.grid, work, n.decaying, check=False))
        work_flat[cell] = cos_s * nv - sin_s * u
        minus = functional(SpinField(n.grid, work, n.decaying, check=False))
        work_flat[cell] = nv
        return (plus - minus) / (2.0 * step)

    for cell in range(base_flat.shape[0]):
        nv = base_flat[cell].copy()
        d1 = difference(cell, nv, t1_flat[cell])
        d2 = difference(cell, nv, t2_flat[cell])
        out_flat[cell] = (d1 * t1_flat[cell] + d2 * t2_flat[cell]) / vol
    return out


def tangent_project(vec_values, n_values):
    """Project a 3-vector field onto the tangent planes of a unit field."""
    dot = np.einsum("...i,...i->...", vec_values, n_values)
    return vec_values - dot[..., None] * n_values

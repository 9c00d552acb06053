"""Discrete calculus and SO(3) primitives.

Conventions pinned here once and used everywhere:

* hat map: hat(v) w = v x w, so rotations are so3_exp(theta * axis);
* partial derivatives are second-order central differences, second-order
  one-sided at the grid edge;
* integrals are midpoint-rule sums (cell value times cell volume);
* group-valued differencing uses the group logarithm of one-step motions
  psi(x+h) psi(x)^-1, never matrix subtraction;
* so3_log takes the angle theta = atan2(|vee R|, (tr R - 1)/2) and the axis
  from vee R up to pi/2, from sym R - cos(theta) I = (1 - cos(theta)) a a^T
  beyond; its input passes the same SO(3) check as a stored RotationField
  (fields.check_rotations), with the looser ROTATION_TOL;
* rotation arrays are component-major: so3_exp and the one-step motions
  write each entry R[..., i, j] into its own contiguous plane of one
  (3, 3) + dims buffer and return its (..., 3, 3) view.  The SO(3) kernels
  (so3_exp, so3_log, _motion and fields.check_rotations) are entrywise sums
  on the nine entry planes, so they take any layout and give the same bits
  for every layout.
"""

import numpy as np

from .fields import RotationField, _matmul3, _matrices, _planes, check_rotations

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
    """Rodrigues exponential, vectorized over leading axes of v (..., 3):
    I + sinc(theta) hat(v) + 1/2 sinc(theta/2)^2 (v v^T - theta^2 I), with
    sinc(x) = sin(x)/x smooth through 0 (np.sinc), so there is no small-angle
    branch and so3_exp(0) is I exactly.  The nine entries are written on
    planes, b v_i v_j + c on the diagonal and b v_i v_j -+ s v_k off it, and
    returned as a component-major (..., 3, 3) array."""
    v = np.asarray(v, float)
    comps = np.moveaxis(v, -1, 0)
    x, y, z = comps
    theta = np.sqrt(x * x + y * y + z * z)
    s = np.sinc(theta / np.pi)
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    c = 1.0 - b * theta ** 2
    m = np.empty((3, 3) + theta.shape)
    for i in range(3):
        np.multiply(b, comps[i] * comps[i], out=m[i, i, ...])
        m[i, i, ...] += c
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        sym, turn = b * (comps[i] * comps[j]), s * comps[k]
        np.subtract(sym, turn, out=m[i, j, ...])
        np.add(sym, turn, out=m[j, i, ...])
    return _matrices(m)


def so3_log(r):
    """Rotation vector of R in SO(3), |log| <= pi, vectorized over (..., 3, 3).

    Rejects inputs further than ROTATION_TOL from SO(3).  The angle is
    theta = atan2(|vee R|, (tr R - 1)/2).  Up to pi/2 the log is
    vee R * theta/|vee R|.  For obtuse angles vee R = sin(theta) a loses the
    axis a as theta -> pi, so a is read from the identity
    sym R - cos(theta) I = (1 - cos(theta)) a a^T: its largest-diagonal
    column, normalised and oriented along vee R.  vee R and the trace are
    read from the entry planes, and the result is component-major.
    """
    r = np.asarray(r, float)
    check_rotations(r, ROTATION_TOL, "R")
    m = _planes(r)
    anti = np.stack([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    anti *= 0.5                        # = sin(theta) * axis, component-major
    ax, ay, az = anti
    sin_t = np.sqrt(ax * ax + ay * ay + az * az)
    cos_t = (m[0, 0] + m[1, 1] + m[2, 2] - 1.0) / 2.0
    theta = np.arctan2(sin_t, cos_t)
    scale = np.divide(theta, sin_t, out=np.ones_like(theta), where=sin_t > 0)
    out = np.moveaxis(anti * scale, 0, -1)

    obtuse = cos_t < 0.0
    if obtuse.any():
        ro, co = r[obtuse], cos_t[obtuse]
        outer = 0.5 * (ro + np.swapaxes(ro, -1, -2)) - co[:, None, None] * np.eye(3)
        col = np.argmax(np.diagonal(outer, axis1=-2, axis2=-1), axis=-1)
        axis = outer[np.arange(col.size), :, col]
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        along = np.einsum("...i,...i->...", axis, np.moveaxis(anti, 0, -1)[obtuse])
        axis[along < 0.0] *= -1.0
        out[obtuse] = axis * theta[obtuse][:, None]
    return out


def _motion(later, earlier):
    """later @ earlier^T: the rotation carrying earlier to later."""
    return _matmul3(later, np.swapaxes(earlier, -1, -2))


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
    values = psi.values

    def sl(s):
        # indexes along axis without moving it, so slices keep the planes' layout
        return (slice(None),) * axis + (s,)

    fwd = so3_log(_motion(values[sl(slice(1, None))], values[sl(slice(None, -1))]))
    # the two-step motions enter only the one-sided edge stencils
    two = so3_log(_motion(values[sl([2, -3])], values[sl([0, -1])]))
    out = np.empty(values.shape[:-1])
    out[sl(slice(1, -1))] = fwd[sl(slice(1, None))] + fwd[sl(slice(None, -1))]
    out[sl(0)] = 4.0 * fwd[sl(0)] - two[sl(0)]
    out[sl(-1)] = 4.0 * fwd[sl(-1)] + two[sl(1)]
    return out / (2.0 * psi.grid.spacing[axis])


def right_gradient_stack(psi):
    """All axis right-gradients, shape dims + (p, 3)."""
    return np.stack([right_gradient_axis(psi, i) for i in range(psi.grid.p)], axis=-2)


def tangent_project(vec_values, n_values):
    """Project a 3-vector field onto the tangent planes of a unit field."""
    dot = np.einsum("...i,...i->...", vec_values, n_values)
    return vec_values - dot[..., None] * n_values

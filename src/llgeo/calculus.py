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

from .fields import RotationField, _dot3, _matmul3, _matrices, _planes, check_rotations
from .grid import _along

ROTATION_TOL = 1e-8  # so3_log rejects matrices further than this from SO(3)


def partial(values, grid, axis, out=None):
    """d(values)/dx_axis with second-order stencils (central in the interior,
    one-sided at the edges), written into out (allocated like values when
    None) and returned.  Works for any trailing component shape."""
    sl = _along(axis, grid.p)
    values = np.asarray(values, float)
    h = grid.spacing[axis]
    out = np.empty_like(values) if out is None else out
    inner = np.subtract(values[sl(slice(2, None))], values[sl(slice(None, -2))],
                        out=out[sl(slice(1, -1))])
    np.divide(inner, 2.0 * h, out=inner)
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
    sl = _along(axis, grid.p)
    cot = np.asarray(cot, float)
    out = np.zeros_like(cot)
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


def cross3(a, b, out=None, scratch=None):
    """Cross product over the trailing axis, component c = a_i b_j - a_j b_i
    for (c, i, j) cyclic, written into out (component planes, allocated when
    None) with the products taken through the two planes of scratch (each
    allocated when None), as in triple."""
    if out is None:
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        out = np.moveaxis(np.empty((3,) + shape), 0, -1)
    s, t = (np.empty(out.shape[:-1]), np.empty(out.shape[:-1])) if scratch is None else scratch
    for c in range(3):
        i, j = (c + 1) % 3, (c + 2) % 3
        np.multiply(a[..., i], b[..., j], out=s)
        np.subtract(s, np.multiply(a[..., j], b[..., i], out=t), out=out[..., c])
    return out


def triple(a, b, c, out=None, scratch=None):
    """Scalar triple product a . (b x c) over the trailing axis, summed as
    a0 (b1 c2 - b2 c1) + a1 (b2 c0 - b0 c2) + a2 (b0 c1 - b1 c0) term by term
    into out, with the products taken through the two arrays of scratch
    (each allocated when None)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0, c1, c2 = c[..., 0], c[..., 1], c[..., 2]
    shape = np.broadcast_shapes(a0.shape, b0.shape, c0.shape)
    out = np.empty(shape) if out is None else out
    s, t = (np.empty(shape), np.empty(shape)) if scratch is None else scratch
    np.multiply(b1, c2, out=out)
    np.subtract(out, np.multiply(b2, c1, out=s), out=out)
    np.multiply(a0, out, out=out)
    for ai, (p, q), (r, u) in ((a1, (b2, c0), (b0, c2)), (a2, (b0, c1), (b1, c0))):
        np.multiply(p, q, out=s)
        np.subtract(s, np.multiply(r, u, out=t), out=s)
        np.add(out, np.multiply(ai, s, out=s), out=out)
    return out


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
    """Inverse of hat: the 3-vector (m_ji - m_ij) / 2 of a 3x3 matrix (its
    antisymmetric part) for (c, i, j) cyclic, as component planes."""
    m = _planes(np.asarray(m, float))
    out = np.empty((3,) + m.shape[2:])
    for c in range(3):
        i, j = (c + 1) % 3, (c + 2) % 3
        np.subtract(m[j, i], m[i, j], out=out[c, ...])
    out *= 0.5
    return np.moveaxis(out, 0, -1)


def so3_exp(v):
    """Rodrigues exponential, vectorized over leading axes of v (..., 3):
    I + sinc(theta) hat(v) + 1/2 sinc(theta/2)^2 (v v^T - theta^2 I), with
    sinc(x) = sin(x)/x smooth through 0 (np.sinc), so there is no small-angle
    branch and so3_exp(0) is I exactly.  The nine entries are written on
    planes, b v_i v_j + c on the diagonal and b v_i v_j -+ s v_k off it, and
    returned as a component-major (..., 3, 3) array."""
    v = np.asarray(v, float)
    comps = np.moveaxis(v, -1, 0)
    theta = np.sqrt(_dot3(v, v))
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
    column, normalised and oriented along vee R.  vee R (from vee) and the
    trace are read from the entry planes, |vee R|, the column's norm and
    its orientation are _dot3 sums, and the result is component-major.
    """
    r = np.asarray(r, float)
    check_rotations(r, ROTATION_TOL, "R")
    m = _planes(r)
    anti = vee(r)                      # = sin(theta) * axis
    sin_t = np.sqrt(_dot3(anti, anti))
    cos_t = (m[0, 0] + m[1, 1] + m[2, 2] - 1.0) / 2.0
    theta = np.arctan2(sin_t, cos_t)
    scale = np.divide(theta, sin_t, out=np.ones_like(theta), where=sin_t > 0)
    out = anti * scale[..., None]

    obtuse = cos_t < 0.0
    if obtuse.any():
        ro, co = r[obtuse], cos_t[obtuse]
        outer = 0.5 * (ro + np.swapaxes(ro, -1, -2)) - co[:, None, None] * np.eye(3)
        col = np.argmax(np.diagonal(outer, axis1=-2, axis2=-1), axis=-1)
        axis = outer[np.arange(col.size), :, col]
        axis /= np.sqrt(_dot3(axis, axis))[:, None]
        axis[_dot3(axis, anti[obtuse]) < 0.0] *= -1.0
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
    sl = _along(axis, psi.grid.p)  # slices keep the planes' layout
    values = psi.values
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
    return vec_values - _dot3(vec_values, n_values)[..., None] * n_values

"""Discrete calculus and the rotation-group logarithm.

Conventions pinned here once and used everywhere:

* rotations are unit quaternions q = (w, v) = (cos(theta/2),
  sin(theta/2) a), turning by theta about the unit axis a (right-handed);
  q and -q are the same rotation;
* partial derivatives, of values (partial) and of rotations (the right
  gradient), are one second-order stencil (_stencil): central differences
  in the interior, 4 (one-step) - (two-step) at each edge, all divided by
  2h once, in place;
* a cell's neighbors are flat offsets: partial, partial_T and the right
  gradient read the (components, cells) flat view of their arrays through
  grid._flat, and take the interior in one contiguous pass over the flat
  rows at +-stride along any axis; the cells whose neighbor wraps into the
  next row lie on the axis's two edge rows, which the edge formulas then
  overwrite.  dynamics.energy is the one stencil left on slices: it sums
  each axis's differences as one compact C-order block without the
  wrapped cells, and that sum order pins E's bits;
* integrals are midpoint-rule sums (cell value times cell volume);
* group-valued differencing uses the group logarithm of one-step motions
  q(x+h) q(x)*, one fields._motion each, never subtraction;
* so3_log is 2 atan2(|v|, |w|) copysign(1, w) v / |v|, one branch-free
  formula up to pi; its input passes the unit check of a stored
  RotationField (fields._vector_norm2), with the looser ROTATION_TOL, in
  the pass that sums |v|^2;
* the quaternion kernels (fields._motion and so3_log) write component planes
  and are sums on the four planes, so they take any layout and give the
  same bits for every layout.
"""

import numpy as np

from .fields import RotationField, _motion, _vector_norm2
from .grid import _along, _flat

ROTATION_TOL = 1e-8  # so3_log rejects quaternions with | |q|^2 - 1 | beyond this


def _stencil(out, h, sl=None, step=None):
    """The one owner of the second-order stencil's edges and scale: with
    step, out's edge row at each end e (0, then -1) of the axis that sl
    indexes gets 4 step(e, 1) - step(e, 2), the one-step and two-step
    differences into the grid, each formed only while it is used, over
    whatever the flat interior pass wrote there; then all of out
    (partial_T's transposed edges already in place) is divided by 2h in one
    in-place pass, contiguous for a contiguous out.  Returns out."""
    for e in (0, -1) if step else ():
        edge = out[sl(e) + (...,)]  # a view, a 0-d one for a 1-d scalar field
        np.subtract(np.multiply(4.0, step(e, 1), out=edge), step(e, 2), out=edge)
    return np.divide(out, 2.0 * h, out=out)


def partial(values, grid, axis, out=None):
    """d(values)/dx_axis with second-order stencils (central in the interior,
    one-sided at the edges), written into out (allocated like values when
    None) and returned.  Works for any trailing component shape.

    out must share the memory order of values (any order that grid._flat
    views: C order, component planes, Fortran order), else ValueError; a
    values without a flat view, such as a strided slice, is copied once.
    The interior is one subtraction over the flat rows at +-stride, whose
    wrapped cells fall on the two edge rows that _stencil then overwrites.
    """
    sl = _along(axis, grid.p)
    values = np.asarray(values, float)
    out = np.empty_like(values) if out is None else out
    (v, o), strides = _flat(grid.p, values, out)
    s = strides[axis]
    np.subtract(v[:, 2 * s:], v[:, :-2 * s], out=o[:, s:-s])
    # the k-step difference into the grid from the edge cell e (0 or -1), so
    # constants map to exactly zero
    return _stencil(out, grid.spacing[axis], sl,
                    lambda e, k: values[sl(k + e * (k + 1))] - values[sl(e * (k + 1))])


def partial_T(cot, grid, axis):
    """Exact transpose of the partial stencil, edge rows included:
    sum(partial(v) * c) == sum(v * partial_T(c)) for every v and c,
    returned laid out like cot.

    Pulls a cotangent of d(values)/dx_axis back to a cotangent of values,
    which is how the adjoint gradients of quadrature functionals are built.
    The interior c[i - s] - c[i + s] is one subtraction over the flat rows
    (grid._flat); the six edge rows, the two wrapped ones among them, are
    then written in place, each with its terms in the order of the
    scatter of the edge stencils' transposes.
    """
    sl = _along(axis, grid.p)
    cot = np.asarray(cot, float)
    out = np.empty_like(cot)
    (c, o), strides = _flat(grid.p, cot, out)
    s = strides[axis]
    np.subtract(c[:, :-2 * s], c[:, 2 * s:], out=o[:, s:-s])
    lo, hi = cot[sl(0)], cot[sl(-1)]
    out[sl(0)], out[sl(-1)] = 0.0 - cot[sl(1)] - 3.0 * lo, 0.0 + cot[sl(-2)] + 3.0 * hi
    out[sl(1)], out[sl(-2)] = 0.0 - cot[sl(2)] + 4.0 * lo, 0.0 + cot[sl(-3)] - 4.0 * hi
    out[sl(2)], out[sl(-3)] = out[sl(2)] - lo, out[sl(-3)] + hi
    return _stencil(out, grid.spacing[axis])


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


def so3_log(q):
    """Rotation vector of the unit quaternions q = (w, v), |log| <= pi,
    vectorized over (..., 4): 2 atan2(|v|, |w|) copysign(1, w) v / |v|, and
    0 where v = 0.  q and -q give the same vector: copysign picks the
    w >= 0 representative, and it keeps the sign of a zero w, so a half
    turn (+-0, v) logs to +-pi v / |v|, never to 0.  Rejects, in the same
    pass that sums |v|^2, inputs with | |q|^2 - 1 | > ROTATION_TOL.  The
    result is component-major.
    """
    q = np.asarray(q, float)
    w, v = q[..., 0], q[..., 1:]
    s = np.sqrt(_vector_norm2(q, ROTATION_TOL, "q"))
    angle = 2.0 * np.arctan2(s, np.abs(w))
    scale = np.copysign(np.divide(angle, s, out=np.ones_like(s), where=s > 0), w)
    out = np.empty((3,) + s.shape)
    for c in range(3):
        np.multiply(v[..., c], scale, out=out[c, ...])
    return np.moveaxis(out, 0, -1)


def right_gradient_axis(psi, axis):
    """Right-hand gradient of a rotation field along a grid axis, as a
    3-vector field in component planes: the derivative at epsilon=0 of
    psi(x + eps e_axis) psi(x)^-1.

    Central in the group in the interior, second-order one-sided at the edges.
    Each one-step motion q(x+h) q(x)* is one fields._motion over the
    flat pairs of cells at +-stride (grid._flat), logged once: the backward
    motion at x is the inverse of the forward one at x-h, and log q* = -log q.
    The pairs that wrap fall on the two edge rows, whose one-sided stencils
    take their one-step and two-step motions from one 4-row product.
    """
    if not isinstance(psi, RotationField):
        raise TypeError("psi must be a RotationField")
    sl = _along(axis, psi.grid.p)
    q = psi.values
    (qf,), strides = _flat(psi.grid.p, q)
    s = strides[axis]
    fwd = so3_log(_motion(qf[:, s:].T, qf[:, :-s].T))
    out = np.moveaxis(np.empty((3,) + psi.grid.dims), 0, -1)  # after the logs' scratch is freed
    (_, of), _ = _flat(psi.grid.p, q, out)
    np.add(fwd[s:], fwd[:-s], out=of[:, s:-s].T)
    # the edge rows' motions q(x+h) q(x)* and q(x+2h) q(x)* at the low end,
    # and at the high end; its two-step one runs backward, q(x-2h) q(x)*,
    # so it enters negated
    edge = so3_log(_motion(q[sl([1, 2, -1, -3])], q[sl([0, 0, -2, -1])]))
    np.negative(edge[sl(3)], out=edge[sl(3)])
    return _stencil(out, psi.grid.spacing[axis], sl, lambda e, k: edge[sl(k - 1 - 2 * e)])


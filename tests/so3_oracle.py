"""The stacked-matrix SO(3) formulas, kept as an oracle for the quaternion
kernels in llgeo.fields and llgeo.calculus.

They work on interleaved (..., 3, 3) arrays: the exponential sums hat(v),
an outer product and a multiple of eye, the log reads vee R and the trace
off the stacked matrices (with the largest-diagonal column of
sym R - cos(theta) I for obtuse angles), and products are `@`.  matrix(q)
is the rotation matrix of a unit quaternion, a polynomial in q,
quaternion(v) the unit quaternion of a rotation vector, and qmul the
textbook Hamilton product, which builds the composed fields of the tests;
llgeo's quaternion route is checked against these through matrix(q).
right_gradient is the allocating assembly of llgeo's own logged motions,
the oracle of the in-place stencil of llgeo.calculus.right_gradient_axis.
"""

import numpy as np

import llgeo.calculus
from llgeo.fields import _motion


def hat(v):
    """so(3) matrix of a 3-vector, stacked: hat(v) @ w == v x w."""
    v = np.asarray(v, float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def vee(m):
    """The 3-vector of the antisymmetric part of each 3x3 matrix, stacked."""
    return 0.5 * np.stack([m[..., 2, 1] - m[..., 1, 2],
                           m[..., 0, 2] - m[..., 2, 0],
                           m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def so3_exp(v):
    v = np.asarray(v, float)
    theta = np.linalg.norm(v, axis=-1)[..., None, None]
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    return (np.sinc(theta / np.pi) * hat(v) + b * (v[..., :, None] * v[..., None, :])
            + (1.0 - b * theta ** 2) * np.eye(3))


def so3_log(r):
    """The log of matrices already known to be rotations (no check)."""
    r = np.asarray(r, float)
    anti = vee(r)
    sin_t = np.linalg.norm(anti, axis=-1)
    cos_t = (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0) / 2.0
    theta = np.arctan2(sin_t, cos_t)
    scale = np.divide(theta, sin_t, out=np.ones_like(theta), where=sin_t > 0)
    out = anti * scale[..., None]

    obtuse = cos_t < 0.0
    if obtuse.any():
        ro, co = r[obtuse], cos_t[obtuse]
        outer = 0.5 * (ro + np.swapaxes(ro, -1, -2)) - co[:, None, None] * np.eye(3)
        col = np.argmax(np.diagonal(outer, axis1=-2, axis2=-1), axis=-1)
        axis = outer[np.arange(col.size), :, col]
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        axis[np.einsum("...i,...i->...", axis, anti[obtuse]) < 0.0] *= -1.0
        out[obtuse] = axis * theta[obtuse][:, None]
    return out


def motion(later, earlier):
    return later @ np.swapaxes(earlier, -1, -2)


def compose(a, b):
    return a @ b


def qmul(a, b):
    """The Hamilton product a b of quaternions (w, x, y, z), stacked:
    (a_w b_w - a_v . b_v, a_w b_v + b_w a_v + a_v x b_v), through np.cross
    and fresh C-order arrays, independent of llgeo's plane-by-plane
    fields._motion."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    av, bv = a[..., 1:], b[..., 1:]
    w = a[..., :1] * b[..., :1] - (av * bv).sum(axis=-1, keepdims=True)
    return np.concatenate([w, a[..., :1] * bv + b[..., :1] * av + np.cross(av, bv)], axis=-1)


def quaternion(v):
    """The unit quaternion (cos(theta/2), sin(theta/2) v/theta) of each
    rotation vector v, theta = |v|, stacked (..., 4); (1, 0, 0, 0) at 0."""
    v = np.asarray(v, float)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.concatenate([np.cos(theta / 2.0), 0.5 * np.sinc(theta / (2.0 * np.pi)) * v],
                          axis=-1)


def matrix(q):
    """The rotation matrix of each unit quaternion q = (w, x, y, z), stacked:
    (w^2 - |v|^2) I + 2 v v^T + 2 w hat(v)."""
    q = np.asarray(q, float)
    w, v = q[..., 0, None, None], q[..., 1:]
    return ((w ** 2 - (v * v).sum(axis=-1)[..., None, None]) * np.eye(3)
            + 2.0 * v[..., :, None] * v[..., None, :] + 2.0 * w * hat(v))


def right_gradient(psi, axis):
    """The right gradient of a RotationField along axis, assembled in fresh
    C-order arrays from the motions llgeo logs (llgeo's _motion and so3_log):
    fwd[i] + fwd[i-1] in the interior, 4 fwd[0] - two[0] and
    4 fwd[-1] + two[1] at the edges, divided by 2h."""
    sl = lambda s: (slice(None),) * axis + (s,)  # noqa: E731
    q = psi.values
    fwd = llgeo.calculus.so3_log(_motion(q[sl(slice(1, None))], q[sl(slice(None, -1))]))
    two = llgeo.calculus.so3_log(_motion(q[sl([2, -3])], q[sl([0, -1])]))
    out = np.empty(psi.grid.dims + (3,))
    out[sl(slice(1, -1))] = fwd[sl(slice(1, None))] + fwd[sl(slice(None, -1))]
    out[sl(0)] = 4.0 * fwd[sl(0)] - two[sl(0)]
    out[sl(-1)] = 4.0 * fwd[sl(-1)] + two[sl(1)]
    return out / (2.0 * psi.grid.spacing[axis])

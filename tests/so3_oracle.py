"""The stacked-matrix SO(3) formulas, kept as an oracle for the entrywise
kernels in llgeo.calculus and llgeo.fields.

They work on interleaved (..., 3, 3) arrays: the exponential sums hat(v),
an outer product and a multiple of eye, the log reads vee R (its own
stacked vee, not llgeo's, which so3_log calls) and the trace off the
stacked matrices, and products and R^T R are `@`.  llgeo's kernels write
the same sums on entry planes and must agree with these to 1e-15.
"""

import numpy as np

from llgeo.calculus import hat


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


def gram_deviation(r):
    """max |R^T R - I| over the stack."""
    return np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max()

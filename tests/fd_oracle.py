"""Finite-difference variational derivative: the independent oracle the
analytic and adjoint gradients are tested against.

It assumes nothing about the stencil of the functional it differentiates,
so it costs 4 * ncells full evaluations; no library path calls it.
"""

import numpy as np

from llgeo import SpinField
from llgeo.calculus import cross3


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

    At each cell the field is rotated by +-step about the two tangent axes
    (staying exactly on the sphere) and the central difference is divided by
    the cell volume, so the result is tangent to n by construction.
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

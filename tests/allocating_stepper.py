"""The allocating Landau-Lifshitz stepper, kept as an oracle for the in-place
one in llgeo.dynamics.

It builds every stage from fresh arrays: the np.pad neighbor sums of the
effective field H, its own textbook cross product (not llgeo's cross3,
which the stepper runs), np.linalg.norm renormalisation and the textbook
stage formulas.  llgeo.dynamics.step and llgeo.dynamics.simulate must
reproduce it exactly (np.array_equal).  Its ll_rhs, n x H, is the reference
right-hand side the tests use, and its variational_derivative_energy, the
np.diff plus np.pad dE/dn, is the tests' gradient of the discrete energy.
"""

import numpy as np

from llgeo import K_AXIS
from llgeo.errors import ConvergenceError


def cross(a, b):
    """a x b over the trailing axis, component by component, into a fresh
    C-order array."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def free_laplacian(values, grid):
    out = np.zeros_like(values)
    for axis in range(grid.p):
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 1)
        d = np.diff(values, axis=axis) / grid.spacing[axis]
        out += np.diff(np.pad(d, pad), axis=axis) / grid.spacing[axis]
    return out


def variational_derivative_energy(n, params):
    kdot = n.values @ K_AXIS
    return -free_laplacian(n.values, n.grid) + params.a * (
        n.values - kdot[..., None] * K_AXIS
    )


def effective_field(n, params):
    values = n.values
    terms = []
    for axis, h in enumerate(n.grid.spacing):
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 1)
        padded = np.pad(values, pad)
        ahead, behind = ((slice(None),) * axis + (s,) for s in (slice(2, None), slice(None, -2)))
        terms.append((padded[ahead] + padded[behind]) / h ** 2)
    return sum(terms) + params.a * (values @ K_AXIS)[..., None] * K_AXIS


def ll_rhs(n, params):
    return cross(n.values, effective_field(n, params))


def renormalize(values):
    return values / np.linalg.norm(values, axis=-1, keepdims=True)


def step(n, cfg):
    mask = n.grid.boundary_mask() if n.decaying else None

    def rhs(values):
        f = ll_rhs(n.with_values(values, check=False), cfg.params)
        if mask is not None:
            f[mask] = 0.0
        return f

    y = np.array(n.values)
    dt = cfg.dt
    if cfg.scheme == "rk4_project":
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        out = renormalize(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    else:
        out = y.copy()
        for _ in range(50):
            mid = renormalize(0.5 * (y + out))
            new = y + dt * rhs(mid)
            delta = np.abs(new - out).max()
            out = new
            if delta < 1e-12:
                break
        else:
            raise ConvergenceError("implicit midpoint did not converge", iterations=50)
    return n.with_values(out, check=False)

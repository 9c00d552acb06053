"""The allocating Landau-Lifshitz stepper, kept as an oracle for the in-place
one in llgeo.dynamics.

It builds every stage from fresh arrays: the np.pad neighbor sums of the
scaled effective field h0^2 H (h0 the first axis's spacing), its own
textbook cross product (not llgeo's cross3, which the stepper runs),
np.linalg.norm renormalisation and the textbook stage formulas with the
weight tau = dt/h0^2 in place of dt (the midpoint renormalizes y + n_k, not
its half, and solves its fixed point with the stepper's two-step sweep).
llgeo.dynamics.step and llgeo.dynamics.simulate must reproduce it exactly
(np.array_equal).  plain_midpoint solves the same fixed point with the
plain sweep x_{k+1} = G(x_k) and no cap on the sweeps, an oracle of the
fixed point that shares no iteration with the stepper.  Its
effective_field, H divided by h^2 per
axis, and ll_rhs, n x H, are the unscaled reference field and right-hand
side the tests use, and its variational_derivative_energy, the np.diff
plus np.pad dE/dn, is the tests' gradient of the discrete energy.
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


def neighbor_sums(values):
    """n[i+1] + n[i-1] along each axis in turn, a missing neighbor left out."""
    for axis in range(values.ndim - 1):
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 1)
        padded = np.pad(values, pad)
        ahead, behind = ((slice(None),) * axis + (s,) for s in (slice(2, None), slice(None, -2)))
        yield padded[ahead] + padded[behind]


def effective_field(n, params):
    terms = [s / h ** 2 for s, h in zip(neighbor_sums(n.values), n.grid.spacing)]
    return sum(terms) + params.a * (n.values @ K_AXIS)[..., None] * K_AXIS


def scaled_effective_field(n, params):
    """h0^2 H, each axis's neighbor sum weighted by (h0/h)^2."""
    h0 = n.grid.spacing[0]
    terms = [s * (h0 / h) ** 2 for s, h in zip(neighbor_sums(n.values), n.grid.spacing)]
    return sum(terms) + (params.a * h0 ** 2) * (n.values @ K_AXIS)[..., None] * K_AXIS


def ll_rhs(n, params):
    return cross(n.values, effective_field(n, params))


def renormalize(values):
    return values / np.linalg.norm(values, axis=-1, keepdims=True)


def _rhs(n, cfg):
    mask = n.grid.boundary_mask() if n.decaying else None

    def rhs(values):
        f = cross(values, scaled_effective_field(n.with_values(values, check=False), cfg.params))
        if mask is not None:
            f[mask] = 0.0
        return f
    return rhs


def _midpoint(n, cfg, q2, sweeps):
    """The fixed point x = y + tau rhs(renormalize(y + x)) from x_0 = y: the
    first sweep plain, every later one x_{k+1} = G(x_k) + q2 (x_{k-1} - G(x_k))
    (plain too when q2 is 0), until |G(x_k) - x_k| < 1e-12; returns x_{k+1}."""
    rhs, y = _rhs(n, cfg), np.array(n.values)
    tau = cfg.dt / n.grid.spacing[0] ** 2
    prev, out = None, y.copy()
    for _ in range(sweeps):
        g = y + tau * rhs(renormalize(y + out))
        delta = np.abs(g - out).max()
        prev, out = out, (g if prev is None or not q2 else g + q2 * (prev - g))
        if delta < 1e-12:
            return out
    raise ConvergenceError("implicit midpoint did not converge", iterations=sweeps)


def plain_midpoint(n, cfg):
    """The spherical midpoint step by the plain sweep x_{k+1} = G(x_k)."""
    return n.with_values(_midpoint(n, cfg, 0.0, 100000), check=False)


def step(n, cfg):
    y = np.array(n.values)
    tau = cfg.dt / n.grid.spacing[0] ** 2
    if cfg.scheme == "rk4_project":
        rhs = _rhs(n, cfg)
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * tau * k1)
        k3 = rhs(y + 0.5 * tau * k2)
        k4 = rhs(y + tau * k3)
        out = renormalize(y + tau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    else:
        rho = 4.0 * sum(1.0 / h ** 2 for h in n.grid.spacing) + abs(cfg.params.a)
        r = cfg.dt * rho / 2.0
        q = r / (1.0 + np.sqrt(1.0 + r * r))
        out = _midpoint(n, cfg, q * q, 50)
    return n.with_values(out, check=False)

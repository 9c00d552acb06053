"""The allocating report, kept as an oracle for the in-place one in
llgeo.dynamics.make_report.

Every quantity is built from fresh arrays: np.diff exchange differences of
the component planes, np.linalg.norm, n @ K_AXIS, the per-axis central
differences, the planes of the 2-form as one triple-product expression each,
and the moment tensor G of the 2-form contracted axis by axis, which deg,
P and L are read from.  Every sum runs over contiguous planes, as the
in-place kernels' do.  llgeo.dynamics.make_report and llgeo.momenta.moments
must reproduce it exactly (np.array_equal), with or without a workspace.
It allocates as make_report did before it took a workspace, so its peak
memory is the bound for make_report without one.

first_moments takes the first moments of a density plane by plane, each
entry one dot product with a coordinate plane, and density_route takes P
and L through it as integrals of the P-density: the same quadratures as
llgeo.momenta's axis-by-axis contraction in another summation order, an
oracle at a stated bound.

partial and partial_T are the allocating forms of the stencil and of its
transpose (a scatter into a zero-filled array, edge rows last), which
llgeo.calculus.partial and partial_T must reproduce exactly in every
layout.
"""

import numpy as np

from llgeo import K_AXIS, integrate
from llgeo.dynamics import EnergyParams
from llgeo.fields import plane_pairs
from llgeo.momenta import MomentumReport

from conftest import coords


def energy(n, params):
    values = n.values
    planes = np.moveaxis(values, -1, 0)
    exch = 0.0
    for axis in range(n.grid.p):
        d = np.diff(planes, axis=axis + 1) / n.grid.spacing[axis]
        exch += 0.5 * float((d * d).sum()) * n.grid.cell_volume
    perp = values - (values @ K_AXIS)[..., None] * K_AXIS  # n - (n.k) k
    aniso_dens = (perp * perp).sum(axis=-1)
    return exch + 0.5 * params.a * float(integrate(aniso_dens, n.grid))


def momentum_N(n):
    return float(integrate(1.0 + n.values @ K_AXIS, n.grid))


def norm_deviation(n):
    return float(np.abs(np.linalg.norm(n.values, axis=-1) - 1.0).max())


def partial(values, grid, axis):
    sl = lambda s: (slice(None),) * axis + (s,)  # noqa: E731
    h = grid.spacing[axis]
    out = np.empty_like(values)
    out[sl(slice(1, -1))] = (values[sl(slice(2, None))] - values[sl(slice(None, -2))]) / (2.0 * h)
    out[sl(0)] = (4.0 * (values[sl(1)] - values[sl(0)]) - (values[sl(2)] - values[sl(0)])) / (2.0 * h)
    out[sl(-1)] = (4.0 * (values[sl(-1)] - values[sl(-2)])
                   - (values[sl(-1)] - values[sl(-3)])) / (2.0 * h)
    return out


def partial_T(cot, grid, axis):
    """The transpose of partial as a scatter into a zero-filled array: the
    interior rows added at +-1, then the edge rows' transposed weights, and
    one division by 2h."""
    sl = lambda s: (slice(None),) * axis + (s,)  # noqa: E731
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


def two_form(n):
    grads = [partial(n.values, n.grid, i) for i in range(n.grid.p)]
    a = n.values
    F = {}
    for i, j in plane_pairs(n.grid.p):
        b, c = grads[i], grads[j]
        F[i, j] = (a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
                   + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
                   + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]))
    return F


def _density_P(F, grid):
    dens = np.zeros((grid.p,) + grid.dims)
    x = coords(grid)
    for (i, j), f in F.items():
        dens[i] += x[..., j] * f
        dens[j] -= x[..., i] * f
    return dens / (grid.p - 1)


def density_P(n):
    """The P-density as p planes, shape (p,) + dims: sum_j x_j F_ij / (p-1)."""
    return _density_P(two_form(n), n.grid)


def first_moments(w, grid):
    """(integral of x wedge w, integral of w) for a density w of p
    contiguous planes, (p,) + dims: each plane integrated on its own, and
    the wedge moment M - M^T with M = integral of x w^T, each entry one
    np.einsum dot product of a coordinate plane with a plane of w."""
    total = np.array([integrate(plane, grid) for plane in w])
    x = coords(grid)
    m = np.array([[np.einsum("i,i->", x[..., i].ravel(), plane.ravel())
                   for plane in w] for i in range(grid.p)]) * grid.cell_volume
    return m - m.T, total


def density_route(n):
    """(P, L) as the integral and -(p-1)/p times the wedge moment of the
    P-density."""
    rot, P = first_moments(density_P(n), n.grid)
    return P, -(n.grid.p - 1) / n.grid.p * rot


def moment_tensor(n):
    """G[i, j, a, b] = integral of xt_a xt_b F_ij with xt = (x, 1): each
    plane of F contracted along each axis in turn with the rows (1, x, x^2)
    of that axis's coordinates, then read at the exponents of xt_a xt_b."""
    grid, p = n.grid, n.grid.p
    G = np.zeros((p, p, p + 1, p + 1))
    for (i, j), f in two_form(n).items():
        T = f
        for axis in range(p):
            x = grid.axis_coords(axis)
            T = np.einsum("k...,ck->...c", T, np.stack([np.ones_like(x), x, x * x]))
        for a in range(p + 1):
            for b in range(p + 1):
                e = [0] * p
                for c in (a, b):
                    if c < p:
                        e[c] += 1
                G[i, j, a, b] = T[tuple(e)]
        G[j, i] = -G[i, j]
    return G * grid.cell_volume


def moments(n):
    p = n.grid.p
    G = moment_tensor(n)
    deg = float(G[0, 1, 2, 2] / (4.0 * np.pi)) if p == 2 else None
    m = np.einsum("ijaj->ai", G[:, :, :p, :p])
    return deg, np.einsum("ijj->i", G[:, :, :p, p]) / (p - 1), (m.T - m) / p


def make_report(n, t, params=EnergyParams()):
    e_val = energy(n, params) if n.decaying else None
    deg, P, L = moments(n) if n.grid.p >= 2 and n.decaying else (None,) * 3
    return MomentumReport(
        t=float(t),
        energy=e_val,
        N=momentum_N(n),
        P=P,
        L=L,
        deg=deg,
        norm_dev=norm_deviation(n),
    )

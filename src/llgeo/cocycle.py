"""Semidirect-product algebra, the nonequivariance cocycle (computed two
independent ways) and the Lie-Poisson bracket on spin fields.

The headline identity tied together here: for unit translations i, j on a
degree-m field, the measured bracket {P_x, P_y} equals -Sigma(i, j)
= 4*pi*omega0(i, j)*m = 4*pi*deg, with omega0(a, b) = a^T J b,
J = [[0, 1], [-1, 0]].
"""

import numpy as np

from .fields import EuclideanAlgebraElement, SemidirectAlgebraElement, SpinField
from .calculus import (
    cross3,
    integrate,
    partial,
    tangent_project,
    triple,
)
# momentum_P_general stays importable here: perfbench/test_smoke.py traces
# it as a cross-module name of this module
from .momenta import degree, momentum_P_derivative, momentum_P_general  # noqa: F401

OMEGA0_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def omega0(a1, a2):
    """Standard symplectic pairing of two planar vectors."""
    return float(np.asarray(a1) @ OMEGA0_J @ np.asarray(a2))


def directional_derivative(values, grid, velocity):
    """Derivative of a field along the spatial vector field `velocity`
    (shape dims + (p,)): sum_i velocity_i d_i values."""
    out = np.zeros_like(np.asarray(values, float))
    for i in range(grid.p):
        out += velocity[..., i, None] * partial(values, grid, i)
    return out


def wedge_lift(mu, e):
    """Lift of a Euclidean algebra element through the field mu:
    xi(x) = mu x (grad of mu along Omega x + adot), paired with e.

    xi solves xi x mu = grad_{Omega x + adot} mu wherever the right side is
    tangent to mu, which |mu| = 1 forces up to discretization error.  xi is
    zeroed on the boundary layer, the discrete model of vanishing at infinity.
    """
    if e.p != mu.grid.p:
        raise ValueError("algebra element dimension must match the grid")
    vel = e.velocity_field(mu.grid)
    dmu = directional_derivative(mu.values, mu.grid, vel)
    xi = cross3(mu.values, dmu)
    xi[mu.grid.boundary_mask()] = 0.0
    return SemidirectAlgebraElement(mu.grid, xi, e)


def _euclid_bracket(e1, e2):
    o1, o2 = e1.omega, e2.omega
    m = o1 @ o2 - o2 @ o1
    upper = [m[i, j] for i in range(e1.p) for j in range(i + 1, e1.p)]
    return EuclideanAlgebraElement(e1.p, upper, o1 @ e2.adot - o2 @ e1.adot)


def semidirect_bracket(u, v):
    """Lie bracket on the semidirect-product algebra:
    ( xi1 x xi2 - grad_{c1} xi2 + grad_{c2} xi1, [e1, e2] )
    with c_a the affine velocity field of e_a."""
    if u.grid != v.grid:
        raise ValueError("elements must share a grid")
    grid = u.grid
    c1 = u.euclid.velocity_field(grid)
    c2 = v.euclid.velocity_field(grid)
    xi = (
        cross3(u.xi, v.xi)
        - directional_derivative(v.xi, grid, c1)
        + directional_derivative(u.xi, grid, c2)
    )
    xi[grid.boundary_mask()] = 0.0
    return SemidirectAlgebraElement(grid, xi, _euclid_bracket(u.euclid, v.euclid))


def cocycle_direct(mu, e1, e2):
    """Nonequivariance cocycle, direct quadrature:
    Sigma(e1, e2) = -int mu . (grad_{c1} mu x grad_{c2} mu)."""
    vel1 = e1.velocity_field(mu.grid)
    vel2 = e2.velocity_field(mu.grid)
    d1 = directional_derivative(mu.values, mu.grid, vel1)
    d2 = directional_derivative(mu.values, mu.grid, vel2)
    return -float(integrate(triple(mu.values, d1, d2), mu.grid))


def cocycle_via_pairing(mu, e1, e2):
    """The same cocycle through the algebra: pair mu with the field part of
    the bracket of the two wedge lifts."""
    lifted = semidirect_bracket(wedge_lift(mu, e1), wedge_lift(mu, e2))
    dens = np.einsum("...i,...i->...", mu.values, lifted.xi)
    return float(integrate(dens, mu.grid))


def lie_poisson_bracket(dF, dG, n):
    """{F, G}(n) = int n . (dF x dG), with both arguments projected onto the
    tangent planes first (the normal parts cannot contribute anyway)."""
    if not isinstance(n, SpinField):
        raise TypeError("n must be a SpinField")
    dF = tangent_project(np.asarray(dF, float), n.values)
    dG = tangent_project(np.asarray(dG, float), n.values)
    return float(integrate(triple(n.values, dF, dG), n.grid))


def check_px_py_bracket(n):
    """Measure {P_x, P_y}(n) from the exact adjoint gradients of the two
    translation momenta, and return it next to 4*pi*deg(n).

    No rotation lift is involved, so soliton fields (which hit +k) are fine.
    The gradients are those of the discrete P quadrature itself, so the
    only error left is the discretization of the bracket and the degree;
    the tests compare them against the finite-difference oracle.
    """
    if n.grid.p != 2:
        raise ValueError("the bracket check is a p = 2 diagnostic")
    dpx, dpy = momentum_P_derivative(n)
    bracket = lie_poisson_bracket(dpx, dpy, n)
    return bracket, 4.0 * np.pi * degree(n)

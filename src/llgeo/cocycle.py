"""Semidirect-product algebra, the nonequivariance cocycle and the
Lie-Poisson bracket on spin fields.

The cocycle is computed two ways: directly, as the bilinear form of the
moment tensor G of the topological 2-form (momenta._moment_tensor, which
takes each plane's moments by the one rule momenta._plane_moments) in the
two elements, which makes no derivative pass on a checked field whose G is
kept; and through the algebra, by pairing the field with the bracket of two
wedge lifts, which differentiates the lifted algebra fields as well.

The headline identity tied together here: for unit translations i, j on a
degree-m field, the measured bracket {P_x, P_y} equals -Sigma(i, j)
= 4*pi*omega0(i, j)*m = 4*pi*deg, with omega0(a, b) = a^T J b,
J = [[0, 1], [-1, 0]].
"""

import numpy as np

from .fields import EuclideanAlgebraElement, SemidirectAlgebraElement, SpinField, _dot3
from .calculus import cross3, integrate, partial, triple
# momentum_P_general stays importable here: perfbench/test_smoke.py traces
# it as a cross-module name of this module
from .momenta import _K_P, _gradients, _moment_adjoint, _moment_tensor, _tensor
from .momenta import momentum_P_general  # noqa: F401

OMEGA0_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def omega0(a1, a2):
    """Standard symplectic pairing of two planar vectors."""
    return float(np.asarray(a1) @ OMEGA0_J @ np.asarray(a2))


def _directional(velocity, derivs):
    """sum_i v_i d_i from the per-axis derivatives d_i (any iterable), with
    velocity the spatial vector field v, shape dims + (p,) (its component
    planes, as velocity_field lays them out, are read one at a time)."""
    return sum(v[..., None] * d for v, d in zip(np.moveaxis(velocity, -1, 0), derivs))


def _directional_derivative(values, grid, velocity):
    """Derivative of a field along the spatial vector field `velocity`
    (shape dims + (p,)): sum_i velocity_i d_i values."""
    return _directional(velocity, (partial(values, grid, i) for i in range(grid.p)))


def _wedge_lift(mu, grads, e):
    """wedge_lift from the derivative list of mu (see there)."""
    xi = cross3(mu.values, _directional(e.velocity_field(mu.grid), grads))
    xi[mu.grid.boundary_mask()] = 0.0
    return SemidirectAlgebraElement(mu.grid, xi, e)


def wedge_lift(mu, e):
    """Lift of a Euclidean algebra element through the field mu:
    xi(x) = mu x (grad of mu along Omega x + adot), paired with e.

    xi solves xi x mu = grad_{Omega x + adot} mu wherever the right side is
    tangent to mu, which |mu| = 1 forces up to discretization error.  xi is
    zeroed on the boundary layer, the discrete model of vanishing at infinity.
    """
    return _wedge_lift(mu, _gradients(mu), e)


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
        - _directional_derivative(v.xi, grid, c1)
        + _directional_derivative(u.xi, grid, c2)
    )
    xi[grid.boundary_mask()] = 0.0
    # [e1, e2] = (O1 O2 - O2 O1, O1 adot2 - O2 adot1); A - A^T is exactly skew
    o1, o2 = u.euclid.omega, v.euclid.omega
    a = o1 @ o2
    adot = o1 @ v.euclid.adot - o2 @ u.euclid.adot
    return SemidirectAlgebraElement(grid, xi, EuclideanAlgebraElement.from_matrix(a - a.T, adot))


def cocycle_direct(mu, e1, e2):
    """Nonequivariance cocycle, direct quadrature:
    Sigma(e1, e2) = -int mu . (grad_{c1} mu x grad_{c2} mu)
                  = -int sum_{i,j} c1_i c2_j F_ij
                  = -sum A1_ia A2_jb G[i, j, a, b],
    with c = A (x, 1) the affine velocity field of e, A = [Omega | adot],
    F the 2-form of mu and G its moment tensor (momenta._tensor: no pass on
    a checked mu whose G is kept).  The sign is taken as 0 - sum, which is
    -sum to the bit except that a zero comes out +0, never -0."""
    mu.require_decaying("cocycle_direct")
    A1, A2 = (e._affine(mu.grid) for e in (e1, e2))
    return 0.0 - float(np.einsum("ia,jb,ijab->", A1, A2, _tensor(mu)))


def cocycle_via_pairing(mu, e1, e2):
    """The same cocycle through the algebra: pair mu with the field part of
    the bracket of the two wedge lifts, both built from one derivative pass."""
    mu.require_decaying("cocycle_via_pairing")
    grads = _gradients(mu)
    lifted = semidirect_bracket(_wedge_lift(mu, grads, e1), _wedge_lift(mu, grads, e2))
    return float(integrate(_dot3(mu.values, lifted.xi), mu.grid))


def lie_poisson_bracket(dF, dG, n):
    """{F, G}(n) = int n . (dF x dG), with dF and dG taken as given, not
    projected onto the tangent planes: the triple product ignores a normal
    part c n of either (n . (n x b) = n . (a x n) = 0), so a projection
    would only move the rounding.  Each must be shaped like n.values: a
    constant 3-vector would broadcast over the grid, and is refused."""
    if not isinstance(n, SpinField):
        raise TypeError("n must be a SpinField")
    dF, dG = np.asarray(dF, float), np.asarray(dG, float)
    for name, d in (("dF", dF), ("dG", dG)):
        if d.shape != n.values.shape:
            raise ValueError(f"{name}: shape {d.shape} does not match the field's {n.values.shape}")
    return float(integrate(triple(n.values, dF, dG), n.grid))


def check_px_py_bracket(n):
    """Measure {P_x, P_y}(n) from the exact adjoint gradients of the two
    translation momenta (momenta._moment_adjoint of each K_P[k]), and return
    it next to 4*pi*deg(n).

    No rotation lift is involved, so soliton fields (which hit +k) are fine.
    The gradients are those of the discrete P quadrature itself, so the
    only error left is the discretization of the bracket and the degree;
    the tests compare them against the finite-difference oracle.  Both
    sides come from one derivative pass: 4*pi*deg is the entry G[0, 1, 2, 2]
    of the moment tensor built from the derivatives the adjoint reads.
    """
    if n.grid.p != 2:
        raise ValueError("the bracket check is a p = 2 diagnostic")
    n.require_decaying("check_px_py_bracket")
    grads = _gradients(n)
    dpx, dpy = (_moment_adjoint(n, grads, K) for K in _K_P(2))
    return lie_poisson_bracket(dpx, dpy, n), float(_moment_tensor(n, grads)[0, 1, 2, 2])

"""Conserved quantities and momentum maps for unit-vector fields.

Everything here is a quadrature of first derivatives of the field, taken in
one derivative pass (_gradients) per field.  The winding diagnostics are
moments of one object, the topological 2-form F_ij = n . (d_i n x d_j n)
(_two_form): the degree integrates F_xy, the curl form of P reads F as a
vector (the vorticity), and the P-density is sum_j x_j F_ij / (p-1), so
the curl form and the general-dimension form of P are one moment of F
summed in two orders.
Besides these: the rotation charge N, the rotational momentum, and the three
routes to the Euclidean momentum of the reduced system (P-density, rotation
lift + group gradient, closed-form lift identity), each the first moments
(integral of x wedge w, integral of w) of one density w; every lift route
starts from _lift_frame, which refuses a fat singular set n -> +k.

Orientation conventions are pinned in one place:

* hat map hat(v)w = v x w and right-handed cross product;
* omega0(a, b) = a^T J b with J = [[0, 1], [-1, 0]];
* the soliton generator has quadrature degree +m;
* the lift derivative identity holds with a PLUS sign:
  n . rgrad_i psi_n = +(k x n) . d_i n / (1 - k.n);
* with these choices the three momentum routes agree with NO extra sign,
  i.e. reduced_momentum_lift == momentum_JH(lift_psi(n), n) == (L, P),
  which the cross-formula tests assert.  The rotation slot of the density
  route needs the factor (p-1)/p that moments applies; see there.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularLiftError
from .fields import K_AXIS, RotationField, plane_pairs
from .generators import make_gauge_field
from .calculus import (
    cross3,
    integrate,
    partial,
    partial_T,
    right_gradient_stack,
    so3_exp,
    tangent_project,
    triple,
)

SINGULAR_KDOT = 1.0 - 1e-8
MAX_SINGULAR_FRACTION = 0.01


@dataclass(frozen=True)
class MomentumReport:
    """Diagnostics bundle emitted by the simulation driver.

    P, L and deg are None when the field does not support them (wrong p or
    non-decaying far field).
    """

    t: float
    energy: Optional[float]
    N: float
    P: Optional[np.ndarray]
    L: Optional[np.ndarray]
    deg: Optional[float]
    norm_dev: float

    def __post_init__(self):
        if self.L is not None:
            if np.abs(self.L + self.L.T).max() != 0:
                raise ValueError("L must be exactly skew")
        for name in ("t", "N", "norm_dev"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite report entry {name}")


def _gradients(n):
    """The one derivative pass over a spin field: the list of per-axis
    derivatives d_i n, each of shape dims + (3,)."""
    return [partial(n.values, n.grid, i) for i in range(n.grid.p)]


def _two_form(n, grads):
    """The topological 2-form F_ij = n . (d_i n x d_j n) from the derivative
    list, one plane per entry of plane_pairs, keyed (i, j).  Every winding
    diagnostic (deg, P in either form, L and the cocycle) is a moment of F."""
    return {(i, j): triple(n.values, grads[i], grads[j]) for i, j in plane_pairs(n.grid.p)}


def _degree(F, grid):
    """deg = integral of F_xy / 4pi for p = 2."""
    return float(integrate(F[0, 1] / (4.0 * np.pi), grid))


def degree(n):
    """Quadrature of (1/4pi) n . (d_x n x d_y n); near-integer for smooth
    fields.  Reported unrounded: the quadrature noise is diagnostic signal."""
    n.require_decaying("degree")
    if n.grid.p != 2:
        raise ValueError("degree is defined for p = 2 only")
    return _degree(_two_form(n, _gradients(n)), n.grid)


def momentum_N(n):
    """Charge of uniform rotations about k: integral of 1 + n.k."""
    return float(integrate(1.0 + n.values @ K_AXIS, n.grid))


def momentum_P_cross(n):
    """Translation momentum for p = 3 in the curl form 2pi * integral of
    x x Omega, with the vorticity Omega_a = F_bc / 4pi, (a, b, c) cyclic."""
    if n.grid.p != 3:
        raise ValueError("the cross form needs p = 3")
    n.require_decaying("momentum_P_cross")
    F = _two_form(n, _gradients(n))
    vort = np.stack([F[1, 2], -F[0, 2], F[0, 1]], axis=-1) / (4.0 * np.pi)
    return 2.0 * np.pi * integrate(cross3(n.grid.coords(), vort), n.grid)


def _density_P(F, grid):
    """P-density, shape dims + (p,), from the planes of F:
    P_i = n . (d_i n x sum_j x_j d_j n) / (p-1) = sum_j x_j F_ij / (p-1)."""
    if grid.p < 2:
        raise ValueError("translation momentum needs p >= 2")
    dens = np.zeros(grid.dims + (grid.p,))
    for (i, j), f in F.items():
        dens[..., i] += grid.coord_component(j) * f
        dens[..., j] -= grid.coord_component(i) * f
    return dens / (grid.p - 1)


def _moments(w, grid):
    """(integral of x wedge w, integral of w) for a density w, dims + (p,);
    the wedge moment is M - M^T with M = integral of x w^T, exactly skew."""
    spatial = list(range(grid.p))
    m = np.tensordot(grid.coords(), w, axes=(spatial, spatial)) * grid.cell_volume
    return m - m.T, integrate(w, grid)


def moments(n):
    """(deg, P, L) from one derivative pass; deg is None unless p = 2.
    L is -(p-1)/p times the wedge moment of the P-density.  The factor is
    load-bearing: the raw moment is exactly p/(p-1) times the charge that
    generates spatial rotations through the Lie-Poisson flow and that both
    lift routes produce (the Hamiltonian-flow test pins it numerically)."""
    n.require_decaying("moments")
    grid = n.grid
    F = _two_form(n, _gradients(n))
    rot, P = _moments(_density_P(F, grid), grid)
    deg = _degree(F, grid) if grid.p == 2 else None
    return deg, P, -(grid.p - 1) / grid.p * rot


def _P_adjoint(n, grads):
    """momentum_P_derivative from a derivative list (see there)."""
    grid = n.grid
    if grid.p < 2:
        raise ValueError("translation momentum needs p >= 2")
    s = grid.coord_component(0)[..., None] * grads[0]
    for j in range(1, grid.p):
        s += grid.coord_component(j)[..., None] * grads[j]
    s_x_n = cross3(s, n.values)
    out = np.empty((grid.p,) + n.values.shape)
    for k in range(grid.p):
        n_x_a = cross3(n.values, grads[k])
        total = cross3(grads[k], s) + partial_T(s_x_n, grid, k)
        for j in range(grid.p):
            total += partial_T(grid.coord_component(j)[..., None] * n_x_a, grid, j)
        out[k] = tangent_project(total, n.values) / (grid.p - 1)
    return out


def momentum_P_derivative(n):
    """Tangent functional derivatives of every component of
    momentum_P_general, shape (p,) + dims + (3,), normalised per unit cell
    volume like the finite-difference oracle of the tests.

    This is the exact adjoint of the quadrature.  With a_k = d_k n and
    s = sum_j x_j d_j n the integrand f_k = n . (a_k x s)/(p-1) has the
    partials df/dn = a_k x s, df/da_k = s x n and df/ds = n x a_k; the last
    two are pulled back to n through partial_T.  The cell volume of the
    quadrature cancels against the normalisation.
    """
    n.require_decaying("momentum_P_derivative")
    return _P_adjoint(n, _gradients(n))


def momentum_P_general(n):
    """Translation momentum as the integral of the density form; a p-vector."""
    return moments(n)[1]


def rotational_momentum(n):
    """Rotational momentum, a skew p x p matrix: the L of moments."""
    return moments(n)[2]


def lift_singular_mask(n):
    """Cells where the lift is singular (n within 1e-8 of +k); never refuses."""
    return n.values @ K_AXIS > SINGULAR_KDOT


def _lift_frame(n):
    """(k.n, k x n, singular mask), which every lift route starts from; raises
    SingularLiftError above MAX_SINGULAR_FRACTION singular cells."""
    singular = lift_singular_mask(n)
    fraction = singular.mean()
    if fraction > MAX_SINGULAR_FRACTION:
        raise SingularLiftError(f"{100 * fraction:.2f}% of cells are singular "
                                f"(limit {100 * MAX_SINGULAR_FRACTION:g}%)")
    return n.values @ K_AXIS, cross3(K_AXIS, n.values), singular


def lift_psi(n):
    """Rotation field with psi(x) k = -n(x).

    The rotation vector is -arccos(-k.n)/|k x n| * (k x n); its magnitude
    goes to zero smoothly at n = -k (psi = I there, exactly on the boundary
    layer), and the few cells within SINGULAR_KDOT of +k get the
    deterministic fallback of a half turn about the x axis.  Refuses on a
    fat singular set (see _lift_frame).
    """
    n.require_decaying("lift_psi")
    kdot, cross, singular = _lift_frame(n)
    s = np.linalg.norm(cross, axis=-1)
    # arctan2 keeps the rotation angle accurate where kdot rounds to -1 and
    # the tilt survives only in the transverse components
    ratio = np.divide(np.arctan2(s, -kdot), s, out=np.ones_like(s), where=s > 1e-14)
    rotvec = -ratio[..., None] * cross
    rotvec[singular] = (np.pi, 0.0, 0.0)
    return RotationField(n.grid, so3_exp(rotvec), check=False)


def _JH_density(psi, mu):
    """w_i = mu . rgrad_i psi, shape dims + (p,)."""
    return np.einsum("...i,...ki->...k", mu.values, right_gradient_stack(psi))


def momentum_JH(psi, mu):
    """Euclidean momentum map on the unreduced space:
    ( integral of x wedge w, -integral of w ) with w_i = mu . rgrad_i psi.

    mu is a SpinField (the momentum slot of the point (psi, mu)); psi a
    RotationField on the same grid.
    """
    if psi.grid is not mu.grid and psi.grid != mu.grid:
        raise ValueError("psi and mu must share a grid")
    rot, total = _moments(_JH_density(psi, mu), psi.grid)
    return rot, -total


def _lift_integrand(n):
    """w-bar_i = (k x n).d_i n / (1 - k.n) with singular cells zeroed.

    Returns (wbar, singular_mask).  The singular cells are dropped from the
    quadrature: the singularities of the lift are tame and do not contribute.
    Refuses on a fat singular set (see _lift_frame).
    """
    kdot, cross, singular = _lift_frame(n)
    num = np.stack([np.einsum("...i,...i->...", cross, g) for g in _gradients(n)],
                   axis=-1)
    denom = np.where(singular, 1.0, 1.0 - kdot)
    wbar = num / denom[..., None]
    wbar[singular] = 0.0
    return wbar, singular


def reduced_momentum_lift(n):
    """Euclidean momentum from the closed-form lift identity:
    ( integral of x wedge wbar, -integral of wbar ); refuses on a fat
    singular set (see _lift_integrand)."""
    n.require_decaying("reduced_momentum_lift")
    wbar, _ = _lift_integrand(n)
    rot, total = _moments(wbar, n.grid)
    return rot, -total


def gauge_invariance_residual(n, alpha):
    """Norm of J^H(A . (psi, mu)) - J^H(psi, mu) for the gauge rotation
    A = exp(alpha hat(k)), at the lifted point psi = lift_psi(n), mu = n.

    The right action sends psi to psi A^-1 and leaves mu alone.  For p >= 2
    and boundary-constant alpha this vanishes in the continuum; for p = 1
    with winding alpha it equals 2*pi times the winding.
    """
    psi = lift_psi(n)
    gauge = make_gauge_field(n.grid, alpha)
    psi_moved = psi.compose(gauge.inverse(), check=False)
    rot0, trans0 = momentum_JH(psi, n)
    rot1, trans1 = momentum_JH(psi_moved, n)
    return float(
        np.sqrt(np.sum((rot1 - rot0) ** 2) + np.sum((trans1 - trans0) ** 2))
    )


def _lift_identity_residual(n):
    """Cellwise |n . rgrad_i psi_n - wbar_i| over axes i, with wbar the
    closed form; zero on singular cells.  Shape dims."""
    wbar, singular = _lift_integrand(n)
    resid = np.abs(_JH_density(lift_psi(n), n) - wbar).max(axis=-1)
    resid[singular] = 0.0
    return resid


def check_lift_identity(n):
    """Max residual of the lift derivative identity over non-singular cells;
    refuses on a fat singular set (see _lift_integrand)."""
    n.require_decaying("check_lift_identity")
    return float(_lift_identity_residual(n).max())

"""Conserved quantities and momentum maps for unit-vector fields.

Everything here is a quadrature of first derivatives of the field: the
topological degree, the rotation charge N, the translation momenta P (in the
curl form and in the general-dimension form), the rotational momentum, and
the three routes to the Euclidean momentum of the reduced system (direct
density, rotation-lift + group gradient, closed-form lift identity), each the
first moments (integral of x wedge w, integral of w) of one density w.

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
from .fields import K_AXIS, RotationField
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


def _degree_integrand(n, grads):
    """(1/4pi) n . (d_x n x d_y n) from the derivative list of a p = 2 field."""
    return triple(n.values, grads[0], grads[1]) / (4.0 * np.pi)


def degree_density(n):
    """Integrand of the degree: (1/4pi) n . (d_x n x d_y n)."""
    if n.grid.p != 2:
        raise ValueError("degree is defined for p = 2 only")
    return _degree_integrand(n, _gradients(n))


def degree(n):
    """Quadrature of the degree integrand; near-integer for smooth fields.
    Reported unrounded: the quadrature noise is diagnostic signal."""
    n.require_decaying("degree")
    return float(integrate(degree_density(n), n.grid))


def momentum_N(n):
    """Charge of uniform rotations about k: integral of 1 + n.k."""
    return float(integrate(1.0 + n.values @ K_AXIS, n.grid))


def vorticity(n):
    """Vorticity density for p = 3: Omega_a = (1/4pi) n.(d_b n x d_c n) with
    (a, b, c) cyclic."""
    if n.grid.p != 3:
        raise ValueError("vorticity is defined for p = 3 only")
    g = _gradients(n)
    out = np.empty(n.grid.dims + (3,))
    for a, (b, c) in enumerate(((1, 2), (2, 0), (0, 1))):
        out[..., a] = triple(n.values, g[b], g[c]) / (4.0 * np.pi)
    return out


def momentum_P_cross(n):
    """Translation momentum for p = 3 in the curl form 2pi * integral of x x Omega."""
    if n.grid.p != 3:
        raise ValueError("the cross form needs p = 3")
    n.require_decaying("momentum_P_cross")
    return 2.0 * np.pi * integrate(cross3(n.grid.coords(), vorticity(n)), n.grid)


def _moment_terms(n):
    """The one derivative pass behind deg, P and L: the axis derivatives
    a_i = d_i n and the moment s = sum_j x_j d_j n."""
    grid = n.grid
    if grid.p < 2:
        raise ValueError("translation momentum needs p >= 2")
    grads = _gradients(n)
    s = grid.coord_component(0)[..., None] * grads[0]
    for j in range(1, grid.p):
        s += grid.coord_component(j)[..., None] * grads[j]
    return grads, s


def _density_P(n, grads, s):
    """P-density from the derivative list and the moment s of _moment_terms."""
    grid = n.grid
    dens = np.empty(grid.dims + (grid.p,))
    for k in range(grid.p):
        dens[..., k] = triple(n.values, grads[k], s)
    return dens / (grid.p - 1)


def momentum_density_P(n):
    """Translation momentum density, shape dims + (p,):
    P_i = 1/(p-1) n . (d_i n x sum_j x_j d_j n)."""
    return _density_P(n, *_moment_terms(n))


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
    grads, s = _moment_terms(n)
    rot, P = _moments(_density_P(n, grads, s), grid)
    deg = float(integrate(_degree_integrand(n, grads), grid)) if grid.p == 2 else None
    return deg, P, -(grid.p - 1) / grid.p * rot


def momentum_P_derivative(n):
    """Tangent functional derivatives of every component of
    momentum_P_general, shape (p,) + dims + (3,), normalised like
    functional_derivative (per unit cell volume).

    This is the exact adjoint of the quadrature.  With a_k = d_k n and
    s = sum_j x_j d_j n the integrand f_k = n . (a_k x s)/(p-1) has the
    partials df/dn = a_k x s, df/da_k = s x n and df/ds = n x a_k; the last
    two are pulled back to n through partial_T.  The cell volume of the
    quadrature cancels against the normalisation.
    """
    n.require_decaying("momentum_P_derivative")
    grid = n.grid
    grads, s = _moment_terms(n)
    s_x_n = cross3(s, n.values)
    out = np.empty((grid.p,) + n.values.shape)
    for k in range(grid.p):
        n_x_a = cross3(n.values, grads[k])
        total = cross3(grads[k], s) + partial_T(s_x_n, grid, k)
        for j in range(grid.p):
            total += partial_T(grid.coord_component(j)[..., None] * n_x_a, grid, j)
        out[k] = tangent_project(total, n.values) / (grid.p - 1)
    return out


def momentum_P_general(n):
    """Translation momentum as the integral of the density form; a p-vector."""
    return moments(n)[1]


def rotational_momentum(n):
    """Rotational momentum, a skew p x p matrix: the L of moments."""
    return moments(n)[2]


def lift_psi(n):
    """Rotation field with psi(x) k = -n(x).

    The rotation vector is -arccos(-k.n)/|k x n| * (k x n); its magnitude
    goes to zero smoothly at n = -k (psi = I there), and cells within
    SINGULAR_KDOT of +k get the deterministic fallback of a half turn about
    the x axis.  The singular count is available via lift_singular_mask.
    """
    n.require_decaying("lift_psi")
    kdot = n.values @ K_AXIS
    cross = cross3(K_AXIS, n.values)
    s = np.linalg.norm(cross, axis=-1)
    # arctan2 keeps the rotation angle accurate where kdot rounds to -1 and
    # the tilt survives only in the transverse components
    angle = np.arctan2(s, -kdot)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(s > 1e-14, angle / np.where(s > 1e-14, s, 1.0), 1.0)
    rotvec = -ratio[..., None] * cross
    singular = kdot > SINGULAR_KDOT
    if singular.any():
        rotvec[singular] = np.array([np.pi, 0.0, 0.0])
    values = so3_exp(rotvec)
    return RotationField(n.grid, values, check=False)


def lift_singular_mask(n):
    """Cells where the lift formula is singular (n within 1e-8 of +k)."""
    return n.values @ K_AXIS > SINGULAR_KDOT


def momentum_JH(psi, mu):
    """Euclidean momentum map on the unreduced space:
    ( integral of x wedge w, -integral of w ) with w_i = mu . rgrad_i psi.

    mu is a SpinField (the momentum slot of the point (psi, mu)); psi a
    RotationField on the same grid.
    """
    if psi.grid is not mu.grid and psi.grid != mu.grid:
        raise ValueError("psi and mu must share a grid")
    stack = right_gradient_stack(psi)  # dims + (p, 3)
    w = np.einsum("...i,...ki->...k", mu.values, stack)
    rot, total = _moments(w, psi.grid)
    return rot, -total


def _lift_integrand(n):
    """w-bar_i = (k x n).d_i n / (1 - k.n) with singular cells zeroed.

    Returns (wbar, singular_mask).  The singular cells are dropped from the
    quadrature: the singularities of the lift are tame and do not contribute.
    Above MAX_SINGULAR_FRACTION singular cells it raises SingularLiftError.
    """
    kdot = n.values @ K_AXIS
    singular = kdot > SINGULAR_KDOT
    if singular.mean() > MAX_SINGULAR_FRACTION:
        raise SingularLiftError(f"{100 * singular.mean():.2f}% of cells are singular "
                                f"(limit {100 * MAX_SINGULAR_FRACTION:g}%)")
    cross = cross3(K_AXIS, n.values)
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
    from .generators import make_gauge_field

    psi = lift_psi(n)
    gauge = make_gauge_field(n.grid, alpha)
    psi_moved = psi.compose(gauge.inverse(), check=False)
    rot0, trans0 = momentum_JH(psi, n)
    rot1, trans1 = momentum_JH(psi_moved, n)
    return float(
        np.sqrt(np.sum((rot1 - rot0) ** 2) + np.sum((trans1 - trans0) ** 2))
    )


def lift_identity_residual_field(n):
    """Cellwise |n . rgrad_i psi_n - wbar_i| over axes i, with wbar the
    closed form; zero on singular cells.  Shape dims."""
    wbar, singular = _lift_integrand(n)
    psi = lift_psi(n)
    stack = right_gradient_stack(psi)
    lhs = np.einsum("...i,...ki->...k", n.values, stack)
    resid = np.abs(lhs - wbar).max(axis=-1)
    resid[singular] = 0.0
    return resid


def check_lift_identity(n):
    """Max residual of the lift derivative identity over non-singular cells;
    refuses on a fat singular set (see _lift_integrand)."""
    n.require_decaying("check_lift_identity")
    return float(lift_identity_residual_field(n).max())

"""Conserved quantities and momentum maps for unit-vector fields.

Everything here is a quadrature of first derivatives of the field, taken in
one derivative pass (_gradients) per field.  The winding diagnostics are
moments of one object, the topological 2-form F_ij = n . (d_i n x d_j n)
(_two_form, which yields one plane at a time), gathered by _moment_tensor
into the homogeneous second-moment tensor G[i, j, a, b] = integral of
xt_a xt_b F_ij, with xt = (x, 1).  The degree, P, L and the direct cocycle
(cocycle.cocycle_direct) are contractions of G.  moments builds G on a
checked (frozen) SpinField once, keeps it there (a few small values, never
a grid-sized array) and contracts it on every call, so degree,
momentum_P_general, rotational_momentum, dynamics.make_report and
cocycle_direct make no derivative pass on a checked field after the first;
a check=False field (a reused buffer) gets a fresh pass on every call.
momentum_P_cross keeps its own pass: it is the curl-form check on P.
Besides these: the rotation charge N, and the three routes to the
Euclidean momentum of the reduced system: (L, P) of moments, and the
rotation lift + group gradient and the closed-form lift identity, each of
those two the first moments (integral of x wedge w, integral of w) of one
density w, stored as p contiguous planes (p,) + dims like the component
planes of a spin field (fields._payload); every lift route starts from
_lift_frame, which refuses a fat singular set n -> +k.  The routes differ
in their density only: every moment of a density plane, of F or of w, is
taken by one rule, _plane_moments.  No sum here goes through BLAS (every
one is np.sum or np.einsum), so no value depends on the BLAS thread count.

Orientation conventions are pinned in one place:

* right-handed cross product; rotations are unit quaternions (calculus);
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
from .fields import K_AXIS, RotationField, _c_view, _dot3, _frozen, _qmul, _Workspace, plane_pairs
from .generators import make_gauge_field
from .calculus import (
    cross3,
    integrate,
    partial,
    partial_T,
    right_gradient_axis,
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


def _gradients(n, out=None):
    """The one derivative pass over a spin field: the list of per-axis
    derivatives d_i n, each of shape dims + (3,), written into the p field
    arrays of out when given."""
    out = [None] * n.grid.p if out is None else out
    return [partial(n.values, n.grid, i, out=g) for i, g in enumerate(out)]


def _two_form(n, grads, out=None, scratch=None):
    """The topological 2-form F_ij = n . (d_i n x d_j n) from the derivative
    list, yielded one plane at a time as ((i, j), plane) in plane_pairs
    order.  triple writes each plane into out, overwriting the one before
    (a fresh plane for each when out is None), its products taken through
    the two planes of scratch (allocated when None).  Every winding
    diagnostic (deg, P in either form, L and the cocycle) is a moment of F,
    and this is the one place F is built."""
    for i, j in plane_pairs(n.grid.p):
        yield (i, j), triple(n.values, grads[i], grads[j], out=out, scratch=scratch)


def _plane_moments(f, grid):
    """The homogeneous second moments S[a, b] = sum of xt_a xt_b f of one
    density plane f (shape dims), xt = (x, 1), unscaled by the cell volume:
    shape (p + 1, p + 1), its last row (sum of x f, sum of f).  The one
    place a moment of a density is taken, and the one reader of
    Grid._coord_powers.

    A grid is a lattice, so x_a varies along axis a only: f is contracted
    axis by axis with the rows (1, x_a, x_a^2) of _coord_powers, into
    T[e_0, .., e_p-1] = sum of prod_a x_a^e_a f, whose entries of total
    degree <= 2 are S's: xt_a xt_b sits at the flat offset off[a] + off[b]
    of T, with off[a] = 3^(p-1-a) and off[p] = 0 (xt_p = 1).  The first
    contraction is one pass over the plane into 3/N_0 of a plane; each is
    an np.einsum, never BLAS."""
    off = [3 ** a for a in range(grid.p - 1, -1, -1)] + [0]
    for r in grid._coord_powers:
        f = np.einsum("k...,ck->...c", f, r)
    return f.ravel()[np.add.outer(off, off)]


def _moment_tensor(n, grads, out=None, scratch=None):
    """G[i, j, a, b] = integral of xt_a xt_b F_ij with xt = (x, 1), shape
    (p, p, p + 1, p + 1), from the derivative list: each plane of F
    (_two_form, which takes out and scratch) goes through _plane_moments
    before the next one is written."""
    grid, p = n.grid, n.grid.p
    G = np.zeros((p, p, p + 1, p + 1))
    for (i, j), f in _two_form(n, grads, out, scratch):
        G[i, j] = _plane_moments(f, grid)
    return (G - G.swapaxes(0, 1)) * grid.cell_volume  # F_ji = -F_ij


def degree(n):
    """Quadrature of (1/4pi) n . (d_x n x d_y n); near-integer for smooth
    fields.  Reported unrounded: the quadrature noise is diagnostic signal."""
    n.require_decaying("degree")
    if n.grid.p != 2:
        raise ValueError("degree is defined for p = 2 only")
    return moments(n)[0]


def momentum_N(n, out=None):
    """Charge of uniform rotations about k: integral of 1 + n.k, the density
    taken on the n_z plane (K_AXIS is e_z) into the C-contiguous plane out
    (allocated when None)."""
    return float(integrate(np.add(n.values[..., 2], 1.0, out=out), n.grid))


def momentum_P_cross(n):
    """Translation momentum for p = 3 in the curl form 2pi * integral of
    x x Omega, with the vorticity Omega_a = F_bc / 4pi, (a, b, c) cyclic."""
    if n.grid.p != 3:
        raise ValueError("the cross form needs p = 3")
    n.require_decaying("momentum_P_cross")
    F = dict(_two_form(n, _gradients(n)))
    vort = np.stack([F[1, 2], -F[0, 2], F[0, 1]], axis=-1) / (4.0 * np.pi)
    return 2.0 * np.pi * integrate(cross3(n.grid.coords(), vort), n.grid)


def _first_moments(w, grid):
    """(integral of x wedge w, integral of w) for a density w of p
    contiguous planes, (p,) + dims, read off the last row of each plane's
    _plane_moments: the wedge moment is M - M^T with M = integral of x w^T,
    exactly skew."""
    first = np.array([_plane_moments(plane, grid)[-1] for plane in w]) * grid.cell_volume
    m = first[:, :-1].T
    return m - m.T, first[:, -1]


def _tensor(n, work=None):
    """n's _moment_tensor, read-only: kept on a checked field the first time
    (see fields.SpinField) and read from there on, without a pass.

    Every grid-sized temporary of a pass comes from work, a
    fields._Workspace for n's grid (built for this call when None): the p
    derivatives and one spare field array are borrowed from its pool and
    handed back.  The spare's three C-order planes hold the plane of F
    that _two_form is writing and the two products of its triple products,
    so a report fits in the pool that a run's stepper leaves (four field
    arrays) and takes none of the workspace's planes.  Each value keeps the
    operation order of the allocating composition, so G is bit-identical
    to it."""
    if n._G is not None and len(n._G):
        return n._G
    grid, p = n.grid, n.grid.p
    work = _Workspace(n) if work is None else work
    grads = _gradients(n, [work.take() for _ in range(p)])
    spare = work.take()
    f, *scratch = _c_view(spare, (3,) + grid.dims)
    G = _frozen(_moment_tensor(n, grads, f, scratch))
    work.pool += grads + [spare]
    if n._G is not None:
        n._G = G
    return G


def moments(n, work=None):
    """(deg, P, L), contractions of the moment tensor G (_tensor, which
    takes work); deg is None unless p = 2.

        deg = G[0, 1, p, p] / 4pi,  P_i = sum_j G[i, j, j, p] / (p-1),
        L = (m^T - m) / p  with  m_ai = sum_j G[i, j, a, j],

    so P is the integral of the P-density sum_j x_j F_ij / (p-1), and L is
    -(p-1)/p times the wedge moment of that density.  The factor is
    load-bearing: the raw moment is exactly p/(p-1) times the charge that
    generates spatial rotations through the Lie-Poisson flow and that both
    lift routes produce (the Hamiltonian-flow test pins it numerically).
    L is written m^T - m, not -(m - m^T), so its diagonal is +0, not -0.
    Each call contracts G afresh, so P and L are the caller's own arrays.
    """
    n.require_decaying("moments")
    p = n.grid.p
    if p < 2:
        raise ValueError("translation momentum needs p >= 2")
    G = _tensor(n, work)
    deg = float(G[0, 1, 2, 2] / (4.0 * np.pi)) if p == 2 else None
    m = np.einsum("ijaj->ai", G[:, :, :p, :p])
    return deg, np.einsum("ijj->i", G[:, :, :p, p]) / (p - 1), (m.T - m) / p


def _directional(velocity, derivs):
    """sum_i v_i d_i from the per-axis derivatives d_i (any iterable), with
    velocity the components v_i, each a scalar field that broadcasts to dims
    (the planes of a vector field, or Grid._rows for x itself)."""
    return sum(v[..., None] * d for v, d in zip(velocity, derivs))


def _P_adjoint(n, grads):
    """momentum_P_derivative from a derivative list (see there)."""
    grid = n.grid
    if grid.p < 2:
        raise ValueError("translation momentum needs p >= 2")
    x = grid._rows()
    s = _directional(x, grads)
    s_x_n = cross3(s, n.values)
    out = np.empty((grid.p,) + n.values.shape)
    for k in range(grid.p):
        n_x_a = cross3(n.values, grads[k])
        total = cross3(grads[k], s) + partial_T(s_x_n, grid, k)
        for j, x_j in enumerate(x):
            total += partial_T(x_j[..., None] * n_x_a, grid, j)
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
    """Translation momentum, the integral of the P-density: the P of
    moments, a p-vector."""
    return moments(n)[1]


def rotational_momentum(n):
    """Rotational momentum, a skew p x p matrix: the L of moments."""
    return moments(n)[2]


def lift_singular_mask(n):
    """Cells where the lift is singular (n within 1e-8 of +k, read on the
    n_z plane: K_AXIS is e_z); never refuses."""
    return n.values[..., 2] > SINGULAR_KDOT


def _lift_frame(n):
    """The singular mask, which every lift route starts from; raises
    SingularLiftError above MAX_SINGULAR_FRACTION singular cells."""
    singular = lift_singular_mask(n)
    fraction = singular.mean()
    if fraction > MAX_SINGULAR_FRACTION:
        raise SingularLiftError(f"{100 * fraction:.2f}% of cells are singular "
                                f"(limit {100 * MAX_SINGULAR_FRACTION:g}%)")
    return singular


def lift_psi(n):
    """Rotation field with psi(x) k = -n(x): the shortest turn from k to -n,
    about k x (-n), whose unit quaternion is algebraic in n,

        q = (1 - k.n, -(k x n)) / |(1 - k.n, k x n)|
          = (1 - n_z, n_y, -n_x, 0) / sqrt((1 - n_z)^2 + n_x^2 + n_y^2).

    For a unit n this is (sqrt((1 - n_z)/2), n_y/s, -n_x/s, 0) with
    s = sqrt(2 (1 - n_z)), and it is unit to rounding for any n, so |n| - 1
    within UNIT_TOL cannot push a cell near +k past so3_log's unit check.
    q is exactly (1, 0, 0, 0) at n = -k (the boundary layer), and the few
    cells within SINGULAR_KDOT of +k get the deterministic fallback of a
    half turn about the x axis, (0, 1, 0, 0).  Refuses on a fat singular
    set (see _lift_frame).
    """
    n.require_decaying("lift_psi")
    singular = _lift_frame(n)
    q = np.empty((4,) + n.grid.dims)
    np.subtract(1.0, n.values[..., 2], out=q[0])
    q[1], q[2] = n.values[..., 1], -n.values[..., 0]
    turn = np.moveaxis(q[:3], 0, -1)
    norm = np.sqrt(_dot3(turn, turn, out=q[3]), out=q[3])
    norm[singular] = 1.0  # zero at n = +k; those cells are overwritten below
    np.divide(q[:3], norm, out=q[:3])
    q[3] = 0.0
    q[:, singular] = np.array([0.0, 1.0, 0.0, 0.0])[:, None]
    return RotationField(n.grid, np.moveaxis(q, 0, -1), check=False)


def _JH_density(psi, mu):
    """w_k = mu . rgrad_k psi, as p contiguous planes (p,) + dims, each
    axis's right gradient dotted into its plane as soon as it is made."""
    w = np.empty((psi.grid.p,) + psi.grid.dims)
    for k, plane in enumerate(w):
        _dot3(mu.values, right_gradient_axis(psi, k), out=plane)
    return w


def momentum_JH(psi, mu):
    """Euclidean momentum map on the unreduced space:
    ( integral of x wedge w, -integral of w ) with w_i = mu . rgrad_i psi.

    mu is a SpinField (the momentum slot of the point (psi, mu)); psi a
    RotationField on the same grid.
    """
    if psi.grid is not mu.grid and psi.grid != mu.grid:
        raise ValueError("psi and mu must share a grid")
    rot, total = _first_moments(_JH_density(psi, mu), psi.grid)
    return rot, -total


def _lift_integrand(n):
    """w-bar_i = (k x n).d_i n / (1 - k.n) with singular cells zeroed, as p
    contiguous planes (p,) + dims.

    Returns (wbar, singular_mask).  The singular cells are dropped from the
    quadrature: the singularities of the lift are tame and do not contribute.
    Refuses on a fat singular set (see _lift_frame).
    """
    singular = _lift_frame(n)
    cross = cross3(K_AXIS, n.values)
    denom = np.where(singular, 1.0, 1.0 - n.values[..., 2])
    wbar = np.empty((n.grid.p,) + n.grid.dims)
    grad = None  # one derivative pass, through one buffer
    for k, plane in enumerate(wbar):
        grad = partial(n.values, n.grid, k, out=grad)
        np.divide(_dot3(cross, grad, out=plane), denom, out=plane)
    wbar[:, singular] = 0.0
    return wbar, singular


def reduced_momentum_lift(n):
    """Euclidean momentum from the closed-form lift identity:
    ( integral of x wedge wbar, -integral of wbar ); refuses on a fat
    singular set (see _lift_integrand)."""
    n.require_decaying("reduced_momentum_lift")
    wbar, _ = _lift_integrand(n)
    rot, total = _first_moments(wbar, n.grid)
    return rot, -total


def gauge_invariance_residual(n, alpha):
    """Norm of J^H(A . (psi, mu)) - J^H(psi, mu) for the gauge rotation
    A about k by alpha (make_gauge_field), at the lifted point
    psi = lift_psi(n), mu = n.

    The right action sends psi to psi A^-1 = psi A* and leaves mu alone:
    one a b* product (fields._qmul with conj, the kernel of the right
    gradient's one-step motions), with no conjugate copy of A.  For p >= 2
    and boundary-constant alpha this vanishes in the continuum; for p = 1
    with winding alpha it equals 2*pi times the winding.
    """
    psi = lift_psi(n)
    gauge = make_gauge_field(n.grid, alpha)
    psi_moved = RotationField(n.grid, _qmul(psi.values, gauge.values, conj=True), check=False)
    rot0, trans0 = momentum_JH(psi, n)
    rot1, trans1 = momentum_JH(psi_moved, n)
    return float(
        np.sqrt(np.sum((rot1 - rot0) ** 2) + np.sum((trans1 - trans0) ** 2))
    )


def _lift_identity_residual(n):
    """Cellwise |n . rgrad_i psi_n - wbar_i| over axes i, with wbar the
    closed form; zero on singular cells.  Shape dims."""
    wbar, singular = _lift_integrand(n)
    resid = np.abs(_JH_density(lift_psi(n), n) - wbar).max(axis=0)
    resid[singular] = 0.0
    return resid


def check_lift_identity(n):
    """Max residual of the lift derivative identity over non-singular cells;
    refuses on a fat singular set (see _lift_integrand)."""
    n.require_decaying("check_lift_identity")
    return float(_lift_identity_residual(n).max())

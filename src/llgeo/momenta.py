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
Every such diagnostic is a linear functional Phi = sum K . G, with a
coefficient tensor K shaped like G (P's is _K_P, stated once), and its
exact gradient is one rule, _moment_adjoint, the transpose of
_moment_tensor: momentum_P_derivative and cocycle.check_px_py_bracket read
it with K_P.  momentum_P_cross keeps its own pass: it is the curl-form
check on P.  No coordinate here is a grid-sized array: every weight is a
product of the per-axis rows of Grid._rows().
Besides these: the rotation charge N, and the three routes to the
Euclidean momentum of the reduced system: (L, P) of moments, and the
rotation lift + group gradient and the closed-form lift identity, each of
those two the first moments (integral of x wedge w, integral of w) of one
density w; every lift route starts from _lift_frame, which refuses a fat
singular set n -> +k.  The rotation route meets the group in one product,
fields._motion = a b*: its right gradients' one-step motions and the gauge
move psi A* of gauge_invariance_residual.  The closed form reads k x n off
n's planes (_lift_integrand), with no field array for it.  The routes
differ in their density only: every moment of a density plane, of F or of
w, is taken by one rule, _plane_moments.  Every density is a stream of
planes: _JH_density and _lift_integrand each yield one plane (shape dims)
at a time into one reused plane, as _two_form does into its out, and their
readers (_moment_tensor, _first_moments, check_lift_identity's running
max) take each plane before the next is written, so no lift density is
ever held whole (momentum_P_cross alone keeps F's planes, fresh ones, for
its curl).
No sum here goes through BLAS (every one is np.sum or np.einsum), so no
value depends on the BLAS thread count.

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
from .fields import RotationField, SpinField, _c_view, _dot3, _frozen, _motion, _Workspace, plane_pairs
from .generators import make_gauge_field
from .calculus import (
    cross3,
    integrate,
    partial,
    partial_T,
    right_gradient_axis,
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
    x x Omega, with the vorticity Omega_a = F_bc / 4pi, (a, b, c) cyclic,
    x taken from the rows of Grid._rows() and x x Omega summed into
    component planes, as cross3 lays them out."""
    if n.grid.p != 3:
        raise ValueError("the cross form needs p = 3")
    n.require_decaying("momentum_P_cross")
    F, x = dict(_two_form(n, _gradients(n))), n.grid._rows()
    vort = np.stack([F[1, 2], -F[0, 2], F[0, 1]]) / (4.0 * np.pi)
    cross = np.stack([x[b] * vort[c] - x[c] * vort[b] for b, c in ((1, 2), (2, 0), (0, 1))])
    return 2.0 * np.pi * integrate(np.moveaxis(cross, 0, -1), n.grid)


def _first_moments(planes, grid):
    """(integral of x wedge w, integral of w) for a density w given as a
    stream of its p planes (shape dims) in axis order, each read off the
    last row of its _plane_moments as it comes: the wedge moment is
    M - M^T with M = integral of x w^T, exactly skew."""
    first = np.array([_plane_moments(plane, grid)[-1] for plane in planes]) * grid.cell_volume
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

        deg = G[0, 1, p, p] / 4pi,  P_k = sum K_P[k] . G (see _K_P),
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
    p, K_P = n.grid.p, _K_P(n.grid.p)
    G = _tensor(n, work)
    deg = float(G[0, 1, 2, 2] / (4.0 * np.pi)) if p == 2 else None
    m = np.einsum("ijaj->ai", G[:, :, :p, :p])
    return deg, np.einsum("kijab,ijab->k", K_P, G), (m.T - m) / p


def _K_P(p):
    """K_P, the coefficient tensors of the translation momentum in the
    moment tensor, P_k = sum K_P[k] . G, shape (p,) + G's shape:

        K_P[k][i, j, a, b] = delta_ik delta_aj delta_bp / (p-1),

    so P_k = sum_j G[k, j, j, p] / (p-1), the integral of the P-density
    sum_j x_j F_kj / (p-1).  moments contracts G with it, and
    momentum_P_derivative and cocycle.check_px_py_bracket hand it to
    _moment_adjoint.  Refuses p < 2."""
    if p < 2:
        raise ValueError("translation momentum needs p >= 2")
    e = np.eye(p + 1)
    return np.einsum("ki,ja,b->kijab", e[:p, :p], e[:p], e[p]) / (p - 1)


def _moment_adjoint(n, grads, K):
    """The tangent gradient of Phi = sum K . G per unit cell volume, for a
    coefficient tensor K shaped like G, from the derivative list: the exact
    transpose of _moment_tensor, a field array laid out like n's.

    Phi is V times the sum over cells of 1/2 sum_ij Ct_ij F_ij, with the
    weights Ct_ij = sum_ab (K - K^T)[i, j, a, b] xt_a xt_b (K^T swaps i and
    j; xt = (x, 1), x the rows of Grid._rows(); zero entries are skipped).
    With a_i = d_i n and v_i = sum_j Ct_ij a_j its integrand has the
    partials 1/2 sum_i a_i x v_i in n and v_i x n in a_i; the second is
    pulled back to n through partial_T, one call per axis, and the sum is
    projected onto the tangent planes.  The cell volume V cancels against
    the normalisation.  Besides its result and partial_T's it holds two
    field arrays: v_i, and c for each product (v's planes take the
    projection's dot products)."""
    xt = [x[..., None] for x in n.grid._rows()] + [1.0]
    Kt = K - K.swapaxes(0, 1)
    v, c, out = np.empty_like(n.values), np.empty_like(n.values), np.zeros_like(n.values)
    for i, a_i in enumerate(grads):
        v[...] = 0.0
        for j, a, b in zip(*np.nonzero(Kt[i])):
            v += np.multiply(Kt[i, j, a, b] * xt[a] * xt[b], grads[j], out=c)
        out += np.multiply(0.5, cross3(a_i, v, out=c), out=c)
        out += partial_T(cross3(v, n.values, out=c), n.grid, i)
    out -= np.multiply(_dot3(out, n.values, v[..., 0], v[..., 1])[..., None], n.values, out=c)
    return out


def momentum_P_derivative(n):
    """Tangent functional derivatives of every component of
    momentum_P_general, shape (p,) + dims + (3,), normalised per unit cell
    volume like the finite-difference oracle of the tests: the exact
    adjoint of the quadrature, _moment_adjoint of each K_P[k] (_K_P), from
    one derivative pass."""
    n.require_decaying("momentum_P_derivative")
    K_P, grads = _K_P(n.grid.p), _gradients(n)
    return np.stack([_moment_adjoint(n, grads, K) for K in K_P])


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
    """w_k = mu . rgrad_k psi, yielded one plane (shape dims) at a time in
    axis order into one reused plane, each axis's right gradient dotted
    into it as soon as it is made and dropped before the yield."""
    plane = np.empty(psi.grid.dims)
    for k in range(psi.grid.p):
        yield _dot3(mu.values, right_gradient_axis(psi, k), out=plane)


def momentum_JH(psi, mu):
    """Euclidean momentum map on the unreduced space:
    ( integral of x wedge w, -integral of w ) with w_i = mu . rgrad_i psi.

    mu is a SpinField (the momentum slot of the point (psi, mu)), and
    anything else, such as a RotationField, is refused; psi a RotationField
    on the same grid.
    """
    if not isinstance(mu, SpinField):
        raise TypeError("mu must be a SpinField")
    if psi.grid is not mu.grid and psi.grid != mu.grid:
        raise ValueError("psi and mu must share a grid")
    rot, total = _first_moments(_JH_density(psi, mu), psi.grid)
    return rot, -total


def _lift_integrand(n, singular):
    """w-bar_i = (k x n).d_i n / (1 - k.n), zeroed on the singular cells of
    _lift_frame, yielded one plane (shape dims) at a time in axis order
    into one reused plane.  k x n is (-n_y, n_x, 0), so each plane is
    (n_x d_i n_y - n_y d_i n_x) / (1 - n_z): only n_x and n_y are
    differentiated, taken from n's planes through one scratch plane, and
    no field array is held across a yield.

    The singular cells are dropped from the quadrature: the singularities
    of the lift are tame and do not contribute.
    """
    n_x, n_y = n.values[..., 0], n.values[..., 1]
    denom = np.where(singular, 1.0, 1.0 - n.values[..., 2])
    plane, t = np.empty(n.grid.dims), np.empty(n.grid.dims)
    for k in range(n.grid.p):
        grad = partial(n.values[..., :2], n.grid, k)
        np.multiply(n_x, grad[..., 1], out=plane)
        np.subtract(plane, np.multiply(n_y, grad[..., 0], out=t), out=plane)
        del grad
        np.divide(plane, denom, out=plane)
        plane[singular] = 0.0
        yield plane


def reduced_momentum_lift(n):
    """Euclidean momentum from the closed-form lift identity:
    ( integral of x wedge wbar, -integral of wbar ); refuses on a fat
    singular set (see _lift_frame)."""
    n.require_decaying("reduced_momentum_lift")
    rot, total = _first_moments(_lift_integrand(n, _lift_frame(n)), n.grid)
    return rot, -total


def gauge_invariance_residual(n, alpha):
    """Norm of J^H(A . (psi, mu)) - J^H(psi, mu) for the gauge rotation
    A about k by alpha (make_gauge_field), at the lifted point
    psi = lift_psi(n), mu = n.

    The right action sends psi to psi A^-1 = psi A* and leaves mu alone:
    one fields._motion(psi, A), the product a b* that the right gradient
    takes its one-step motions with, and no conjugate copy of A.  For p >= 2
    and boundary-constant alpha this vanishes in the continuum; for p = 1
    with winding alpha it equals 2*pi times the winding.
    """
    psi = lift_psi(n)
    gauge = make_gauge_field(n.grid, alpha)
    psi_moved = RotationField(n.grid, _motion(psi.values, gauge.values), check=False)
    rot0, trans0 = momentum_JH(psi, n)
    rot1, trans1 = momentum_JH(psi_moved, n)
    return float(
        np.sqrt(np.sum((rot1 - rot0) ** 2) + np.sum((trans1 - trans0) ** 2))
    )


def check_lift_identity(n):
    """Max over axes i and non-singular cells of |n . rgrad_i psi_n - wbar_i|,
    wbar the closed form: a running max over the zipped plane streams of
    the two routes, each difference taken in the J^H plane (the stream
    overwrites it next).  np.maximum keeps a NaN that Python's max would
    drop.  Refuses on a fat singular set (see _lift_frame)."""
    n.require_decaying("check_lift_identity")
    singular, worst = _lift_frame(n), 0.0
    for w, wbar in zip(_JH_density(lift_psi(n), n), _lift_integrand(n, singular)):
        resid = np.abs(np.subtract(w, wbar, out=w), out=w)
        resid[singular] = 0.0
        worst = np.maximum(worst, resid.max())
    return float(worst)

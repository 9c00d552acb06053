"""Field containers: unit-vector fields, rotation-matrix fields and the
Euclidean / semidirect-product algebra elements they pair with.

All containers are value types: a checked payload is copied in and frozen,
a spin field "mutates" only through with_values(), which re-validates, and
check=False adopts a trusted array as it is.
Boundary conditions hold on the grid.BOUNDARY_LAYER cells next to each face.
"""

from itertools import combinations, combinations_with_replacement

import numpy as np

from .grid import BOUNDARY_LAYER, Grid

UNIT_TOL = 1e-12
ORTHO_TOL = 1e-10
K_AXIS = np.array([0.0, 0.0, 1.0])


def _planes(m):
    """The nine entry planes of a stack of 3x3 matrices (..., 3, 3), as the
    (3, 3) + dims view whose [i, j] is m[..., i, j]; the planes are
    contiguous exactly when m is component-major."""
    return np.moveaxis(m, (-2, -1), (0, 1))


def _matrices(m):
    """Inverse of _planes: the (..., 3, 3) view of a (3, 3) + dims buffer."""
    return np.moveaxis(m, (0, 1), (-2, -1))


def _matmul3(a, b):
    """Pointwise a @ b of two stacks of 3x3 matrices (any memory layout):
    each entry a[i, 0] b[0, j] + a[i, 1] b[1, j] + a[i, 2] b[2, j] is summed on
    its own plane of one component-major buffer, so the bits do not depend
    on the layout of a and b."""
    a, b = _planes(a), _planes(b)
    out = np.empty((3, 3) + np.broadcast_shapes(a.shape[2:], b.shape[2:]))
    term = np.empty(out.shape[2:])
    for i in range(3):
        for j in range(3):
            entry = out[i, j, ...]
            np.multiply(a[i, 0], b[0, j], out=entry)
            for k in (1, 2):
                np.multiply(a[i, k], b[k, j], out=term)
                entry += term
    return _matrices(out)


def check_rotations(r, tol, name):
    """Raise ValueError unless every matrix of r (..., 3, 3) lies within tol
    of SO(3): |R^T R - I| <= tol entrywise and |det R - 1| <= tol, with det R
    the row triple product.  Both are written entrywise from the nine entry
    planes: the six distinct entries of the symmetric R^T R are column dot
    products.  The comparisons are written so that NaN fails (np.max keeps a
    NaN wherever it is); a huge entry overflows R^T R to inf (or NaN), which
    fails without a warning, and past that check every entry is bounded."""
    (a, b, c), (d, e, f), (g, h, i) = _planes(r)
    cols = (a, d, g), (b, e, h), (c, f, i)
    worst = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k in combinations_with_replacement(range(3), 2):
            (x0, x1, x2), (y0, y1, y2) = cols[j], cols[k]
            gram = x0 * y0 + x1 * y1 + x2 * y2
            if j == k:
                gram -= 1.0
            worst.append(np.abs(gram).max())
    ortho = np.max(worst)
    if not ortho <= tol:
        raise ValueError(f"{name}^T {name} deviates from I by {ortho:.3e} (> {tol:g})")
    det = a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)
    dev = np.abs(det - 1.0).max()
    if not dev <= tol:
        raise ValueError(f"det {name} deviates from 1 by {dev:.3e} (> {tol:g})")


def _frozen(values):
    # np.array copies in memory order ("K"), so a component-major payload
    # stays component-major
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


class SpinField:
    """Unit 3-vector field n(x) on a Grid.

    `decaying` marks fields that are exactly -k on the boundary layer (the
    compact-support stand-in for decay at infinity).  Non-decaying fields are
    legal inputs for pointwise operations but are rejected by the integral
    diagnostics that need decay.
    """

    def __init__(self, grid, values, decaying=True, check=True):
        if not isinstance(grid, Grid):
            raise TypeError("grid must be a Grid")
        values = np.asarray(values, dtype=float)
        if values.shape != grid.dims + (3,):
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.dims + (3,)}"
            )
        self.grid = grid
        # check=False is the trusted internal fast path: no copy, no freeze
        self.values = _frozen(values) if check else values
        self.decaying = bool(decaying)
        if check:
            self.check_invariants()

    def check_invariants(self):
        if not np.isfinite(self.values).all():
            raise ValueError("spin field contains non-finite values")
        worst = self.norm_deviation()
        if not worst <= UNIT_TOL:
            raise ValueError(f"|n| deviates from 1 by {worst:.3e} (> {UNIT_TOL:g})")
        if self.decaying:
            mask = self.grid.boundary_mask()
            if not (self.values[mask] == -K_AXIS).all():
                raise ValueError(
                    f"decaying field must equal -k exactly on the {BOUNDARY_LAYER}-cell boundary layer"
                )

    def with_values(self, values, check=True):
        return SpinField(self.grid, values, self.decaying, check=check)

    def norm_deviation(self):
        """Max deviation of |n| from 1 over all cells: inf, without a
        warning, where a huge entry overflows the norm, and NaN if any
        value is NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.abs(np.linalg.norm(self.values, axis=-1) - 1.0).max())

    def require_decaying(self, what):
        if not self.decaying:
            raise ValueError(f"{what} requires a field decaying to -k at the boundary")


class RotationField:
    """SO(3)-matrix field psi(x) on a Grid; identity on the boundary layer."""

    def __init__(self, grid, values, check=True):
        if not isinstance(grid, Grid):
            raise TypeError("grid must be a Grid")
        values = np.asarray(values, dtype=float)
        if values.shape != grid.dims + (3, 3):
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.dims + (3, 3)}"
            )
        self.grid = grid
        # check=False is the trusted internal fast path: no copy, no freeze
        self.values = _frozen(values) if check else values
        if check:
            self.check_invariants()

    def check_invariants(self):
        check_rotations(self.values, ORTHO_TOL, "psi")
        mask = self.grid.boundary_mask()
        if np.abs(self.values[mask] - np.eye(3)).max() > ORTHO_TOL:
            raise ValueError("rotation field must be the identity on the boundary layer")

    def compose(self, other, check=True):
        """Pointwise matrix product psi(x) other(x)."""
        return RotationField(self.grid, _matmul3(self.values, other.values), check=check)

    def inverse(self):
        return RotationField(
            self.grid, np.swapaxes(self.values, -1, -2), check=False
        )


def plane_pairs(p):
    """The so(p) basis, planes (i, j) with i < j in row order: (0, 1), (0, 2),
    (1, 2) for p = 3.  omega_upper, the planes of the 2-form, the CSV's L_ij
    columns and the CLI's upper-triangle entries all follow it."""
    return tuple(combinations(range(p), 2))


class EuclideanAlgebraElement:
    """Element (Omega, adot) of so(p) x R^p.

    Omega is given by its upper-triangle entries in plane_pairs order (none
    means zero rotation) and stored as a frozen skew matrix, exactly skew by
    construction.
    """

    def __init__(self, p, omega_upper=None, adot=None):
        self.p = int(p)
        if self.p not in (1, 2, 3):
            raise ValueError("p must be 1, 2 or 3")
        pairs = plane_pairs(self.p)
        if omega_upper is None:
            omega_upper = np.zeros(len(pairs))
        upper = np.asarray(omega_upper, dtype=float).reshape(-1)
        if upper.size != len(pairs):
            raise ValueError(f"expected {len(pairs)} upper-triangle entries, got {upper.size}")
        if not np.isfinite(upper).all():
            raise ValueError(f"omega_upper must be finite, got {upper}")
        self.omega_upper = _frozen(upper)
        adot = np.zeros(self.p) if adot is None else np.asarray(adot, dtype=float)
        if adot.shape != (self.p,):
            raise ValueError(f"adot must have shape ({self.p},)")
        if not np.isfinite(adot).all():
            raise ValueError(f"adot must be finite, got {adot}")
        self.adot = _frozen(adot)
        omega = np.zeros((self.p, self.p))
        for entry, (i, j) in zip(upper, pairs):
            omega[i, j], omega[j, i] = entry, -entry
        self.omega = _frozen(omega)

    @classmethod
    def from_matrix(cls, omega, adot):
        omega = np.asarray(omega, float)
        p = omega.shape[0]
        if omega.shape != (p, p) or np.abs(omega + omega.T).max() > 0:
            raise ValueError("omega must be exactly skew-symmetric")
        return cls(p, [omega[i, j] for i, j in plane_pairs(p)], adot)

    @classmethod
    def translation(cls, adot):
        return cls(len(adot), adot=adot)

    def scaled(self, c):
        return EuclideanAlgebraElement(self.p, c * self.omega_upper, c * self.adot)

    def velocity_field(self, grid):
        """The affine spatial vector field x -> Omega x + adot, shape dims + (p,)."""
        if grid.p != self.p:
            raise ValueError("algebra element dimension must match the grid")
        x = grid.coords()
        return x @ self.omega.T + self.adot


class SemidirectAlgebraElement:
    """Pair (xi, (Omega, adot)): an so(3)-valued field vanishing on the
    boundary layer together with a Euclidean algebra element."""

    def __init__(self, grid, xi, euclid):
        if not isinstance(euclid, EuclideanAlgebraElement):
            raise TypeError("euclid must be a EuclideanAlgebraElement")
        xi = np.asarray(xi, dtype=float)
        if xi.shape != grid.dims + (3,):
            raise ValueError("xi must be a 3-vector field on the grid")
        if euclid.p != grid.p:
            raise ValueError("algebra element dimension does not match grid")
        self.grid = grid
        self.xi = _frozen(xi)
        self.euclid = euclid
        self.check_invariants()

    def check_invariants(self):
        mask = self.grid.boundary_mask()
        if self.xi[mask].any():
            raise ValueError("xi must vanish exactly on the boundary layer")
        if not np.isfinite(self.xi).all():
            raise ValueError("xi contains non-finite values")

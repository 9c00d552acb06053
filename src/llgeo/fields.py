"""Field containers: unit-vector fields, rotation-matrix fields and the
Euclidean / semidirect-product algebra elements they pair with.

All containers are value types: the payload array is copied in and frozen,
and a spin field "mutates" only through with_values(), which re-validates.
Boundary conditions hold on the grid.BOUNDARY_LAYER cells next to each face.
"""

import numpy as np

from .grid import BOUNDARY_LAYER, Grid

UNIT_TOL = 1e-12
ORTHO_TOL = 1e-10
K_AXIS = np.array([0.0, 0.0, 1.0])


def _frozen(values):
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
        norms = np.linalg.norm(self.values, axis=-1)
        worst = float(np.abs(norms - 1.0).max())
        if not np.isfinite(self.values).all():
            raise ValueError("spin field contains non-finite values")
        if worst > UNIT_TOL:
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
        """Max deviation of |n| from 1 over all cells."""
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
        self.values = _frozen(values)
        if check:
            self.check_invariants()

    def check_invariants(self):
        v = self.values
        eye = np.eye(3)
        ortho = np.abs(np.einsum("...ji,...jk->...ik", v, v) - eye).max()
        if ortho > ORTHO_TOL:
            raise ValueError(f"psi^T psi deviates from I by {ortho:.3e}")
        det = np.linalg.det(v)
        if np.abs(det - 1.0).max() > ORTHO_TOL:
            raise ValueError("det psi deviates from 1")
        mask = self.grid.boundary_mask()
        if np.abs(v[mask] - eye).max() > ORTHO_TOL:
            raise ValueError("rotation field must be the identity on the boundary layer")

    def apply_to_axis(self):
        """Pointwise psi(x) k, a 3-vector field."""
        return self.values @ K_AXIS

    def compose(self, other, check=True):
        """Pointwise matrix product psi(x) other(x)."""
        return RotationField(
            self.grid, np.einsum("...ij,...jk->...ik", self.values, other.values),
            check=check,
        )

    def inverse(self):
        return RotationField(
            self.grid, np.swapaxes(self.values, -1, -2), check=False
        )


def _upper_indices(p):
    return [(i, j) for i in range(p) for j in range(i + 1, p)]


class EuclideanAlgebraElement:
    """Element (Omega, adot) of so(p) x R^p.

    Omega is stored as its independent upper-triangle entries, so skewness
    is exact by construction.
    """

    def __init__(self, p, omega_upper=(), adot=None):
        self.p = int(p)
        if self.p not in (1, 2, 3):
            raise ValueError("p must be 1, 2 or 3")
        n_upper = self.p * (self.p - 1) // 2
        upper = np.asarray(omega_upper, dtype=float).reshape(-1)
        if upper.size != n_upper:
            raise ValueError(f"expected {n_upper} upper-triangle entries, got {upper.size}")
        self.omega_upper = _frozen(upper)
        adot = np.zeros(self.p) if adot is None else np.asarray(adot, dtype=float)
        if adot.shape != (self.p,):
            raise ValueError(f"adot must have shape ({self.p},)")
        self.adot = _frozen(adot)

    @classmethod
    def from_matrix(cls, omega, adot):
        omega = np.asarray(omega, float)
        p = omega.shape[0]
        if omega.shape != (p, p) or np.abs(omega + omega.T).max() > 0:
            raise ValueError("omega must be exactly skew-symmetric")
        upper = [omega[i, j] for i, j in _upper_indices(p)]
        return cls(p, upper, adot)

    @classmethod
    def translation(cls, adot):
        adot = np.asarray(adot, float)
        return cls(len(adot), [0.0] * (len(adot) * (len(adot) - 1) // 2), adot)

    @property
    def omega(self):
        m = np.zeros((self.p, self.p))
        for entry, (i, j) in zip(self.omega_upper, _upper_indices(self.p)):
            m[i, j] = entry
            m[j, i] = -entry
        return m

    def scaled(self, c):
        return EuclideanAlgebraElement(self.p, c * self.omega_upper, c * self.adot)

    def velocity_field(self, grid):
        """The affine spatial vector field x -> Omega x + adot, shape dims + (p,)."""
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

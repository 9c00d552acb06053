"""Field containers: unit-vector fields, unit-quaternion rotation fields and
the Euclidean / semidirect-product algebra elements they pair with.

All containers are value types: a checked payload is copied in and frozen,
a spin field "mutates" only through with_values(), which re-validates, and
check=False adopts a trusted array.
Boundary conditions hold on the grid.BOUNDARY_LAYER cells next to each face.

Every field payload is component-major: contiguous planes, three
(n_x, n_y, n_z) for a spin field and four (w, x, y, z) for the unit
quaternions of a rotation field, seen through the (..., 3) or (..., 4)
view that every kernel indexes.  _payload is the one place that decides
it, so the per-component passes of the kernels stream contiguous planes,
and the densities the momenta sum are planes too.

The kernels that step and measure spin fields write into a _Workspace: the
grid-sized scratch of one run (spare field arrays and scratch planes), so
that a run allocates its buffers once instead of once per step and report,
and the axis-0 slabs that the stepper splits a large grid into, with the
threads that step them.
"""

import contextvars
import math
import os
from itertools import combinations

import numpy as np

from .grid import BOUNDARY_LAYER, Grid

UNIT_TOL = 1e-12
ORTHO_TOL = 1e-10  # RotationField: | |q|^2 - 1 |, and |x|, |y|, |z| on the boundary layer
K_AXIS = np.array([0.0, 0.0, 1.0])


def _dot3(a, b, out=None, scratch=None):
    """The per-cell dot product a0 b0 + a1 b1 + a2 b2 over the trailing axis,
    summed left to right into out through the plane scratch (each allocated
    when None).  np.linalg.norm and (v * v).sum(axis=-1) sum |v|^2 in that
    order in either layout, so their results are bit-identical to it."""
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    s = np.empty_like(out) if scratch is None else scratch
    np.multiply(a[..., 0], b[..., 0], out=out)
    for c in (1, 2):
        np.add(out, np.multiply(a[..., c], b[..., c], out=s), out=out)
    return out


def _qmul(a, b, conj=False):
    """Hamilton product a b of two stacks of quaternions (..., 4) in
    (w, x, y, z) order, or a b* when conj (every term in b's vector part
    changes sign): w = a_w b_w - a_v . b_v and v = a_v b_w + a_w b_v +
    a_v x b_v.  Each component is summed term by term on its own plane of
    one component-major buffer, so the bits do not depend on the layout of
    a and b."""
    plus, minus = (np.subtract, np.add) if conj else (np.add, np.subtract)
    out = np.empty((4,) + np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    planes, t = [out[c, ...] for c in range(4)], np.empty(out.shape[1:])
    np.multiply(a[..., 0], b[..., 0], out=planes[0])
    for c in (1, 2, 3):
        minus(planes[0], np.multiply(a[..., c], b[..., c], out=t), out=planes[0])
    for c in (1, 2, 3):
        i, j, acc = c % 3 + 1, (c + 1) % 3 + 1, planes[c]  # (c, i, j) cyclic
        np.multiply(a[..., c], b[..., 0], out=acc)
        plus(acc, np.multiply(a[..., 0], b[..., c], out=t), out=acc)
        plus(acc, np.multiply(a[..., i], b[..., j], out=t), out=acc)
        minus(acc, np.multiply(a[..., j], b[..., i], out=t), out=acc)
    return np.moveaxis(out, 0, -1)


def _vector_norm2(q, tol, name):
    """|v|^2 (a _dot3) of every quaternion q = (w, v) of the stack (..., 4),
    once | |q|^2 - 1 | <= tol holds everywhere; else ValueError.  The
    comparison is written so that NaN fails (np.max keeps a NaN wherever it
    is), and a huge entry overflows |q|^2 to inf, which fails without a
    warning; past the check every entry is bounded."""
    with np.errstate(over="ignore", invalid="ignore"):
        vv = _dot3(q[..., 1:], q[..., 1:])
        dev = np.abs(vv + q[..., 0] * q[..., 0] - 1.0).max()
    if not dev <= tol:
        raise ValueError(f"|{name}|^2 deviates from 1 by {dev:.3e} (> {tol:g})")
    return vv


def _c_view(buf, shape):
    """A C-order array of `shape` over the leading memory of the spare array
    buf, which must hold at least as many values.  It is a view when buf is
    contiguous in some axis order, as every workspace array is; a C-order
    view is what makes numpy's sums over it run in the order they run over
    a fresh array."""
    return buf.ravel(order="K")[:math.prod(shape)].reshape(shape)


SLAB_CELLS = 32768  # the fewest cells stepped over two slabs; crossover measured on two cores
MAX_SLABS = 2  # two cores is the most this split was measured on


def _slab_count(grid):
    """How many axis-0 slabs the stepper splits grid into: MAX_SLABS, or as
    many CPUs as this process may run on if fewer, for a grid of at least
    SLAB_CELLS cells, else 1 (a Grid has at least 8 rows, so no slab is
    empty).  Below SLAB_CELLS a second thread costs more
    than it saves; above it each core's cache holds its half."""
    if math.prod(grid.dims) < SLAB_CELLS:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(MAX_SLABS, cpus)


class _Workspace:
    """Scratch for the kernels that step and measure fields on one grid:
    a pool of spare field arrays laid out like the field it is built from
    (take borrows one, allocating it if the pool is empty; appending to pool
    hands it back), C-contiguous scratch planes, and the stepper's axis-0
    slabs.

    slabs holds the stepper's slabs (_slab_count of them, split evenly),
    each as its rows, a slice of axis 0, and the index tuples of its frozen
    cells: the boundary layer of decaying fields (the reduction's boundary
    condition) in those rows, none for non-decaying fields.  run calls a
    phase once per slab and returns once all calls are done: inline when
    there is one slab, else on a pool of MAX_SLABS threads that the
    workspace builds on the first run with more than one slab and that
    close shuts down, so no thread outlives the stepping call that owns the
    workspace and none starts at import.
    """

    def __init__(self, n):
        self._like = n.values
        self._planes = []
        self._threads = None
        frozen = n.grid.boundary_slabs() if n.decaying else ()
        d0, count = n.grid.dims[0], _slab_count(n.grid)
        self.slabs = []
        for rows in (slice(d0 * i // count, d0 * (i + 1) // count) for i in range(count)):
            cut = []
            for index in frozen:
                r = range(d0)[index[0]]  # the frozen slab's axis-0 rows
                lo, hi = max(r.start, rows.start), min(r.stop, rows.stop)
                if lo < hi:
                    cut.append((slice(lo, hi),) + index[1:])
            self.slabs.append((rows, cut))
        self.pool = []

    def run(self, phase, args):
        """phase(*a) for the arguments a of every slab (args, one tuple per
        slab, in slab order), joined: the results in slab order.  Every
        slab's result is read, so a phase that raises in any slab raises
        here, once every slab has returned."""
        if len(args) == 1:
            return [phase(*args[0])]
        if self._threads is None:
            from concurrent.futures import ThreadPoolExecutor
            self._threads = ThreadPoolExecutor(MAX_SLABS, thread_name_prefix="llgeo-slab")
        # each slab runs in a copy of the caller's context, so np.errstate holds there too
        futures = [self._threads.submit(contextvars.copy_context().run, phase, *a) for a in args]
        errors = [future.exception() for future in futures]  # waits for every slab
        if any(errors):
            raise next(filter(None, errors))
        return [future.result() for future in futures]

    def close(self):
        """Shut the slab threads down, if any were started, and wait for them."""
        if self._threads is not None:
            self._threads.shutdown()
            self._threads = None

    def take(self):
        """A spare field array from the pool, allocated if the pool is empty."""
        return self.pool.pop() if self.pool else np.empty_like(self._like)

    def planes(self, k):
        """The first k scratch planes, each allocated on first need.  Only
        the stepper uses them (two); a report borrows field arrays from the
        pool and no plane."""
        while len(self._planes) < k:
            self._planes.append(np.empty(self._like.shape[:-1]))
        return self._planes[:k]


def _frozen(values):
    """A read-only float copy of values."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _is_planar(values):
    """Whether the (..., c) array values is c contiguous planes."""
    return np.moveaxis(values, -1, 0).flags.c_contiguous


def _payload(grid, values, comp, check):
    """The float values of a field on grid with per-cell shape comp, (3,)
    for a spin field and (4,) for a rotation field, as contiguous planes
    comp + dims seen through their (..., c) view: checked, values are
    copied into new planes and frozen; with check=False (the trusted
    internal fast path) an array already laid out so is adopted as it is,
    and any other is copied into planes.
    """
    if not isinstance(grid, Grid):
        raise TypeError("grid must be a Grid")
    values = np.asarray(values, dtype=float)
    if values.shape != grid.dims + comp:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.dims + comp}")
    if not check and _is_planar(values):
        return values
    planes = np.moveaxis(np.empty(comp + grid.dims), 0, -1)
    np.copyto(planes, values)
    planes.setflags(write=not check)
    return planes


class SpinField:
    """Unit 3-vector field n(x) on a Grid.

    `decaying` marks fields that are exactly -k on the boundary layer (the
    compact-support stand-in for decay at infinity).  Non-decaying fields are
    legal inputs for pointwise operations but are rejected by the integral
    diagnostics that need decay.

    A checked field's planes are a frozen copy, so the moment tensor G of
    its 2-form (momenta._moment_tensor, which takes each plane's moments
    with momenta._plane_moments as the plane is built) is a function of the
    field: the first pass keeps G, read-only, in _G (empty until
    then), and moments, degree and cocycle_direct contract it from then on
    without a pass; it is (p + 1)^2 p^2 floats, never a grid-sized array.  A
    check=False field may adopt a buffer that is overwritten later, such as
    the stepper's pooled arrays, so its _G is None and no G is kept
    for it.
    """

    def __init__(self, grid, values, decaying=True, check=True):
        self.values = _payload(grid, values, (3,), check)
        self.grid = grid
        self.decaying = bool(decaying)
        self._G = () if check else None
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

    def norm_deviation(self, planes=None):
        """Max deviation of |n| from 1 over all cells: inf, without a
        warning, where a huge entry overflows the norm, and NaN if any
        value is NaN.  |n| is summed on the component planes into two
        scratch planes (planes, allocated when None) and is bit-identical
        to np.linalg.norm's."""
        s, t = np.empty((2,) + self.grid.dims) if planes is None else planes
        with np.errstate(over="ignore", invalid="ignore"):
            np.sqrt(_dot3(self.values, self.values, s, t), out=s)
            return float(np.abs(np.subtract(s, 1.0, out=s), out=s).max())

    def require_decaying(self, what):
        if not self.decaying:
            raise ValueError(f"{what} requires a field decaying to -k at the boundary")


class RotationField:
    """Rotation field psi(x) on a Grid, as unit quaternions (w, x, y, z) on
    four contiguous planes; q and -q are the same rotation.  psi is the
    identity, w = +-1, on the boundary layer: a 2pi winding about k ends at
    w = -1."""

    def __init__(self, grid, values, check=True):
        self.values = _payload(grid, values, (4,), check)
        self.grid = grid
        if check:
            self.check_invariants()

    def check_invariants(self):
        _vector_norm2(self.values, ORTHO_TOL, "psi")
        edge = self.values[self.grid.boundary_mask()][:, 1:]
        if not np.abs(edge).max() <= ORTHO_TOL:
            raise ValueError("rotation field must be the identity (w = +-1) on the boundary layer")

    def compose(self, other, check=True):
        """Pointwise product psi(x) other(x), the Hamilton product."""
        return RotationField(self.grid, _qmul(self.values, other.values), check=check)

    def inverse(self):
        """The conjugate (w, -x, -y, -z), the inverse of a unit quaternion."""
        conj = -self.values
        conj[..., 0] = self.values[..., 0]
        return RotationField(self.grid, conj, check=False)


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
        if omega.shape != (p, p) or not (omega == -omega.T).all():  # NaN fails
            raise ValueError("omega must be exactly skew-symmetric")
        return cls(p, [omega[i, j] for i, j in plane_pairs(p)], adot)

    @classmethod
    def translation(cls, adot):
        return cls(len(adot), adot=adot)

    def scaled(self, c):
        return EuclideanAlgebraElement(self.p, c * self.omega_upper, c * self.adot)

    def _affine(self, grid):
        """A = [Omega | adot], the p x (p + 1) matrix of the affine field
        c = A (x, 1) on grid."""
        if grid.p != self.p:
            raise ValueError("algebra element dimension must match the grid")
        return np.column_stack([self.omega, self.adot])

    def velocity_field(self, grid):
        """The affine spatial vector field x -> Omega x + adot, shape dims + (p,)."""
        A = self._affine(grid)
        return grid.coords() @ A[:, :-1].T + A[:, -1]


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

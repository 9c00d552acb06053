"""Energy functional, Landau-Lifshitz vector field and time stepping.

The exchange term is discretized with nearest-neighbor differences, so that
variational_derivative_energy is the *exact* gradient of the discrete energy
(the finite-difference functional oracle checks this to 1e-5).  The evolution
is the conservative flow dn/dt = -n x dE/dn, with the boundary layer of
decaying fields frozen; two steppers are provided: projected classical RK4
(default), stable only for dt*rho <= 2*sqrt(2) with rho = 4 sum 1/h_i^2 + |a|
(beyond it renormalization hides a blow-up, so step refuses such a dt), and
fixed-point implicit midpoint, which preserves the unit norm to solver
tolerance by construction.

Stepping writes in place into a workspace: a pool of spare field arrays
for the stages, a dE/dn buffer, the Laplacian scratch, two scratch planes
and the frozen boundary slabs.  step builds one per call unless it is given
one; simulate builds one per run and hands each old field's array back to
its pool.  Every buffer is laid out like the field being stepped
(np.empty_like), and simulate steps a component-major copy of n0 (n_x, n_y
and n_z each contiguous, seen through a (..., 3) view), so the
per-component passes of the cross product and the renormalization stream
contiguous planes.  Reports and the returned field are read from C-order
copies.  Every value is computed elementwise with the operation order of
the textbook allocating formulas (np.diff plus np.pad, cross3,
np.linalg.norm), so the results are bit-identical to them in either layout.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericsError
from .fields import K_AXIS, SpinField
from .calculus import integrate
from . import momenta


@dataclass(frozen=True)
class EnergyParams:
    """Anisotropy coupling a about K_AXIS: the axis is fixed, because N is
    conserved only when the energy is invariant under the rotations about
    the same k that the reduction divides out."""

    a: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        if not np.isfinite(self.a):
            raise ValueError("a must be finite")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    steps: int
    scheme: str = "rk4_project"
    report_every: int = 50
    params: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(f"dt: must be finite and positive, got {self.dt}")
        if self.steps < 0:
            raise ValueError(f"steps: must be nonnegative, got {self.steps}")
        if self.scheme not in ("rk4_project", "midpoint"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.report_every < 1:
            raise ValueError(f"report_every: must be at least 1, got {self.report_every}")


def _neighbor_diffs(values, grid, axis):
    """Forward differences along one axis divided by the spacing."""
    return np.diff(values, axis=axis) / grid.spacing[axis]


def energy(n, params=EnergyParams()):
    """E = 1/2 int |grad n|^2 + a/2 int (n.n - (n.k)^2).

    The exchange part sums squared nearest-neighbor differences (midpoint
    consistent, second order).  Rejects non-decaying fields: without decay
    the integral is not the compactly supported one the theory assumes.
    """
    n.require_decaying("energy")
    grid = n.grid
    # the sums below follow numpy's pairwise summation in memory order, so
    # they read a C-order array (no copy for a C-order field) to give the
    # same bits for every layout of the same field
    values = np.ascontiguousarray(n.values)
    exch = 0.0
    for axis in range(grid.p):
        d = _neighbor_diffs(values, grid, axis)
        exch += 0.5 * float((d * d).sum()) * grid.cell_volume
    kdot = values @ K_AXIS
    aniso_dens = (values * values).sum(axis=-1) - kdot * kdot
    aniso = 0.5 * params.a * float(integrate(aniso_dens, grid))
    return exch + aniso


def _flat(a):
    """The memory-order flat view of a; ValueError if only a copy exists."""
    flat = a.ravel(order="K")
    if not np.may_share_memory(flat, a):
        raise ValueError("n.values, out and work must be dense (no gaps or reversed axes)")
    return flat


def _free_laplacian(values, grid, out, work):
    """Sum over axes of second differences with missing neighbors dropped,
    written into out; exactly the gradient of the neighbor-difference
    exchange sum.  values, out and the scratch work are dense arrays with
    the same strides, walked in memory order.

    Per axis the arithmetic is np.diff's over the zero-padded differences
    d[i] = (v[i+1]-v[i])/h: (d[i] - d[i-1])/h, with (d[0] - 0)/h and
    (0 - d[-1])/h at the edges; the axes are added in order.  So the result
    is bit-identical to that allocating form.  Each axis is built in a flat
    buffer (out for axis 0, the scratch `work` after it) by whole-array
    passes whose neighbor is one axis stride s ahead: buf[i] = d[i-1] with
    buf[0] = 0, then buf[i] = buf[i+1] - buf[i], which takes the last d of a
    line against the zero that starts the next line in memory (dense
    arrays have no gaps, whatever their axis order).  Only the final line
    needs its own 0 - d[-1].
    """
    vflat = _flat(values)
    for axis in range(grid.p):
        h = grid.spacing[axis]
        buf = out if axis == 0 else work
        flat = _flat(buf)
        s = buf.strides[axis] // buf.itemsize
        np.subtract(vflat[s:], vflat[:-s], out=flat[s:])
        buf[(slice(None),) * axis + (0,)] = 0.0
        np.divide(flat, h, out=flat)
        np.subtract(flat[s:], flat[:-s], out=flat[:-s])  # reads run ahead of writes
        np.subtract(0.0, flat[-s:], out=flat[-s:])
        np.divide(flat, h, out=flat)
        if axis:
            np.add(out, buf, out=out)
    return out


def variational_derivative_energy(n, params=EnergyParams(), out=None, work=None):
    """dE/dn = -(discrete Laplacian of n) + a (n - (n.k) k), unprojected,
    written into out and returned; work is the Laplacian's scratch.  Both
    are allocated laid out like n.values when None, and must share its
    strides when given (ValueError otherwise, or for a values array with
    gaps).

    The normal component is irrelevant to the dynamics: the cross product in
    the evolution law annihilates it.  K_AXIS is e_z, so the anisotropy
    term is a (n_x, n_y, 0): n_z - n_z is exactly 0 and the other
    components subtract an exact zero.
    """
    values = n.values
    out = np.empty_like(values) if out is None else out
    work = np.empty_like(values) if work is None else work
    for buf in (out, work):
        if buf.dtype != float or buf.shape != values.shape or buf.strides != values.strides:
            raise ValueError("n.values must be dense, and out and work float arrays laid "
                             "out like it (same shape and strides)")
    _free_laplacian(values, n.grid, out, work)
    np.negative(out, out=out)
    t = _flat(work)[: values.size // 3].reshape(values.shape[:-1])
    for c in (0, 1):
        np.multiply(values[..., c], params.a, out=t)
        np.add(out[..., c], t, out=out[..., c])
    return out


def _minus_cross(a, b, out, planes):
    """out = -(a x b) over the trailing axis, cross3's products taken through
    the two planes; q - p is -(p - q) exactly."""
    p, q = planes
    for c in range(3):
        i, j = (c + 1) % 3, (c + 2) % 3
        np.multiply(a[..., i], b[..., j], out=p)
        np.multiply(a[..., j], b[..., i], out=q)
        np.subtract(q, p, out=out[..., c])
    return out


def _renormalize(values, planes):
    """Divide each vector in place by sqrt(v0*v0 + v1*v1 + v2*v2), summed in
    that order (np.linalg.norm's), so the result is bit-identical to it."""
    s, t = planes
    np.multiply(values[..., 0], values[..., 0], out=s)
    np.multiply(values[..., 1], values[..., 1], out=t)
    np.add(s, t, out=s)
    np.multiply(values[..., 2], values[..., 2], out=t)
    np.add(s, t, out=s)
    np.sqrt(s, out=s)
    for c in range(3):
        np.divide(values[..., c], s, out=values[..., c])
    return values


class _Workspace:
    """Stepping buffers for fields on one grid, laid out like the field it
    is built from: dE/dn, the Laplacian scratch, two scratch planes, the
    frozen boundary slabs (the boundary layer of decaying fields, the
    reduction's boundary condition; none for non-decaying fields) and a
    pool of spare field arrays."""

    def __init__(self, n):
        self.de, self.lap = np.empty_like(n.values), np.empty_like(n.values)
        self.planes = np.empty((2,) + n.values.shape[:-1])
        self.frozen = n.grid.boundary_slabs() if n.decaying else ()
        self.pool = []

    def take(self):
        """A spare field array from the pool, allocated if the pool is empty."""
        return self.pool.pop() if self.pool else np.empty_like(self.de)


def step(n, cfg, work=None):
    """Advance one time step and return the new field, laid out like
    n.values; an RK4 dt beyond dt*rho = 2*sqrt(2) raises ValueError.

    Every right-hand side, cross product and renormalization writes into
    work, a _Workspace for fields with n's grid, decay and layout, built
    for this call when None.  Stage arrays come from its pool and go back,
    except the new field's, which the field owns; n.values is only read.
    Every stage keeps the operation order of the allocating formulas, so
    the result is bit-identical to them.
    """
    y = n.values
    dt = cfg.dt
    params = cfg.params
    work = _Workspace(n) if work is None else work
    planes = work.planes

    def rhs(values, out):
        """out = -values x dE/dn, zero on the frozen cells."""
        g = variational_derivative_energy(n.with_values(values, check=False), params,
                                          out=work.de, work=work.lap)
        _minus_cross(values, g, out, planes)
        for slab in work.frozen:
            out[slab] = 0.0
        return out

    if cfg.scheme == "rk4_project":
        rho = 4.0 * sum(1.0 / h ** 2 for h in n.grid.spacing) + abs(params.a)
        if dt * rho > 2.0 * np.sqrt(2.0):
            raise ValueError(f"dt*rho = {dt * rho:.4g} exceeds the RK4 stability limit "
                             f"2*sqrt(2); use dt <= {2.0 * np.sqrt(2.0) / rho:.4g}")
        # acc = k1 + 2 k2 + 2 k3 + k4; stage holds 2 k_i, then the next stage
        acc, k, stage = work.take(), work.take(), work.take()
        rhs(y, acc)
        np.multiply(acc, 0.5 * dt, out=stage)
        np.add(y, stage, out=stage)
        for weight in (0.5 * dt, dt):
            rhs(stage, k)
            np.multiply(k, 2.0, out=stage)
            np.add(acc, stage, out=acc)
            np.multiply(k, weight, out=stage)
            np.add(y, stage, out=stage)
        rhs(stage, k)
        np.add(acc, k, out=acc)
        np.multiply(acc, dt / 6.0, out=acc)
        out = _renormalize(np.add(y, acc, out=acc), planes)
        work.pool += [k, stage]
    else:
        out, mid, f = work.take(), work.take(), work.take()
        np.copyto(out, y)
        for iteration in range(50):
            np.add(y, out, out=mid)
            _renormalize(np.multiply(mid, 0.5, out=mid), planes)
            rhs(mid, f)
            np.multiply(f, dt, out=f)
            np.add(y, f, out=f)
            delta = np.abs(np.subtract(f, out, out=mid), out=mid).max()
            out, f = f, out
            if delta < 1e-12:
                break
        else:
            raise ConvergenceError(
                f"implicit midpoint did not converge in 50 iterations "
                f"(last update {delta:.3e})",
                iterations=50,
            )
        work.pool += [mid, f]
    return n.with_values(out, check=False)


def make_report(n, t, params=EnergyParams()):
    """Assemble the diagnostics bundle; entries that need decay or a
    particular dimension are None when unavailable."""
    e_val = energy(n, params) if n.decaying else None
    deg, P, L = momenta.moments(n) if n.grid.p >= 2 and n.decaying else (None,) * 3
    return momenta.MomentumReport(
        t=float(t),
        energy=e_val,
        N=momenta.momentum_N(n),
        P=P,
        L=L,
        deg=deg,
        norm_dev=n.norm_deviation(),
    )


def _component_major(values):
    """A copy of values (..., 3) whose components are each contiguous, seen
    through a (..., 3) view."""
    out = np.moveaxis(np.empty((3,) + values.shape[:-1]), 0, -1)
    out[...] = values
    return out


def simulate(n0, cfg, report_sink=None):
    """Run cfg.steps steps from n0 (which is only read); returns the reports
    and the final field, whose array is C-contiguous.

    Reports are emitted at t=0, every cfg.report_every steps, and at the end;
    each is passed to report_sink as it appears.  Aborts with the step index
    if any value goes non-finite.

    The steps run on a component-major copy of n0 in one workspace, and
    each old field's array goes back to the workspace's pool.  Each report
    reads a C-order copy of the field in one reused row buffer, so reports
    match those of a C-ordered run bit for bit; the workspace is dropped
    before the final report.
    """
    reports = []

    def report(n, t):
        reports.append(make_report(n, t, cfg.params))
        if report_sink is not None:
            report_sink(reports[-1])

    def in_row(n):
        np.copyto(row, n.values)
        return n.with_values(row, check=False)

    report(n0, 0.0)
    n = n0
    if cfg.steps:
        n = n0.with_values(_component_major(n0.values), check=False)
        work, row = _Workspace(n), np.empty(n0.values.shape)
    for i in range(1, cfg.steps + 1):
        new = step(n, cfg, work)
        work.pool.append(n.values)
        n = new
        if not np.isfinite(n.values).all():
            raise NumericsError(f"non-finite field values at step {i}")
        if i == cfg.steps:
            work = None  # frees the stepping buffers before the final report
            n = in_row(n)
            report(n, i * cfg.dt)
        elif i % cfg.report_every == 0:
            report(in_row(n), i * cfg.dt)
    return reports, n

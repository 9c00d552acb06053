"""Energy functional, Landau-Lifshitz vector field and time stepping.

The exchange term is discretized with nearest-neighbor differences.  The
evolution is the conservative precession dn/dt = n x H about the effective
field H = sum over axes of (n[i+1] + n[i-1]) / h^2 + a n_z k, a missing
neighbor left out; H is -dE/dn of the discrete energy up to a multiple of
n, which n x annihilates, so n x H is its flow -n x dE/dn.  The boundary
layer of decaying fields is frozen.  Two steppers are provided: projected
classical RK4 (default), stable only for dt*rho <= 2*sqrt(2) with
rho = 4 sum 1/h_i^2 + |a| (beyond it renormalization hides a blow-up, so
step refuses such a dt), and the spherical midpoint rule, the implicit
midpoint taken at the renormalized average and solved by fixed-point
iteration (McLachlan, Modin & Verdier, Phys. Rev. E 89 (2014) 061301): it
is symplectic on the product of spheres, keeps |n| and N exact to solver
tolerance, and conserves E nearly.

Stepping writes in place into a workspace: a pool of spare field arrays
for the stages, the effective field, two scratch planes and the frozen
boundary slabs.  step builds one per call unless it is given one; simulate
builds one per run and hands each old field's array back to its pool.
Every buffer is laid out like the field being stepped (np.empty_like), and
simulate steps a component-major copy of n0 (n_x, n_y and n_z each
contiguous, seen through a (..., 3) view), so the per-component passes of
the effective field, the cross product and the renormalization stream
contiguous planes.  Every value is computed elementwise with the operation
order of the textbook allocating formulas (np.pad neighbor sums, cross3,
np.linalg.norm), so the results are bit-identical to them in either
layout.  make_report gives the same bits for every layout too, so simulate
reports the field it steps and copies only the field it returns into C
order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericsError
from .fields import K_AXIS, SpinField
from .calculus import integrate
from .grid import _along
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
        d = np.diff(values, axis=axis) / grid.spacing[axis]
        exch += 0.5 * float((d * d).sum()) * grid.cell_volume
    kdot = values @ K_AXIS
    aniso_dens = (values * values).sum(axis=-1) - kdot * kdot
    aniso = 0.5 * params.a * float(integrate(aniso_dens, grid))
    return exch + aniso


def _effective_field(values, grid, a, out, scratch):
    """out = H = sum over axes of (n[i+1] + n[i-1]) / h^2 + a n_z k, a
    missing neighbor left out, built in place and returned; scratch is a
    field array it overwrites.  K_AXIS is e_z, so the anisotropy term adds
    to the z component only.

    Per axis the neighbor sum is built on _along slices (in out for the
    first axis, in scratch after it; each end cell takes its one present
    neighbor), divided by h^2 and added, so the result is bit-identical to
    the allocating np.pad form.  -dE/dn of the discrete energy is
    H - (D + a) n, D the sum of 1/h^2 over the present neighbors (the
    Laplacian's diagonal and its free-edge rule), and n x n = 0, so n x H
    is the Landau-Lifshitz field -n x dE/dn up to rounding.
    """
    for axis, h in enumerate(grid.spacing):
        at = _along(axis, grid.p)
        buf = out if axis == 0 else scratch
        np.add(values[at(slice(2, None))], values[at(slice(None, -2))],
               out=buf[at(slice(1, -1))])
        buf[at(0)], buf[at(-1)] = values[at(1)], values[at(-2)]
        np.divide(buf, h ** 2, out=buf)
        if axis:
            np.add(out, buf, out=out)
    np.multiply(values[..., 2], a, out=scratch[..., 2])
    np.add(out[..., 2], scratch[..., 2], out=out[..., 2])
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
    is built from: the effective field H, two scratch planes, the frozen
    boundary slabs (the boundary layer of decaying fields, the reduction's
    boundary condition; none for non-decaying fields) and a pool of spare
    field arrays."""

    def __init__(self, n):
        self.H = np.empty_like(n.values)
        self.planes = np.empty((2,) + n.values.shape[:-1])
        self.frozen = n.grid.boundary_slabs() if n.decaying else ()
        self.pool = []

    def take(self):
        """A spare field array from the pool, allocated if the pool is empty."""
        return self.pool.pop() if self.pool else np.empty_like(self.H)


def step(n, cfg, work=None):
    """Advance dn/dt = n x H one time step and return the new field, laid
    out like n.values; an RK4 dt beyond dt*rho = 2*sqrt(2) raises
    ValueError.

    Every effective field, cross product and renormalization writes into
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
        """out = values x H, zero on the frozen cells; out is the effective
        field's scratch until the cross product fills it."""
        _effective_field(values, n.grid, params.a, work.H, out)
        _minus_cross(work.H, values, out, planes)
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
    reads the field being stepped; the workspace is dropped before the
    final report.
    """
    reports = []

    def report(n, t):
        reports.append(make_report(n, t, cfg.params))
        if report_sink is not None:
            report_sink(reports[-1])

    report(n0, 0.0)
    if not cfg.steps:
        return reports, n0
    n = n0.with_values(_component_major(n0.values), check=False)
    work = _Workspace(n)
    for i in range(1, cfg.steps + 1):
        new = step(n, cfg, work)
        work.pool.append(n.values)
        n = new
        if not np.isfinite(n.values).all():
            raise NumericsError(f"non-finite field values at step {i}")
        if i == cfg.steps:
            work = None  # frees the stepping buffers before the final report
        if i % cfg.report_every == 0 or i == cfg.steps:
            report(n, i * cfg.dt)
    return reports, n.with_values(np.ascontiguousarray(n.values), check=False)

"""Energy functional, Landau-Lifshitz vector field and time stepping.

The exchange term is discretized with nearest-neighbor differences.  The
evolution is the conservative precession dn/dt = n x H about the effective
field H = sum over axes of (n[i+1] + n[i-1]) / h^2 + a n_z k, a missing
neighbor left out; H is -dE/dn of the discrete energy up to a multiple of
n, which n x annihilates, so n x H is its flow -n x dE/dn.  The stepper
builds the scaled field h0^2 H (h0 the first axis's spacing: each axis's
neighbor sum weighted by (h0/h)^2, so by nothing on equal spacings, and
the anisotropy by a h0^2) and carries 1/h0^2 in its stage weights,
tau = dt/h0^2 in place of dt, so no pass divides by h^2.  The boundary
layer of decaying fields is frozen.  Two steppers are provided: projected
classical RK4 (default), stable only for dt*rho <= 2*sqrt(2) with
rho = 4 sum 1/h_i^2 + |a| (beyond it renormalization hides a blow-up, so
step refuses such a dt), and the spherical midpoint rule, the implicit
midpoint taken at the renormalized average and solved by fixed-point
iteration (McLachlan, Modin & Verdier, Phys. Rev. E 89 (2014) 061301): it
is symplectic on the product of spheres, keeps |n| and N exact to solver
tolerance, and conserves E nearly.  Its iteration contracts by about
dt*rho/2, so step refuses a midpoint dt*rho > 2 too.

Stepping and reporting write in place into a workspace (fields._Workspace):
a pool of spare field arrays for the stages, the effective field, the
derivatives and the energy differences, scratch planes, and the frozen
boundary slabs.  step, energy and make_report build one per call unless
they are given one; simulate builds one per run, hands each field's array
back to its pool once the step after it is taken (n0's excepted: it is
only read) and passes it to every report, so after the first report
neither a step nor a report allocates a grid-sized array.  Every field is
component-major (fields._payload), and every field buffer is laid out
like it (np.empty_like), so the per-component passes of the effective
field, the cross product and the renormalization stream contiguous
planes; each axis's neighbor sum is one add over the flat planes.  Every
value is computed elementwise with the operation order of the textbook
allocating formulas of the scaled right-hand side (np.pad neighbor sums,
the componentwise cross product, np.linalg.norm, the weights tau; the
oracle in tests/allocating_stepper.py), so the stepped fields are
bit-identical to theirs, and every sum runs over contiguous planes in
memory order.  They are not bit-identical to the stages of the unscaled
n x H, from which they differ in the last bits unless h0^2 is a power of
two.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericsError
from .fields import _c_view, _dot3, _Workspace
from .calculus import cross3, integrate
from .grid import _along
from . import momenta


def _real(name, value, kind=numbers.Real, cast=float, noun="a real number"):
    """value as a float, refusing a bool or anything that is not a real
    number with a ValueError that names the field; the counts are read by
    the same rule with kind numbers.Integral, cast int and noun "an int"."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name}: must be {noun}, got {value!r}")
    return cast(value)


@dataclass(frozen=True)
class EnergyParams:
    """Anisotropy coupling a about K_AXIS: the axis is fixed, because N is
    conserved only when the energy is invariant under the rotations about
    the same k that the reduction divides out."""

    a: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _real("a", self.a))
        if not np.isfinite(self.a):
            raise ValueError(f"a: must be finite, got {self.a}")


@dataclass(frozen=True)
class SimConfig:
    dt: float
    steps: int
    scheme: str = "rk4_project"
    report_every: int = 50
    params: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self):
        object.__setattr__(self, "dt", _real("dt", self.dt))
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(f"dt: must be finite and positive, got {self.dt}")
        for name in ("steps", "report_every"):  # refuses True, 2.0 and 2.5
            object.__setattr__(self, name, _real(name, getattr(self, name),
                                                 numbers.Integral, int, "an int"))
        if self.steps < 0:
            raise ValueError(f"steps: must be nonnegative, got {self.steps}")
        if self.scheme not in ("rk4_project", "midpoint"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.report_every < 1:
            raise ValueError(f"report_every: must be at least 1, got {self.report_every}")


def energy(n, params=EnergyParams(), work=None):
    """E = 1/2 int |grad n|^2 + a/2 int (n.n - (n.k)^2).

    The exchange part sums squared nearest-neighbor differences (midpoint
    consistent, second order).  Rejects non-decaying fields: without decay
    the integral is not the compactly supported one the theory assumes.

    Each density is written, without copying n, into contiguous planes over
    the leading memory of a spare field array borrowed from the pool of work
    (a workspace for n's grid, built for this call when None), and summed
    there in memory order: first the differences along each axis, three
    planes, then the anisotropy density and its scratch plane.
    """
    n.require_decaying("energy")
    grid, values = n.grid, n.values
    work = _Workspace(n) if work is None else work
    buf = work.take()
    exch = 0.0
    for axis, h in enumerate(grid.spacing):
        at = _along(axis, grid.p)
        ahead, behind = values[at(slice(1, None))], values[at(slice(None, -1))]
        d = _c_view(buf, (3,) + ahead.shape[:-1])
        np.subtract(ahead, behind, out=np.moveaxis(d, 0, -1))
        np.divide(d, h, out=d)
        exch += 0.5 * float(np.multiply(d, d, out=d).sum()) * grid.cell_volume
    # n.n - (n.k)^2, K_AXIS being e_z
    s, t = _c_view(buf, (2,) + grid.dims)
    _dot3(values, values, s, t)
    np.subtract(s, np.multiply(values[..., 2], values[..., 2], out=t), out=s)
    aniso = 0.5 * params.a * float(integrate(s, grid))
    work.pool.append(buf)
    return exch + aniso


def _effective_field(values, grid, a, out, scratch):
    """out = h0^2 H = sum over axes of (h0/h)^2 (n[i+1] + n[i-1]) + a h0^2 n_z k,
    h0 = grid.spacing[0] and a missing neighbor left out, built in place and
    returned; scratch is a field array it overwrites.  K_AXIS is e_z, so the
    anisotropy term adds to the z component only.  The exchange weight 1/h0^2
    is left to the caller (step folds it into its stage weights), so no pass
    divides, and only an axis whose spacing differs from h0 multiplies.

    values, out and scratch must each be three contiguous component planes
    (fields._payload's layout); their flat views are taken without a copy,
    so any other layout raises ValueError.  Per axis the neighbor sum is one
    contiguous add over the flat planes at offsets +-stride (in out for the
    first axis, in scratch after it), whose wrapped end cells are then
    overwritten by their one present neighbor.  -dE/dn of the discrete
    energy is H - (D + a) n, D the sum of 1/h^2 over the present neighbors
    (the Laplacian's diagonal and its free-edge rule), and n x n = 0, so
    n x H is the Landau-Lifshitz field -n x dE/dn up to rounding.
    """
    h0 = grid.spacing[0]
    axes = (grid.p,) + tuple(range(grid.p))  # np.moveaxis(x, -1, 0), at less cost
    flat_v, flat_o, flat_s = (np.reshape(x.transpose(axes), -1, copy=False)
                              for x in (values, out, scratch))
    for axis, h in enumerate(grid.spacing):
        at = _along(axis, grid.p)
        buf, flat = (out, flat_o) if axis == 0 else (scratch, flat_s)
        stride = math.prod(grid.dims[axis + 1:])
        np.add(flat_v[2 * stride:], flat_v[:-2 * stride], out=flat[stride:-stride])
        buf[at(0)], buf[at(-1)] = values[at(1)], values[at(-2)]
        if h != h0:
            np.multiply(flat, (h0 / h) ** 2, out=flat)
        if axis:
            np.add(flat_o, flat_s, out=flat_o)
    np.multiply(values[..., 2], a * h0 ** 2, out=scratch[..., 2])
    np.add(out[..., 2], scratch[..., 2], out=out[..., 2])
    return out


def _renormalize(values, planes):
    """Divide each vector in place by sqrt(v0*v0 + v1*v1 + v2*v2), summed in
    that order (np.linalg.norm's), so the result is bit-identical to it."""
    s, t = planes
    np.sqrt(_dot3(values, values, s, t), out=s)
    for c in range(3):
        np.divide(values[..., c], s, out=values[..., c])
    return values


def step(n, cfg, work=None):
    """Advance dn/dt = n x H one time step and return the new field, laid
    out like n.values.  A dt beyond RK4's stability limit dt*rho = 2*sqrt(2),
    or beyond dt*rho = 2 for the midpoint, whose fixed point contracts by
    about dt*rho/2 per iteration, raises ValueError before any work.

    Each stage evaluates n x (h0^2 H) from _effective_field and carries the
    exchange weight 1/h0^2 in its weight: tau = dt/h0^2 stands in for dt in
    RK4 and in the midpoint update.  The midpoint renormalizes y + n_k, not
    its half, which gives the same bits, since halving is exact and cancels
    in the norm's squares, sum, sqrt and division.

    Every effective field, cross product and renormalization writes into
    work, a _Workspace for fields with n's grid and decay, built
    for this call when None.  The effective field and the stage arrays come
    from its pool and go back, except the new field's, which the field owns;
    n.values is only read.
    Every stage keeps the operation order of the allocating formulas of the
    scaled right-hand side, so the result is bit-identical to them.
    """
    y = n.values
    dt = cfg.dt
    tau = dt / n.grid.spacing[0] ** 2
    params = cfg.params
    rho = 4.0 * sum(1.0 / h ** 2 for h in n.grid.spacing) + abs(params.a)
    limit, name = ((2.0 * np.sqrt(2.0), "the RK4 stability limit 2*sqrt(2)")
                   if cfg.scheme == "rk4_project" else
                   (2.0, "the midpoint contraction limit 2"))
    if dt * rho > limit:
        raise ValueError(f"dt*rho = {dt * rho:.4g} exceeds {name}; use dt <= {limit / rho:.4g}")
    work = _Workspace(n) if work is None else work
    planes, H = work.planes(2), work.take()

    def rhs(values, out):
        """out = values x (h0^2 H), zero on the frozen cells; out is the
        effective field's scratch until the cross product fills it."""
        _effective_field(values, n.grid, params.a, H, out)
        cross3(values, H, out, planes)
        for slab in work.frozen:
            out[slab] = 0.0
        return out

    if cfg.scheme == "rk4_project":
        # acc = k1 + 2 k2 + 2 k3 + k4; stage holds 2 k_i, then the next stage
        acc, k, stage = work.take(), work.take(), work.take()
        rhs(y, acc)
        np.multiply(acc, 0.5 * tau, out=stage)
        np.add(y, stage, out=stage)
        for weight in (0.5 * tau, tau):
            rhs(stage, k)
            np.multiply(k, 2.0, out=stage)
            np.add(acc, stage, out=acc)
            np.multiply(k, weight, out=stage)
            np.add(y, stage, out=stage)
        rhs(stage, k)
        np.add(acc, k, out=acc)
        np.multiply(acc, tau / 6.0, out=acc)
        out = _renormalize(np.add(y, acc, out=acc), planes)
        work.pool += [H, k, stage]
    else:
        out, mid, f = work.take(), work.take(), work.take()
        np.copyto(out, y)
        for iteration in range(50):
            _renormalize(np.add(y, out, out=mid), planes)
            rhs(mid, f)
            np.multiply(f, tau, out=f)
            np.add(y, f, out=f)
            delta = np.abs(np.subtract(f, out, out=mid), out=mid).max()
            if not np.isfinite(delta):
                raise ConvergenceError(
                    f"implicit midpoint update went non-finite ({delta}) "
                    f"at iteration {iteration + 1}",
                    iterations=iteration + 1,
                )
            out, f = f, out
            if delta < 1e-12:
                break
        else:
            raise ConvergenceError(
                f"implicit midpoint did not converge in 50 iterations "
                f"(last update {delta:.3e})",
                iterations=50,
            )
        work.pool += [H, mid, f]
    return n.with_values(out, check=False)


def make_report(n, t, params=EnergyParams(), work=None):
    """Assemble the diagnostics bundle; entries that need decay or a
    particular dimension are None when unavailable.

    Every grid-sized temporary comes from work, a workspace for n's grid
    (built for this call when None): energy and moments borrow field arrays
    from its pool and hand them back, and N and the norm deviation are
    summed on two planes of one more.  The entries are bit-identical to
    those of energy, moments, momentum_N and norm_deviation.
    """
    work = _Workspace(n) if work is None else work
    e_val = energy(n, params, work) if n.decaying else None
    deg, P, L = momenta.moments(n, work) if n.grid.p >= 2 and n.decaying else (None,) * 3
    buf = work.take()
    planes = _c_view(buf, (2,) + n.grid.dims)
    report = momenta.MomentumReport(
        t=float(t),
        energy=e_val,
        N=momenta.momentum_N(n, out=planes[0]),
        P=P,
        L=L,
        deg=deg,
        norm_dev=n.norm_deviation(planes),
    )
    work.pool.append(buf)
    return report


def simulate(n0, cfg, report_sink=None):
    """Run cfg.steps steps from n0 (which is only read); returns the reports
    and the final field.

    Reports are emitted at t=0, every cfg.report_every steps, and at the end;
    each is passed to report_sink as it appears.  Aborts with the step index
    if any value goes non-finite.

    The steps run in one workspace, and each stepped field's array goes back
    to the workspace's pool once the next step is taken.  Each report reads
    the field being stepped and writes into the same workspace.
    """
    reports = []
    n = n0
    work = _Workspace(n)

    def report(n, t):
        reports.append(make_report(n, t, cfg.params, work))
        if report_sink is not None:
            report_sink(reports[-1])

    report(n, 0.0)
    for i in range(1, cfg.steps + 1):
        new = step(n, cfg, work)
        if n is not n0:
            work.pool.append(n.values)
        n = new
        if not np.isfinite(n.values).all():
            raise NumericsError(f"non-finite field values at step {i}")
        if i % cfg.report_every == 0 or i == cfg.steps:
            report(n, i * cfg.dt)
    return reports, n

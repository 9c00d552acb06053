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
midpoint taken at the renormalized average (McLachlan, Modin & Verdier,
Phys. Rev. E 89 (2014) 061301): it is symplectic on the product of
spheres, keeps |n| and N exact to solver tolerance, and conserves E
nearly.  Its fixed point is solved by a two-step sweep with fixed
coefficients (second-order Richardson, or Chebyshev iteration on the
segment i[-r, r] near which a sweep's spectrum lies, r = dt*rho/2; Golub &
Varga, Numer. Math. 3 (1961) 147): it took at most 31 sweeps at every
dt*rho <= 2 on the fields of the tests.  step still refuses a midpoint
dt*rho > 2.  The sweep would converge beyond it, but the work per unit
time barely falls while the error grows: a 64^2 soliton run to t = 0.5
took 1088, 896 and 826 effective fields at dt*rho = 1, 2 and 4, and ended
3.6e-3, 9.4e-3 and 1.9e-2 (max abs) from a run at dt*rho = 1/16.

Stepping and reporting write in place into a workspace (fields._Workspace):
a pool of spare field arrays for the stages, the effective field, the
derivatives and the energy differences, scratch planes, and the stepper's
axis-0 slabs with their frozen boundary cells.  step, energy and
make_report build one per call unless they are given one; simulate
builds one per run, hands each field's array
back to its pool once the step after it is taken (n0's excepted: it is
only read) and passes it to every report, so after the first report
neither a step nor a report allocates a grid-sized array.  Every field is
component-major (fields._payload), and every field buffer is laid out
like it (np.empty_like), so the per-component passes of the effective
field, the cross product and the renormalization stream contiguous
planes.  Neighbors are flat offsets, as in every stencil of calculus: each
axis's neighbor sum is one add over the flat planes at +-stride that
grid._flat views, and energy is the one stencil left on slices, since it
sums each axis's differences as one compact block and that order pins
E's bits.  Every value is computed elementwise with the operation order
of the textbook allocating formulas of the scaled right-hand side (np.pad
neighbor sums, the componentwise cross product, np.linalg.norm, the
weights tau; the oracle in tests/allocating_stepper.py), so the stepped
fields are bit-identical to theirs, and every sum runs over contiguous
planes in memory order.  They are not bit-identical to the stages of the
unscaled n x H, from which they differ in the last bits unless h0^2 is a
power of two.

A step runs over the workspace's axis-0 slabs: two on a grid of at least
fields.SLAB_CELLS cells when two CPUs are available, else one, run inline.
Each RK4 stage and each midpoint iteration is one phase in which every
slab builds the effective field, the cross product, the frozen zeros and
the stage's updates on its own rows, reading its neighbors' rows of the
phase before; the phases are joined.  Since each value is still computed
elementwise in the same order, the stepped fields are the same bits on
any number of slabs, and so on any number of cores.  Reports run on one
thread.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericsError
from .fields import _c_view, _dot3, _Workspace
from .calculus import cross3, integrate
from .grid import _along, _flat
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
    """E = 1/2 int |grad n|^2 + a/2 int (n.n - (n.k)^2), the anisotropy
    density summed as n_x^2 + n_y^2.

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
    # n.n - (n.k)^2 = n_x^2 + n_y^2, K_AXIS being e_z; the difference would
    # cancel near the vacuum n = -k
    s, t = _c_view(buf, (2,) + grid.dims)
    np.multiply(values[..., 0], values[..., 0], out=s)
    np.add(s, np.multiply(values[..., 1], values[..., 1], out=t), out=s)
    aniso = 0.5 * params.a * float(integrate(s, grid))
    work.pool.append(buf)
    return exch + aniso


def _effective_field(values, grid, a, out, scratch, rows=slice(None)):
    """out = h0^2 H = sum over axes of (h0/h)^2 (n[i+1] + n[i-1]) + a h0^2 n_z k,
    h0 = grid.spacing[0] and a missing neighbor left out, built in place on
    the axis-0 rows `rows` (all by default) and returned; scratch is a field
    array it overwrites on those rows.  Only the first axis's sum reads
    values outside them, on the row next to each end.  K_AXIS is e_z, so the
    anisotropy term adds to the z component only.  The exchange weight 1/h0^2
    is left to the caller (step folds it into its stage weights), so no pass
    divides, and only an axis whose spacing differs from h0 multiplies.

    values, out and scratch must each be three contiguous component planes
    (fields._payload's layout), which grid._flat views as flat planes
    without a copy, and any other layout raises ValueError.  Per axis the
    neighbor sum is one add over the flat planes at offsets +-stride, the
    axis's flat stride (in out for the first axis, in scratch after it,
    where a slab's rows are a contiguous run of each flat plane), whose
    wrapped end cells are then overwritten by their one present neighbor.
    -dE/dn of the discrete energy is H - (D + a) n, D the sum of 1/h^2 over
    the present neighbors (the Laplacian's diagonal and its free-edge rule),
    and n x n = 0, so n x H is the Landau-Lifshitz field -n x dE/dn up to
    rounding.
    """
    h0, d0 = grid.spacing[0], grid.dims[0]
    lo, hi, _ = rows.indices(d0)
    (fv, fo, fs), strides = _flat(grid.p, values, out, scratch)
    stride = strides[0]
    if stride * d0 != fv.shape[1] or not all(x.flags.c_contiguous for x in (fv, fo, fs)):
        raise ValueError("values, out and scratch must be component planes, viewed without a copy")
    i0, i1 = max(lo, 1) * stride, min(hi, d0 - 1) * stride  # the cells of rows with both neighbors
    np.add(fv[:, i0 + stride:i1 + stride], fv[:, i0 - stride:i1 - stride], out=fo[:, i0:i1])
    # each end row's one neighbor, where the rows hold it (else the slices are empty)
    out[lo:1], out[max(lo, d0 - 1):hi] = values[1:2], values[-2:-1]
    v, o, s = values[lo:hi], out[lo:hi], scratch[lo:hi]  # every other axis stays in the rows
    fv, fo, fs = [x[:, lo * stride:hi * stride] for x in (fv, fo, fs)]
    for axis, h in enumerate(grid.spacing[1:], 1):
        at, stride = _along(axis, grid.p), strides[axis]
        np.add(fv[:, 2 * stride:], fv[:, :-2 * stride], out=fs[:, stride:-stride])
        s[at(0)], s[at(-1)] = v[at(1)], v[at(-2)]
        if h != h0:
            np.multiply(fs, (h0 / h) ** 2, out=fs)
        np.add(fo, fs, out=fo)
    np.multiply(v[..., 2], a * h0 ** 2, out=s[..., 2])
    np.add(o[..., 2], s[..., 2], out=o[..., 2])
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
    or beyond dt*rho = 2 for the midpoint, raises ValueError before any
    work.  The midpoint's sweep would still converge beyond 2, but the work
    per unit time barely falls there while the error grows, so 2 stays its
    cap.

    Each stage evaluates n x (h0^2 H) from _effective_field and carries the
    exchange weight 1/h0^2 in its weight: tau = dt/h0^2 stands in for dt in
    RK4 and in the midpoint update.  The midpoint renormalizes y + n_k, not
    its half, which gives the same bits, since halving is exact and cancels
    in the norm's squares, sum, sqrt and division.

    Every effective field, cross product and renormalization writes into
    work, a _Workspace for fields with n's grid and decay, built for this
    call (and its threads shut down on return) when None.  The effective
    field and the stage arrays come from its pool and go back, except the
    new field's, which the field owns; n.values is only read.

    Each RK4 stage, and each midpoint iteration, is one phase that work.run
    runs on every axis-0 slab of work and joins: a slab writes its own rows
    only and reads its neighbors' rows of the phase before.  So a stage
    reads one array and writes the next stage into another, alternating
    between stage and k (a slab's H holds 2 k_i once the cross product has
    read it), and a midpoint sweep writes the next iterate over G of the
    current one and the next iterate's average, renormalized, over the
    iterate before the current one; the update maxima of the slabs are
    combined by np.maximum, which keeps a NaN.  Every value keeps
    the operation order of the allocating formulas of the scaled right-hand
    side, so the result is bit-identical to them for any slab count.
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
    own = work is None
    work = _Workspace(n) if own else work
    planes, H = work.planes(2), work.take()
    slabs = [(rows, [p[rows] for p in planes], frozen) for rows, frozen in work.slabs]

    def rhs(values, out, rows, planes, frozen):
        """out = values x (h0^2 H) on the axis-0 rows `rows`, zero on their
        frozen cells, and that slab of out returned; out is the effective
        field's scratch until the cross product fills it."""
        _effective_field(values, n.grid, params.a, H, out, rows)
        slab = cross3(values[rows], H[rows], out[rows], planes)
        for index in frozen:
            out[index] = 0.0
        return slab

    try:
        new = (_rk4(y, tau, rhs, H, work, slabs) if cfg.scheme == "rk4_project" else
               _midpoint(y, tau, dt * rho / 2.0, rhs, H, work, slabs))
        return n.with_values(new, check=False)
    finally:
        work.pool.append(H)
        if own:
            work.close()


def _rk4(y, tau, rhs, H, work, slabs):
    """Projected classical RK4 in four phases; returns the new field's array."""
    # acc = k1 + 2 k2 + 2 k3 + k4
    acc, k, stage = work.take(), work.take(), work.take()

    def first(rows, planes, frozen):
        k1, s = rhs(y, acc, rows, planes, frozen), stage[rows]
        np.multiply(k1, 0.5 * tau, out=s)
        np.add(y[rows], s, out=s)

    def middle(weight, src, dst):
        def phase(rows, planes, frozen):
            ki, twice, total = rhs(src, dst, rows, planes, frozen), H[rows], acc[rows]
            np.multiply(ki, 2.0, out=twice)
            np.add(total, twice, out=total)
            np.multiply(ki, weight, out=ki)
            np.add(y[rows], ki, out=ki)
        return phase

    def last(rows, planes, frozen):
        k4, total = rhs(stage, k, rows, planes, frozen), acc[rows]
        np.add(total, k4, out=total)
        np.multiply(total, tau / 6.0, out=total)
        _renormalize(np.add(y[rows], total, out=total), planes)

    for phase in (first, middle(0.5 * tau, stage, k), middle(tau, k, stage), last):
        work.run(phase, slabs)
    work.pool += [k, stage]
    return acc


def _midpoint(y, tau, r, rhs, H, work, slabs):
    """The spherical midpoint's fixed point x = G(x) = y + tau rhs(y + x),
    rhs read at the renormalized average, one phase per sweep; returns the
    new field's array.

    A sweep is a precession, so the spectrum of its linearization lies near
    the imaginary segment i[-r, r], r = dt*rho/2, on which the plain sweep
    x_{k+1} = G(x_k) contracts by about r.  Every sweep after the first
    (plain: there is no x_{-1}) is instead the two-step
    x_{k+1} = G(x_k) + q^2 (x_{k-1} - G(x_k)), q = r / (1 + sqrt(1 + r^2)),
    the best stationary two-step iteration for that segment, which
    contracts by q: 0.236 at r = 0.5, 0.414 at r = 1.  The fixed point is
    the same; the solve stops once |G(x_k) - x_k| < 1e-12 and returns
    x_{k+1}, raises ConvergenceError after 50 sweeps, and stops at the
    first non-finite update.

    Four field arrays hold x_{k-1}, x_k, the average and G(x_k).  A phase
    writes G(x_k), then x_{k+1} over it, and then the next average over
    x_{k-1}, which only its own rows read; the average it reads, its
    neighbors' rows included, it leaves alone.
    """
    q = r / (1.0 + math.sqrt(1.0 + r * r))
    q2 = q * q
    prev, out, mid, f = work.take(), work.take(), work.take(), work.take()
    np.copyto(out, y)
    _renormalize(np.add(y, out, out=mid), work.planes(2))
    for iteration in range(50):
        def phase(rows, planes, frozen, prev=prev, out=out, mid=mid, f=f, first=iteration == 0):
            new, yr, old, d = rhs(mid, f, rows, planes, frozen), y[rows], out[rows], H[rows]
            np.multiply(new, tau, out=new)
            np.add(yr, new, out=new)
            delta = np.abs(np.subtract(new, old, out=d), out=d).max()
            if math.isfinite(delta):  # else it raises below
                before = prev[rows]
                if not first:
                    np.subtract(before, new, out=before)
                    np.multiply(before, q2, out=before)
                    np.add(new, before, out=new)
                _renormalize(np.add(yr, new, out=before), planes)
            return delta

        delta = np.maximum.reduce(work.run(phase, slabs))  # keeps a NaN, as max would not
        if not math.isfinite(delta):
            raise ConvergenceError(
                f"implicit midpoint update went non-finite ({delta}) "
                f"at iteration {iteration + 1}",
                iterations=iteration + 1,
            )
        prev, out, mid, f = out, f, prev, mid
        if delta < 1e-12:
            break
    else:
        raise ConvergenceError(
            f"implicit midpoint did not converge in 50 iterations "
            f"(last update {delta:.3e})",
            iterations=50,
        )
    work.pool += [prev, mid, f]
    return out


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
    the field being stepped and writes into the same workspace.  The
    workspace's slab threads, if a step started them, are shut down before
    simulate returns or raises.
    """
    reports = []
    n = n0
    work = _Workspace(n)

    def report(n, t):
        reports.append(make_report(n, t, cfg.params, work))
        if report_sink is not None:
            report_sink(reports[-1])

    try:
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
    finally:
        work.close()
    return reports, n

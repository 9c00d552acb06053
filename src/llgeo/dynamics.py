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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NumericsError
from .fields import K_AXIS, SpinField
from .calculus import cross3, integrate
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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.scheme not in ("rk4_project", "midpoint"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.report_every < 1:
            raise ValueError("report_every must be at least 1")


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
    exch = 0.0
    for axis in range(grid.p):
        d = _neighbor_diffs(n.values, grid, axis)
        exch += 0.5 * float((d * d).sum()) * grid.cell_volume
    kdot = n.values @ K_AXIS
    aniso_dens = (n.values * n.values).sum(axis=-1) - kdot * kdot
    aniso = 0.5 * params.a * float(integrate(aniso_dens, grid))
    return exch + aniso


def _free_laplacian(values, grid):
    """Sum over axes of second differences with missing neighbors dropped;
    exactly the gradient of the neighbor-difference exchange sum."""
    out = np.zeros_like(values)
    for axis in range(grid.p):
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 1)
        padded = np.pad(_neighbor_diffs(values, grid, axis), pad)
        out += np.diff(padded, axis=axis) / grid.spacing[axis]
    return out


def variational_derivative_energy(n, params=EnergyParams()):
    """dE/dn = -(discrete Laplacian of n) + a (n - (n.k) k), unprojected.

    The normal component is irrelevant to the dynamics: the cross product in
    the evolution law annihilates it.
    """
    kdot = n.values @ K_AXIS
    return -_free_laplacian(n.values, n.grid) + params.a * (
        n.values - kdot[..., None] * K_AXIS
    )


def ll_rhs(n, params=EnergyParams()):
    """Right-hand side -n x dE/dn; tangent to n cellwise."""
    return -cross3(n.values, variational_derivative_energy(n, params))


def _freeze_mask(n):
    """Cells held fixed during stepping: the boundary layer of decaying
    fields (the reduction's boundary condition).  Non-decaying fields evolve
    everywhere."""
    if n.decaying:
        return n.grid.boundary_mask()
    return None


def _masked_rhs_func(n, params):
    mask = _freeze_mask(n)
    template = n

    def rhs(values):
        f = ll_rhs(template.with_values(values, check=False), params)
        if mask is not None:
            f[mask] = 0.0
        return f

    return rhs


def _renormalize(values):
    return values / np.linalg.norm(values, axis=-1, keepdims=True)


def step(n, cfg):
    """Advance one time step and return the new field; an RK4 dt beyond
    dt*rho = 2*sqrt(2) raises ValueError."""
    rhs = _masked_rhs_func(n, cfg.params)
    y = np.array(n.values)
    dt = cfg.dt
    if cfg.scheme == "rk4_project":
        rho = 4.0 * sum(1.0 / h ** 2 for h in n.grid.spacing) + abs(cfg.params.a)
        if dt * rho > 2.0 * np.sqrt(2.0):
            raise ValueError(f"dt*rho = {dt * rho:.4g} exceeds the RK4 stability limit "
                             f"2*sqrt(2); use dt <= {2.0 * np.sqrt(2.0) / rho:.4g}")
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        out = _renormalize(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    else:
        out = y.copy()
        for iteration in range(50):
            mid = _renormalize(0.5 * (y + out))
            new = y + dt * rhs(mid)
            delta = np.abs(new - out).max()
            out = new
            if delta < 1e-12:
                break
        else:
            raise ConvergenceError(
                f"implicit midpoint did not converge in 50 iterations "
                f"(last update {delta:.3e})",
                iterations=50,
            )
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


def simulate(n0, cfg, report_sink=None, snapshot_sink=None):
    """Run cfg.steps steps from n0.

    Reports are emitted at t=0, every cfg.report_every steps, and at the end;
    each is passed to report_sink as it appears.  The final field goes to
    snapshot_sink.  Aborts with the step index if any value goes non-finite.
    """
    reports = [make_report(n0, 0.0, cfg.params)]
    if report_sink is not None:
        report_sink(reports[0])
    n = n0
    for i in range(1, cfg.steps + 1):
        n = step(n, cfg)
        if not np.isfinite(n.values).all():
            raise NumericsError(f"non-finite field values at step {i}")
        if i % cfg.report_every == 0 or i == cfg.steps:
            rep = make_report(n, i * cfg.dt, cfg.params)
            reports.append(rep)
            if report_sink is not None:
                report_sink(rep)
    if snapshot_sink is not None:
        snapshot_sink(n)
    return reports, n

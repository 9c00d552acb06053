"""Analytic initial conditions: constants, degree-m solitons, radial test
fields, gauge rotation fields and seeded random smooth fields."""

import numpy as np

from .fields import K_AXIS, RotationField, SpinField
from .grid import BOUNDARY_LAYER
from .calculus import so3_exp


def make_constant(grid, v):
    """Uniform field n(x) = v.  Anything but v = -k is flagged non-decaying
    and excluded from the diagnostics that need decay."""
    v = np.asarray(v, float)
    if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError("v must be a unit 3-vector")
    values = np.broadcast_to(v, grid.dims + (3,)).copy()
    decaying = bool((v == -K_AXIS).all())
    return SpinField(grid, values, decaying=decaying)


def _cutoff_blend(t):
    """C^1 cosine ramp: 0 at t<=0, 1 at t>=1."""
    t = np.clip(t, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * t))


def bump(r2):
    """Smooth compactly supported bump exp(1 - 1/(1 - r2)) of the squared
    scaled radius r2: 1 at the centre, identically 0 for r2 >= 1."""
    return np.where(r2 < 1.0, np.exp(1.0 - 1.0 / np.clip(1.0 - r2, 1e-12, None)), 0.0)


def make_bp_soliton(grid, m, lam, cutoff_radius, center=None):
    """Degree-m soliton: inverse stereographic image of w = ((x+iy)/lam)^m,
    blended to the constant -k over [cutoff-lam, cutoff].

    The blend pushes the polar angle to pi along meridians, which never
    crosses +k, so the winding survives the truncation.  m < 0 conjugates w.
    `center` shifts the soliton; the construction is translation-covariant.
    """
    if grid.p != 2:
        raise ValueError("soliton construction needs p = 2")
    m = int(m)
    lam = float(lam)
    cutoff = float(cutoff_radius)
    if m != 0 and not 0 < lam < cutoff:
        raise ValueError("need 0 < lambda < cutoff_radius")
    center = np.zeros(2) if center is None else np.asarray(center, float)
    margin = (BOUNDARY_LAYER + 2) * max(grid.spacing)
    half = min(grid.half_widths())
    if m != 0 and cutoff + float(np.abs(center).max()) > half - margin:
        raise ValueError(
            f"cutoff {cutoff} too close to the box edge (needs {margin:g} of exact vacuum)"
        )

    if m == 0:
        return make_constant(grid, -K_AXIS)

    xy = grid.coords() - center
    z = (xy[..., 0] + 1j * xy[..., 1]) / lam
    w = z ** m if m > 0 else np.conj(z) ** (-m)
    r = np.abs(xy[..., 0] + 1j * xy[..., 1])

    # inverse stereographic projection from the south pole: w=0 -> +k, w=inf -> -k
    absw2 = np.abs(w) ** 2
    n = np.empty(grid.dims + (3,))
    n[..., 0] = 2.0 * w.real / (1.0 + absw2)
    n[..., 1] = 2.0 * w.imag / (1.0 + absw2)
    n[..., 2] = (1.0 - absw2) / (1.0 + absw2)

    # push polar angle (from +k) to pi inside the blend annulus
    theta = np.arccos(np.clip(n[..., 2], -1.0, 1.0))
    phi = np.arctan2(n[..., 1], n[..., 0])
    s = _cutoff_blend((r - (cutoff - lam)) / lam)
    theta = theta + s * (np.pi - theta)
    n[..., 0] = np.sin(theta) * np.cos(phi)
    n[..., 1] = np.sin(theta) * np.sin(phi)
    n[..., 2] = np.cos(theta)
    n[r >= cutoff] = -K_AXIS
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return SpinField(grid, n)


def make_radial_profile(grid, profile):
    """Field depending on |x| only and lying in the fixed x-z plane through -k:
    n(r) = (sin w(r), 0, -cos w(r)) for the given angle profile w.

    profile must vanish identically outside a radius that clears the boundary
    layer, and must accept numpy arrays.
    """
    r = grid.radius()
    omega = np.asarray(profile(r), float)
    if omega.shape != grid.dims:
        raise ValueError("profile must map radii to scalars elementwise")
    if not np.isfinite(omega).all():
        raise ValueError("profile produced non-finite angles")
    n = np.zeros(grid.dims + (3,))
    n[..., 0] = np.sin(omega)
    n[..., 2] = -np.cos(omega)
    return SpinField(grid, n)


def make_gauge_field(grid, alpha):
    """Rotation field A(x) = exp(alpha(x) hat(k)): rotation about k by alpha.

    For p >= 2 alpha must sit at one common multiple of 2*pi on the whole
    boundary layer; for p = 1 the two ends may sit at distinct multiples,
    which is exactly the winding case the invariance checks exercise.
    """
    alpha = np.asarray(alpha, float)
    if alpha.shape != grid.dims:
        raise ValueError("alpha must be a scalar field on the grid")
    mask = grid.boundary_mask()
    edge = alpha[mask] / (2.0 * np.pi)
    if np.abs(edge - np.round(edge)).max() > 1e-9:
        raise ValueError("alpha must be a multiple of 2*pi on the boundary layer")
    if grid.p >= 2 and np.round(edge).max() != np.round(edge).min():
        raise ValueError(
            "for p >= 2 alpha must take a single 2*pi multiple on the boundary layer"
        )
    values = so3_exp(alpha[..., None] * K_AXIS)
    return RotationField(grid, values)


def make_random_smooth(grid, seed, amplitude=1.0, modes=3, support=0.75):
    """Seeded band-limited degree-0 test field.

    Polar angle from -k is amplitude * envelope * (random low-mode cosines),
    azimuth another random low-mode combination.  The envelope vanishes
    outside `support` times the half-width, so the far field is exactly -k,
    and the polar angle stays below pi, so +k is never hit and the degree
    is zero.
    """
    rng = np.random.default_rng(seed)
    x = grid.coords()
    half = np.array(grid.half_widths())
    u = x / half  # normalized to [-1, 1] per axis

    def band_limited():
        out = np.zeros(grid.dims)
        for _ in range(modes):
            kvec = rng.integers(1, 4, size=grid.p)
            phase = rng.uniform(0, 2 * np.pi, size=grid.p)
            term = np.ones(grid.dims)
            for i in range(grid.p):
                term = term * np.cos(np.pi * kvec[i] * u[..., i] + phase[i])
            out += rng.uniform(0.3, 1.0) * term
        return out / modes

    envelope = bump((u ** 2).sum(axis=-1) / support ** 2)

    raw = band_limited()
    theta = amplitude * envelope * raw / max(np.abs(raw).max(), 1e-12)
    theta = np.clip(theta, -2.6, 2.6)
    chi = np.pi * band_limited()

    n = np.zeros(grid.dims + (3,))
    n[..., 0] = np.sin(theta) * np.cos(chi)
    n[..., 1] = np.sin(theta) * np.sin(chi)
    n[..., 2] = -np.cos(theta)
    return SpinField(grid, n)


def rotate_about_k(n, angle):
    """Apply the uniform internal rotation exp(angle hat(k)) to a spin field."""
    rot = so3_exp(angle * K_AXIS)
    return n.with_values(n.values @ rot.T)


def make_gauge_bump_alpha(grid, winding=1, support=0.6):
    """Convenience scalar field for gauge tests.

    p = 1: a smooth ramp from 0 to winding * 2*pi across the line, flat near
    both ends.  p >= 2: a compactly supported 2*pi * winding bump.
    """
    x = grid.coords()
    half = np.array(grid.half_widths())
    if grid.p == 1:
        t = np.clip((x[..., 0] / half[0] + support) / (2 * support), 0.0, 1.0)
        return 2.0 * np.pi * winding * _cutoff_blend(t)
    return 2.0 * np.pi * winding * bump(((x / half) ** 2).sum(axis=-1) / support ** 2)

import numpy as np
import pytest

from llgeo import (
    Grid,
    RotationField,
    make_bp_soliton,
    make_random_smooth,
    so3_exp,
)
from llgeo.generators import bump


def relative_gap(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    scale = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-300)
    return float(np.linalg.norm((a - b).ravel()) / scale)


def smooth_scalar(grid, rng, modes=3):
    """Band-limited scalar test field on [-1,1]^p coordinates."""
    half = np.array(grid.half_widths())
    u = grid.coords() / half
    out = np.zeros(grid.dims)
    for _ in range(modes):
        k = rng.integers(1, 4, size=grid.p)
        phase = rng.uniform(0, 2 * np.pi, size=grid.p)
        term = np.ones(grid.dims)
        for i in range(grid.p):
            term = term * np.cos(np.pi * k[i] * u[..., i] + phase[i])
        out += rng.uniform(0.3, 1.0) * term
    return out / modes


def interior(grid, depth):
    """Mask of the cells at least `depth` cells away from every face."""
    mask = np.zeros(grid.dims, dtype=bool)
    mask[tuple(slice(depth, d - depth) for d in grid.dims)] = True
    return mask


def bump_envelope(grid, support=0.7):
    half = np.array(grid.half_widths())
    u = grid.coords() / half
    return bump((u ** 2).sum(axis=-1) / support ** 2)


def random_rotation_field(grid, seed, amplitude=0.8):
    """Smooth rotation field, identity on the boundary layer."""
    rng = np.random.default_rng(seed)
    env = bump_envelope(grid)
    vec = np.stack(
        [amplitude * env * smooth_scalar(grid, rng) for _ in range(3)], axis=-1
    )
    return RotationField(grid, so3_exp(vec))


@pytest.fixture(scope="session")
def bp_m1_96():
    return make_bp_soliton(Grid.centered((96, 96), 16.0), 1, 1.5, 6.0)


@pytest.fixture(scope="session")
def bp_m2_96():
    return make_bp_soliton(Grid.centered((96, 96), 16.0), 2, 1.5, 6.0)


@pytest.fixture(scope="session")
def smooth_128():
    return make_random_smooth(Grid.centered((128, 128), 16.0), seed=7, amplitude=1.8)

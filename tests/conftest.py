import numpy as np
import pytest

from llgeo import (
    Grid,
    RotationField,
    SpinField,
    make_bp_soliton,
    make_random_smooth,
)
from llgeo.generators import band_limited, bump_envelope

import so3_oracle


def relative_gap(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    scale = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-300)
    return float(np.linalg.norm((a - b).ravel()) / scale)


def interior(grid, depth):
    """Mask of the cells at least `depth` cells away from every face."""
    mask = np.zeros(grid.dims, dtype=bool)
    mask[tuple(slice(depth, d - depth) for d in grid.dims)] = True
    return mask


def random_rotation_field(grid, seed, amplitude=0.8):
    """Smooth rotation field, identity on the boundary layer."""
    rng = np.random.default_rng(seed)
    env = bump_envelope(grid, 0.7)
    vec = np.stack(
        [amplitude * env * band_limited(grid, rng, 3) for _ in range(3)], axis=-1
    )
    return RotationField(grid, so3_oracle.quaternion(vec))


def off_axis_texture(grid, seed=3):
    """A random texture turned by a fixed rotation, so its far field is not
    -k: a legal spin field that is not decaying."""
    turn = so3_oracle.so3_exp(np.array([0.4, -0.3, 0.2]))
    return SpinField(grid, make_random_smooth(grid, seed).values @ turn.T, decaying=False)


@pytest.fixture(scope="session")
def bp_m1_96():
    return make_bp_soliton(Grid.centered((96, 96), 16.0), 1, 1.5, 6.0)


@pytest.fixture(scope="session")
def bp_m2_96():
    return make_bp_soliton(Grid.centered((96, 96), 16.0), 2, 1.5, 6.0)


@pytest.fixture(scope="session")
def smooth_128():
    return make_random_smooth(Grid.centered((128, 128), 16.0), seed=7, amplitude=1.8)

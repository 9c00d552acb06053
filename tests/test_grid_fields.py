import numpy as np
import pytest

from llgeo import (
    EuclideanAlgebraElement,
    Grid,
    RotationField,
    SemidirectAlgebraElement,
    SpinField,
    make_constant,
    so3_exp,
)


def test_grid_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Grid((8, 8, 8, 8), (1, 1, 1, 1), (0, 0, 0, 0))


def test_grid_rejects_small_dims_and_bad_spacing():
    with pytest.raises(ValueError):
        Grid((4, 16), (1, 1), (0, 0))
    with pytest.raises(ValueError):
        Grid((16, 16), (1, 0), (0, 0))
    with pytest.raises(ValueError):
        Grid((16, 16), (1,), (0, 0))


@pytest.mark.parametrize("spacing, origin", [
    ((1.0, float("nan")), (0.0, 0.0)),
    ((float("inf"), 1.0), (0.0, 0.0)),
    ((1.0, 1.0), (float("nan"), 0.0)),
    ((1.0, 1.0), (0.0, float("-inf"))),
])
def test_grid_rejects_non_finite_geometry(spacing, origin):
    with pytest.raises(ValueError, match="finite"):
        Grid((16, 16), spacing, origin)


def test_cell_coords_are_exact():
    g = Grid((16, 12), (0.5, 0.25), (-4.0, -1.5))
    coords = g.coords()
    assert coords.shape == (16, 12, 2)
    assert np.array_equal(coords[0, 0], [-4.0, -1.5])
    assert np.array_equal(coords[3, 5], [-4.0 + 3 * 0.5, -1.5 + 5 * 0.25])


def test_centered_grid_is_symmetric():
    g = Grid.centered((16, 16), 8.0)
    x = g.axis_coords(0)
    assert abs(x[0] + x[-1]) < 1e-15
    assert g.cell_volume == pytest.approx(0.25)
    assert g.half_widths() == (4.0, 4.0)


def test_boundary_mask_thickness():
    g = Grid.centered((10, 12), 4.0)
    mask = g.boundary_mask()
    assert mask[0, 5] and mask[1, 5] and not mask[2, 5]
    assert mask[5, 0] and mask[5, 11] and not mask[5, 5]


def test_spinfield_validates_norm_and_boundary():
    g = Grid.centered((10, 10), 4.0)
    vals = np.zeros((10, 10, 3))
    vals[..., 2] = -1.0
    SpinField(g, vals)  # vacuum passes

    bad = vals.copy()
    bad[5, 5] = (0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        SpinField(g, bad)

    tilted = vals.copy()
    tilted[0, 0] = (1.0, 0.0, 0.0)  # boundary layer cell not -k
    with pytest.raises(ValueError):
        SpinField(g, tilted)
    # same values are fine when declared non-decaying
    SpinField(g, tilted, decaying=False)


def test_spinfield_values_are_frozen():
    g = Grid.centered((10, 10), 4.0)
    f = make_constant(g, (0, 0, -1))
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_rotationfield_validation():
    g = Grid.centered((10, 10), 4.0)
    eye = np.broadcast_to(np.eye(3), (10, 10, 3, 3)).copy()
    RotationField(g, eye)

    skewed = eye.copy()
    skewed[5, 5] = np.eye(3) * 1.5
    with pytest.raises(ValueError):
        RotationField(g, skewed)

    # rotation in the interior is fine, on the boundary layer it is not
    rot = eye.copy()
    rot[5, 5] = so3_exp(np.array([0.3, 0.0, 0.0]))
    RotationField(g, rot)
    rot[0, 0] = so3_exp(np.array([0.3, 0.0, 0.0]))
    with pytest.raises(ValueError):
        RotationField(g, rot)


def test_rotationfield_rejects_nan_interior_cell():
    g = Grid.centered((10, 10), 4.0)
    values = np.broadcast_to(np.eye(3), (10, 10, 3, 3)).copy()
    values[5, 5, 0, 2] = np.nan
    with pytest.raises(ValueError, match="deviates from I by nan"):
        RotationField(g, values)


def test_reflection_is_rejected():
    g = Grid.centered((10, 10), 4.0)
    refl = np.broadcast_to(np.diag([1.0, 1.0, -1.0]), (10, 10, 3, 3)).copy()
    with pytest.raises(ValueError):
        RotationField(g, refl)


def test_euclidean_algebra_element_exact_skewness():
    e = EuclideanAlgebraElement(3, (0.3, -0.2, 0.7), (1.0, 2.0, 3.0))
    omega = e.omega
    assert np.array_equal(omega, -omega.T)
    assert omega[0, 1] == 0.3 and omega[0, 2] == -0.2 and omega[1, 2] == 0.7

    with pytest.raises(ValueError):
        EuclideanAlgebraElement(2, (0.1, 0.2), (1.0, 0.0))
    with pytest.raises(ValueError):
        EuclideanAlgebraElement.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 0))


@pytest.mark.parametrize("upper, adot", [((np.nan,), (1.0, 0.0)), ((0.0,), (0.0, np.inf))])
def test_euclidean_algebra_element_rejects_non_finite_entries(upper, adot):
    with pytest.raises(ValueError, match="must be finite"):
        EuclideanAlgebraElement(2, upper, adot)


def test_velocity_field_is_affine():
    e = EuclideanAlgebraElement(2, (1.0,), (0.5, -0.5))
    g = Grid.centered((12, 12), 6.0)
    vel = e.velocity_field(g)
    x = g.coords()
    expected = np.stack([x[..., 1] + 0.5, -x[..., 0] - 0.5], axis=-1)
    assert np.allclose(vel, expected, atol=1e-14)


def test_semidirect_element_requires_vanishing_xi():
    g = Grid.centered((12, 12), 6.0)
    e = EuclideanAlgebraElement.translation((1.0, 0.0))
    xi = np.zeros((12, 12, 3))
    SemidirectAlgebraElement(g, xi, e)
    xi_bad = xi.copy()
    xi_bad[0, 0, 0] = 1e-3
    with pytest.raises(ValueError):
        SemidirectAlgebraElement(g, xi_bad, e)

import re

import numpy as np
import pytest

from llgeo import (
    K_AXIS,
    EuclideanAlgebraElement,
    Grid,
    RotationField,
    SemidirectAlgebraElement,
    SimConfig,
    SpinField,
    make_bp_soliton,
    make_constant,
    make_radial_profile,
    make_random_smooth,
    read_snapshot,
    simulate,
    step,
    write_snapshot,
)
from llgeo.cli import _parse_algebra
from llgeo.dynamics import make_report
from llgeo.fields import _is_planar, plane_pairs
from llgeo.grid import BOUNDARY_LAYER
from llgeo.io import report_header, report_row
from llgeo.momenta import _gradients, _two_form

from conftest import coords
from so3_oracle import quaternion


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


@pytest.mark.parametrize("dims", [(8.9, 12.2), (np.float64(9.99), 16), (16, True)])
def test_grid_refuses_dims_that_are_not_ints(dims):
    # int() would truncate 8.9 to 8 and 9.99 to 9, and take True for 1
    with pytest.raises(ValueError, match="dims: must be an int"):
        Grid(dims, (1, 1), (0, 0))
    with pytest.raises(ValueError, match="dims: must be an int"):
        Grid.centered(dims, 8.0)
    # numpy integers are counts too
    for grid in (Grid((np.int64(9), np.int32(16)), (1, 1), (0, 0)),
                 Grid.centered(np.array([9, 16]), 8.0)):
        assert grid.dims == (9, 16) and all(type(d) is int for d in grid.dims)



@pytest.mark.parametrize("spacing, origin, name", [
    (("1.5", 1.0), (0.0, 0.0), "spacing"),
    ((1.5, True), (0.0, 0.0), "spacing"),
    ((1.0, 1.0), (0, "0.25"), "origin"),
    ((1.0, 1.0), (False, 0.0), "origin"),
], ids=["spacing-str", "spacing-bool", "origin-str", "origin-bool"])
def test_grid_refuses_geometry_that_is_not_real(spacing, origin, name):
    # float() read '1.5' as 1.5 and True as a spacing of 1.0
    with pytest.raises(ValueError, match=f"{name}: must be a real number"):
        Grid((16, 16), spacing, origin)
    grid = Grid((16, 16), (1, np.float64(0.5)), (np.float32(-4.0), 0))
    assert grid.spacing == (1.0, 0.5) and grid.origin == (-4.0, 0.0)
    assert all(type(v) is float for v in grid.spacing + grid.origin)


@pytest.mark.parametrize("box", [True, "8.0", (8.0, "8.0"), (8.0, False)],
                         ids=["bool", "str", "str-entry", "bool-entry"])
def test_grid_centered_refuses_a_box_that_is_not_real(box):
    # np.asarray(box, float) read True as a side of 1 and '8.0' as 8
    with pytest.raises(ValueError, match="box: must be a real number"):
        Grid.centered((16, 16), box)
    assert Grid.centered((16, 16), np.array([8, 4.0])).spacing == (0.5, 0.25)
    assert Grid.centered((16, 16), np.float32(8)).spacing == (0.5, 0.5)

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
    x = coords(g)
    assert x.shape == (16, 12, 2)
    assert np.array_equal(x[0, 0], [-4.0, -1.5])
    assert np.array_equal(x[3, 5], [-4.0 + 3 * 0.5, -1.5 + 5 * 0.25])


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


@pytest.mark.parametrize("dims", [(9,), (10, 12), (8, 11, 9)])
def test_boundary_slabs_cover_exactly_the_boundary_layer(dims):
    g = Grid(dims, (0.5,) * len(dims), (0.0,) * len(dims))
    index = np.indices(dims)
    layer = np.zeros(dims, dtype=bool)
    for axis, d in enumerate(dims):
        layer |= (index[axis] < BOUNDARY_LAYER) | (index[axis] >= d - BOUNDARY_LAYER)
    assert np.array_equal(g.boundary_mask(), layer)
    slabs = g.boundary_slabs()
    assert len(slabs) == 2 * len(dims)
    values = np.ones(dims + (3,))
    for slab in slabs:
        values[slab] = 0.0
    assert np.array_equal(values == 0.0, np.broadcast_to(layer[..., None], values.shape))


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


@pytest.mark.parametrize("cls, cell", [(SpinField, -K_AXIS),
                                       (RotationField, np.array([1.0, 0.0, 0.0, 0.0]))],
                         ids=["spin", "rotation"])
def test_check_false_adopts_the_array_and_a_checked_field_is_frozen(cls, cell):
    # both containers go through one payload rule
    g = Grid.centered((10, 10), 4.0)
    # component-major: each per-cell component in its own contiguous plane
    planes = np.empty(cell.shape + g.dims)
    values = np.moveaxis(planes, range(cell.ndim), range(-cell.ndim, 0))
    values[...] = cell
    with pytest.raises(TypeError, match="grid must be a Grid"):
        cls(g.dims, values)
    wrong = np.broadcast_to(cell, (10, 9) + cell.shape)
    shape = re.escape(f"values shape {wrong.shape} does not match grid {values.shape}")
    with pytest.raises(ValueError, match=shape):
        cls(g, wrong)
    assert cls(g, values, check=False).values is values
    checked = cls(g, values)
    assert not np.shares_memory(checked.values, values)
    assert np.array_equal(checked.values, values)
    assert checked.values.strides == values.strides  # still component-major
    with pytest.raises(ValueError, match="read-only"):
        checked.values[(0,) * values.ndim] = 0.0


def test_cell_volume_is_the_left_to_right_product_of_the_spacings():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h = tuple(float(x) for x in rng.uniform(0.01, 3.0, size=3))
        g3 = Grid((8, 8, 8), h, (0.0, 0.0, 0.0))
        assert type(g3.cell_volume) is float and g3.cell_volume == (h[0] * h[1]) * h[2]
        assert Grid((8, 9), h[:2], (0.0, 0.0)).cell_volume == h[0] * h[1]
        assert Grid((8,), h[:1], (0.0,)).cell_volume == h[0]


def _c_order_vacuum(dims):
    values = np.zeros(dims + (3,))
    values[..., 2] = -1.0
    return values


def test_spin_payload_is_copied_into_planes_unless_it_already_is_planes():
    g = Grid.centered((10, 12), 4.0)
    c_order = _c_order_vacuum(g.dims)
    checked = SpinField(g, c_order)
    assert _is_planar(checked.values) and not checked.values.flags.writeable
    assert not np.shares_memory(checked.values, c_order)
    assert np.array_equal(checked.values, c_order)
    copied = SpinField(g, c_order, check=False)
    assert _is_planar(copied.values) and copied.values.flags.writeable
    assert not np.shares_memory(copied.values, c_order)
    assert np.array_equal(copied.values, c_order)
    planes = np.moveaxis(np.moveaxis(c_order, -1, 0).copy(), 0, -1)
    assert SpinField(g, planes, check=False).values is planes
    # a window of wider planes is not three contiguous planes: it is copied
    wide = np.moveaxis(np.moveaxis(_c_order_vacuum((10, 14)), -1, 0).copy(), 0, -1)
    window = SpinField(g, wide[:, 1:13], check=False).values
    assert _is_planar(window) and not np.shares_memory(window, wide)


def _profile(r):
    return np.where(r < 1.5, np.pi * (1.0 - r / 1.5) ** 2, 0.0)


_SPIN_CONSTRUCTORS = {
    "make_constant": lambda g, f, path: make_constant(g, (0, 0, -1)),
    "make_bp_soliton": lambda g, f, path: make_bp_soliton(g, 1, 1.0, 4.0),
    "make_radial_profile": lambda g, f, path: make_radial_profile(g, _profile),
    "make_random_smooth": lambda g, f, path: f,
    "read_snapshot": lambda g, f, path: (write_snapshot(f, path), read_snapshot(path))[1],
    "with_values": lambda g, f, path: f.with_values(np.ascontiguousarray(f.values)),
    "with_values_unchecked": lambda g, f, path: f.with_values(np.ascontiguousarray(f.values),
                                                              check=False),
    "step": lambda g, f, path: step(f, SimConfig(dt=1e-3, steps=1)),
    "simulate": lambda g, f, path: simulate(f, SimConfig(dt=1e-3, steps=3))[1],
}


@pytest.mark.parametrize("name", sorted(_SPIN_CONSTRUCTORS))
def test_every_spin_constructor_gives_planes(name, tmp_path):
    g = Grid.centered((24, 28), 12.0)
    f = make_random_smooth(g, seed=2)
    n = _SPIN_CONSTRUCTORS[name](g, f, tmp_path / "f.llgf")
    assert isinstance(n, SpinField) and n.grid == g
    assert _is_planar(n.values)
    n.check_invariants()


def test_from_matrix_rejects_non_finite_asymmetry():
    # NaN fails every comparison, so a max-based skewness test lets these pass
    for omega in ([[0.0, 1.0], [np.nan, 0.0]], [[np.nan, 1.0], [-1.0, 0.0]],
                  [[0.0, 1.0], [-1.0, np.inf]], [[0.0, np.inf], [-1.0, 0.0]]):
        with pytest.raises(ValueError, match="exactly skew-symmetric"):
            EuclideanAlgebraElement.from_matrix(omega, (0, 0))
    with pytest.raises(ValueError, match="must be finite"):  # skew, but not finite
        EuclideanAlgebraElement.from_matrix([[0.0, np.inf], [-np.inf, 0.0]], (0, 0))


def test_rotationfield_validation():
    g = Grid.centered((10, 10), 4.0)
    eye = np.broadcast_to([1.0, 0.0, 0.0, 0.0], (10, 10, 4)).copy()
    RotationField(g, eye)
    RotationField(g, -eye)  # -q is the same rotation: w = -1 is the identity too

    scaled = eye.copy()
    scaled[5, 5] *= 1.5
    with pytest.raises(ValueError, match=r"\|psi\|\^2 deviates from 1 by 1\.250e\+00"):
        RotationField(g, scaled)

    # rotation in the interior is fine, on the boundary layer it is not
    rot = eye.copy()
    rot[5, 5] = quaternion(np.array([0.3, 0.0, 0.0]))
    RotationField(g, rot)
    rot[0, 0] = quaternion(np.array([0.3, 0.0, 0.0]))
    with pytest.raises(ValueError, match="identity"):
        RotationField(g, rot)
    # a vector part within ORTHO_TOL on the boundary layer is accepted
    rot[0, 0] = quaternion(np.array([0.0, 0.0, 1e-10]))
    RotationField(g, rot)


def test_rotationfield_rejects_nan_interior_cell():
    g = Grid.centered((10, 10), 4.0)
    values = np.broadcast_to([1.0, 0.0, 0.0, 0.0], (10, 10, 4)).copy()
    values[5, 5, 2] = np.nan
    with pytest.raises(ValueError, match="deviates from 1 by nan"):
        RotationField(g, values)


def test_euclidean_algebra_element_exact_skewness():
    e = EuclideanAlgebraElement(3, (0.3, -0.2, 0.7), (1.0, 2.0, 3.0))
    omega = e.omega
    assert np.array_equal(omega, -omega.T)
    assert omega[0, 1] == 0.3 and omega[0, 2] == -0.2 and omega[1, 2] == 0.7

    with pytest.raises(ValueError):
        EuclideanAlgebraElement(2, (0.1, 0.2), (1.0, 0.0))
    with pytest.raises(ValueError):
        EuclideanAlgebraElement.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 0))


@pytest.mark.parametrize("p", [2.9, 2.0, True])
def test_euclidean_algebra_element_refuses_a_dimension_that_is_not_an_int(p):
    # int(2.9) is 2: the element would silently live in so(2) x R^2
    with pytest.raises(ValueError, match="p: must be an int"):
        EuclideanAlgebraElement(p, [0.5], [1, 0])
    assert EuclideanAlgebraElement(np.int64(2), [0.5], [1, 0]).p == 2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_euclidean_algebra_element_default_rotation_is_zero(p):
    e = EuclideanAlgebraElement(p, adot=np.arange(1.0, p + 1))
    assert np.array_equal(e.omega, np.zeros((p, p)))
    assert np.array_equal(e.omega_upper, np.zeros(len(plane_pairs(p))))
    assert np.array_equal(EuclideanAlgebraElement.translation(e.adot).omega, e.omega)
    with pytest.raises(ValueError, match="read-only"):
        e.omega[0, 0] = 1.0


def test_so_p_coordinates_follow_plane_pairs():
    # the CLI's upper entries, omega_upper, the 2-form's planes and the CSV's
    # L_ij columns all read the one plane order
    pairs = plane_pairs(3)
    assert pairs == ((0, 1), (0, 2), (1, 2))
    e = _parse_algebra("e1", "1,2,3,4,5,6", 3)
    assert e.omega_upper.tolist() == [1.0, 2.0, 3.0] and e.adot.tolist() == [4.0, 5.0, 6.0]
    assert [e.omega[0, 1], e.omega[0, 2], e.omega[1, 2]] == [1.0, 2.0, 3.0]
    n = make_random_smooth(Grid.centered((16, 16, 16), 12.0), seed=1)
    assert tuple(ij for ij, _ in _two_form(n, _gradients(n))) == pairs
    rep = make_report(n, 0.0)
    row = dict(zip(report_header(3), report_row(rep, 3)))
    assert [key for key in row if key.startswith("L_")] == ["L_12", "L_13", "L_23"]
    assert [float(row[key]) for key in ("L_12", "L_13", "L_23")] == [
        rep.L[0, 1], rep.L[0, 2], rep.L[1, 2]]


@pytest.mark.parametrize("upper, adot", [((np.nan,), (1.0, 0.0)), ((0.0,), (0.0, np.inf))])
def test_euclidean_algebra_element_rejects_non_finite_entries(upper, adot):
    with pytest.raises(ValueError, match="must be finite"):
        EuclideanAlgebraElement(2, upper, adot)


def test_velocity_field_is_affine():
    e = EuclideanAlgebraElement(2, (1.0,), (0.5, -0.5))
    g = Grid.centered((12, 12), 6.0)
    vel = e.velocity_field(g)
    x = coords(g)
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

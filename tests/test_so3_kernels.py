"""The entrywise SO(3) kernels against the stacked-matrix oracle, in both
memory layouts, and the layout they return."""

import warnings

import numpy as np
import pytest

from llgeo import Grid, RotationField, lift_psi, make_random_smooth, right_gradient_axis
from llgeo.calculus import _motion, so3_exp, so3_log
from llgeo.fields import ORTHO_TOL, _planes, check_rotations

import so3_oracle
from conftest import random_rotation_field


def rotation_vectors(seed, count=600):
    """Random rotation vectors: angles over (0, pi), a block within 1e-9 of
    pi, and one zero vector."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=(count, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angles = rng.uniform(0.0, np.pi, count)
    angles[:40] = np.pi - rng.uniform(0.0, 1e-9, 40)
    v = axis * angles[:, None]
    v[40] = 0.0
    return v


def component_major(a, trailing):
    """A copy of a whose entries over the `trailing` last axes each sit in
    a contiguous plane, seen in a's shape."""
    out = np.empty(a.shape[-trailing:] + a.shape[:-trailing])
    view = np.moveaxis(out, tuple(range(trailing)), tuple(range(-trailing, 0)))
    view[...] = a
    return view


def layouts(a, trailing):
    c_order = np.array(a, order="C")
    planar = component_major(a, trailing)
    assert np.array_equal(c_order, planar)
    return {"C": c_order, "component-major": planar}


@pytest.mark.parametrize("layout", ["C", "component-major"])
def test_kernels_agree_with_the_stacked_oracle(layout):
    v = layouts(rotation_vectors(1), 1)[layout]
    w = layouts(rotation_vectors(2), 1)[layout]
    ra, rb = (layouts(so3_oracle.so3_exp(x), 2)[layout] for x in (v, w))
    assert np.abs(so3_exp(v) - so3_oracle.so3_exp(v)).max() <= 1e-15
    assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))
    assert np.abs(_motion(ra, rb) - so3_oracle.motion(ra, rb)).max() <= 1e-15
    g = Grid.centered((600,), 8.0)
    composed = RotationField(g, ra, check=False).compose(RotationField(g, rb, check=False),
                                                         check=False)
    assert np.abs(composed.values - so3_oracle.compose(ra, rb)).max() <= 1e-15
    # the obtuse and near-pi cells take the sym R branch of both logs
    assert (np.linalg.norm(v, axis=-1) > np.pi / 2).sum() > 200
    assert np.abs(so3_log(ra) - so3_oracle.so3_log(ra)).max() <= 1e-15


def test_check_rotations_reads_every_gram_entry():
    # one perturbed entry per matrix, each entry in turn: the deviation the
    # check compares is the oracle's max |R^T R - I|
    rng = np.random.default_rng(3)
    r = so3_oracle.so3_exp(rotation_vectors(3)[:9])
    for cell, (i, j) in enumerate(np.ndindex(3, 3)):
        r[cell, i, j] += rng.uniform(1e-9, 2e-9)
        for layout, stack in layouts(r[cell:cell + 1], 2).items():
            dev = so3_oracle.gram_deviation(stack)
            check_rotations(stack, 1.01 * dev, "R")
            with pytest.raises(ValueError, match="R\\^T R deviates from I"):
                check_rotations(stack, 0.99 * dev, "R")


@pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "huge"])
@pytest.mark.parametrize("layout", ["C", "component-major"])
def test_non_finite_or_huge_entry_is_rejected_without_warning(bad, layout):
    # each of the nine entries in turn; the orthogonality check names it, so
    # a NaN in a later Gram entry is not dropped when the maxima are combined
    g = Grid.centered((10, 10), 4.0)
    base = random_rotation_field(g, seed=4).values
    for entry in np.ndindex(3, 3):
        values = layouts(base, 2)[layout]
        values[(5, 6) + entry] = bad
        calls = (lambda: check_rotations(values, ORTHO_TOL, "R"),
                 lambda: so3_log(values),
                 lambda: RotationField(g, values))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"\^T \w+ deviates from I by (nan|inf)"):
                    call()


def test_right_gradient_is_bitwise_independent_of_layout():
    g = Grid.centered((10, 11, 12), 6.0)
    psi = random_rotation_field(g, seed=6, amplitude=2.5)
    copies = [RotationField(g, values) for values in layouts(psi.values, 2).values()]
    for axis in range(3):
        grads = [right_gradient_axis(copy, axis) for copy in copies]
        assert np.array_equal(grads[0], grads[1])


def test_rotation_kernels_return_contiguous_entry_planes():
    # the performance property: every rotation array llgeo makes keeps each
    # matrix entry in its own contiguous plane, and a checked copy keeps it
    g = Grid.centered((12, 13), 6.0)
    v = rotation_vectors(7, count=12 * 13).reshape(12, 13, 3)
    a, b = so3_exp(v), so3_exp(-v)
    psi = random_rotation_field(g, seed=8)
    made = {
        "so3_exp": a,
        "_motion": _motion(a, b),
        "lift_psi": lift_psi(make_random_smooth(g, seed=9)).values,
        "RotationField": psi.values,
        "compose": psi.compose(psi).values,
    }
    for name, r in made.items():
        assert _planes(r).flags.c_contiguous, name

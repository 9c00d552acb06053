"""The quaternion kernels against the stacked-matrix oracle, read through
so3_oracle.matrix(q), in both memory layouts, and the layout they return."""

import warnings

import numpy as np
import pytest

from llgeo import (
    K_AXIS,
    Grid,
    RotationField,
    lift_psi,
    make_gauge_bump_alpha,
    make_gauge_field,
    make_random_smooth,
    read_snapshot,
    right_gradient_axis,
    so3_log,
    write_snapshot,
)
from llgeo.fields import _is_planar, _motion, _vector_norm2

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
    qa, qb = (layouts(so3_oracle.quaternion(x), 1)[layout] for x in (v, w))
    ra, rb = so3_oracle.matrix(qa), so3_oracle.matrix(qb)
    assert np.abs(ra - so3_oracle.so3_exp(v)).max() <= 1e-15
    motion = so3_oracle.matrix(_motion(qa, qb))
    assert np.abs(motion - so3_oracle.motion(ra, rb)).max() <= 1e-15
    # the oracle's Hamilton product, which builds the tests' composed
    # fields, is the matrix product
    composed = so3_oracle.matrix(so3_oracle.qmul(qa, qb))
    assert np.abs(composed - so3_oracle.compose(ra, rb)).max() <= 1e-15
    # the log, near-pi block included, is the rotation vector it came from
    # and the matrix oracle's log; -q logs to the same bits as q
    assert (np.linalg.norm(v, axis=-1) > np.pi / 2).sum() > 200
    assert np.abs(so3_log(qa) - v).max() <= 4e-15
    assert np.abs(so3_log(qa) - so3_oracle.so3_log(ra)).max() <= 1e-7
    assert np.abs(so3_log(qa) - so3_oracle.so3_log(ra))[41:].max() <= 1e-14
    assert np.array_equal(so3_log(-qa), so3_log(qa))


def test_half_turns_log_to_pi_with_the_sign_of_w():
    # the lift's fallback cell (0, 1, 0, 0) and its negative both log to a
    # half turn about x; copysign keeps the sign of a zero w
    q = np.array([[0.0, 1.0, 0.0, 0.0], [-0.0, 1.0, 0.0, 0.0], [-0.0, -1.0, 0.0, 0.0],
                  [0.0, 0.0, -1.0, 0.0]])
    expected = np.pi * np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0], [0, -1.0, 0]])
    assert np.array_equal(so3_log(q), expected)
    for cell, vec in zip(q, expected):
        assert np.abs(so3_oracle.matrix(cell) - so3_oracle.so3_exp(vec)).max() <= 1e-15


def test_unit_check_reads_every_component():
    # one perturbed component per quaternion, each component in turn: the
    # deviation the check compares is | |q|^2 - 1 |
    rng = np.random.default_rng(3)
    q = rng.normal(size=(4, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    assert np.abs(q).min() > 0.05  # so each perturbation moves |q|^2 well past rounding
    for cell in range(4):
        q[cell, cell] += rng.uniform(1e-9, 2e-9)
        for layout, stack in layouts(q[cell:cell + 1], 1).items():
            dev = abs((stack ** 2).sum() - 1.0)
            _vector_norm2(stack, 1.01 * dev, "q")
            with pytest.raises(ValueError, match=r"\|q\|\^2 deviates from 1"):
                _vector_norm2(stack, 0.99 * dev, "q")


@pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "huge"])
@pytest.mark.parametrize("layout", ["C", "component-major"])
def test_non_finite_or_huge_entry_is_rejected_without_warning(bad, layout):
    # each of the four components in turn, through so3_log's check and the
    # field's; a NaN or an overflow to inf is named in the message
    g = Grid.centered((10, 10), 4.0)
    base = random_rotation_field(g, seed=4).values
    for entry in range(4):
        values = layouts(base, 1)[layout]
        values[5, 6, entry] = bad
        for call in (lambda: so3_log(values), lambda: RotationField(g, values)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"\|\w+\|\^2 deviates from 1 by (nan|inf)"):
                    call()


def test_right_gradient_is_bitwise_independent_of_layout():
    g = Grid.centered((10, 11, 12), 6.0)
    psi = random_rotation_field(g, seed=6, amplitude=2.5)
    c_order, planar = layouts(psi.values, 1).values()
    assert np.array_equal(so3_log(c_order), so3_log(planar))
    assert np.array_equal(_motion(c_order, planar[::-1]), _motion(planar, c_order[::-1]))
    copies = [RotationField(g, values, check=False) for values in (c_order, planar)]
    for axis in range(3):
        grads = [right_gradient_axis(copy, axis) for copy in copies]
        assert np.array_equal(grads[0], grads[1])


def test_rotation_kernels_return_contiguous_entry_planes(tmp_path):
    # the performance property: every quaternion array llgeo makes keeps
    # each component in its own contiguous plane, a C-order payload is
    # copied into planes, and the logs and right gradients are component
    # planes too
    g = Grid.centered((12, 13), 6.0)
    v = rotation_vectors(7, count=12 * 13).reshape(12, 13, 3)
    a, b = so3_oracle.quaternion(v), so3_oracle.quaternion(-v)
    psi = random_rotation_field(g, seed=8)
    gauge = make_gauge_field(g, make_gauge_bump_alpha(g, winding=1))
    write_snapshot(gauge, tmp_path / "a.llgf")
    made = {
        "_motion": _motion(a, b),
        "so3_log": so3_log(a),
        "lift_psi": lift_psi(make_random_smooth(g, seed=9)).values,
        "RotationField": psi.values,
        "RotationField unchecked": RotationField(g, np.ascontiguousarray(psi.values),
                                                 check=False).values,
        "make_gauge_field": gauge.values,
        "read_snapshot": read_snapshot(tmp_path / "a.llgf").values,
        **{f"right_gradient_axis {axis}": right_gradient_axis(psi, axis) for axis in range(2)},
    }
    for name, q in made.items():
        assert _is_planar(q), name


def test_lift_and_gauge_agree_with_the_matrix_oracle(bp_m1_96):
    # matrix(lift_psi(n)) k = -n, the half-turn fallback on singular cells,
    # and make_gauge_field's turn about k against the Rodrigues oracle
    g = Grid.centered((40, 40), 12.0)
    n = make_random_smooth(g, seed=0, amplitude=3.0)
    assert n.values[..., 2].max() > 0.85  # cells well past the equator
    for field in (n, bp_m1_96):
        turned = so3_oracle.matrix(lift_psi(field).values) @ K_AXIS
        assert np.abs(turned + field.values).max() <= 1e-12
    values = np.array(n.values)
    values[20, 20] = K_AXIS
    values[20, 21] = (1e-5, 0.0, np.sqrt(1.0 - 1e-10))
    psi = lift_psi(n.with_values(values))
    assert np.array_equal(psi.values[20, 20], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(psi.values[20, 21], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(so3_log(psi.values[20, 20]), [np.pi, 0.0, 0.0])
    alpha = make_gauge_bump_alpha(g, winding=1)
    gauge = so3_oracle.matrix(make_gauge_field(g, alpha).values)
    assert np.abs(gauge - so3_oracle.so3_exp(alpha[..., None] * K_AXIS)).max() <= 1e-15
    assert gauge[0, 0] == pytest.approx(np.eye(3), abs=1e-15)


@pytest.mark.parametrize("dims", [(40, 44), (256,)], ids=["p=2 bump", "p=1 winding"])
def test_gauge_move_is_one_conjugate_product(dims):
    # gauge_invariance_residual moves psi by _motion(psi, A) = psi A*, the
    # matrix oracle's motion psi A^T, without a negated copy of A
    g = Grid.centered(dims, 12.0)
    gauge = make_gauge_field(g, make_gauge_bump_alpha(g, winding=1, support=0.5))
    psi = lift_psi(make_random_smooth(g, seed=4, amplitude=1.5))
    moved = so3_oracle.matrix(_motion(psi.values, gauge.values))
    want = so3_oracle.motion(so3_oracle.matrix(psi.values), so3_oracle.matrix(gauge.values))
    assert np.abs(moved - want).max() <= 1e-15

import numpy as np
import pytest

from llgeo import (
    Grid,
    K_AXIS,
    degree,
    make_bp_soliton,
    make_constant,
    make_gauge_bump_alpha,
    make_gauge_field,
    make_radial_profile,
    make_random_smooth,
    momentum_P_general,
)

from allocating_report import density_P
from conftest import coords
from so3_oracle import matrix


def test_constant_vacuum():
    g = Grid.centered((24, 24), 8.0)
    f = make_constant(g, (0, 0, -1))
    assert f.decaying
    assert np.abs(1.0 + f.values @ K_AXIS).max() == 0.0  # N integrand vanishes
    assert degree(f) == 0.0


def test_constant_up_is_non_decaying():
    g = Grid.centered((24, 24), 8.0)
    f = make_constant(g, (0, 0, 1))
    assert not f.decaying
    assert np.all(1.0 + f.values @ K_AXIS == 2.0)
    with pytest.raises(ValueError):
        degree(f)


def test_constant_rejects_non_unit():
    g = Grid.centered((24, 24), 8.0)
    with pytest.raises(ValueError):
        make_constant(g, (0.5, 0, 0))


def test_bp_degree_richardson_near_one():
    # quadrature degree at two refinements, Richardson-extrapolated to h->0
    d64 = degree(make_bp_soliton(Grid.centered((64, 64), 20.0), 1, 1.0, 6.0))
    d128 = degree(make_bp_soliton(Grid.centered((128, 128), 20.0), 1, 1.0, 6.0))
    refined = (4.0 * d128 - d64) / 3.0
    assert 0.99 <= refined <= 1.01


def test_bp_m0_is_vacuum():
    g = Grid.centered((64, 64), 20.0)
    f = make_bp_soliton(g, 0, 1.0, 6.0)
    assert np.array_equal(f.values, make_constant(g, (0, 0, -1)).values)
    assert degree(f) == 0.0


def test_bp_m2_degree():
    f = make_bp_soliton(Grid.centered((192, 192), 20.0), 2, 1.5, 6.0)
    d = degree(f)
    assert 1.98 <= d <= 2.02


def test_bp_negative_m_flips_degree():
    g = Grid.centered((96, 96), 20.0)
    assert degree(make_bp_soliton(g, -1, 1.0, 6.0)) == pytest.approx(
        -degree(make_bp_soliton(g, 1, 1.0, 6.0)), abs=1e-14
    )


def test_bp_degree_error_first_order_or_better():
    errs = []
    for nn in (48, 96, 192):
        f = make_bp_soliton(Grid.centered((nn, nn), 20.0), 1, 1.0, 6.0)
        errs.append(abs(degree(f) - 1.0))
    assert errs[1] < errs[0] / 2.0
    assert errs[2] < errs[1] / 2.0


def test_bp_cutoff_too_close_to_edge():
    g = Grid.centered((64, 64), 20.0)
    with pytest.raises(ValueError):
        make_bp_soliton(g, 1, 1.0, 9.9)


def test_bp_invariants_and_center():
    g = Grid.centered((96, 96), 20.0)
    f = make_bp_soliton(g, 1, 1.5, 6.0, center=(2.0, -1.0))
    f.check_invariants()
    # center shift moves the +k point to the stated center
    kdot = f.values @ K_AXIS
    idx = np.unravel_index(np.argmax(kdot), kdot.shape)
    assert np.abs(coords(g)[idx] - (2.0, -1.0)).max() < g.spacing[0]


@pytest.mark.parametrize("args, name", [
    ((1.6, 1.5, 6.0), "m"),  # int() made it a degree-1 soliton
    ((True, 1.5, 6.0), "m"),
    ((1, True, 6.0), "lam"),
    ((1, 1.5, "6.0"), "cutoff_radius"),
])
def test_bp_soliton_refuses_arguments_that_are_not_numbers_of_their_kind(args, name):
    g = Grid.centered((64, 64), 16.0)
    with pytest.raises(ValueError, match=f"{name}: must be"):
        make_bp_soliton(g, *args)
    make_bp_soliton(g, np.int64(1), np.float64(1.5), 6).check_invariants()


def test_bp_soliton_refuses_a_center_without_two_entries():
    # a third entry was ignored: (0.5, -0.25, 0.1) gave the bits of (0.5, -0.25)
    g = Grid.centered((64, 64), 16.0)
    for center in ((0.5, -0.25, 0.1), (0.5,), 0.5):
        with pytest.raises(ValueError, match="center: must have two entries"):
            make_bp_soliton(g, 1, 1.5, 6.0, center=center)


def profile_bump(amplitude, radius):
    def profile(r):
        arg = 1.0 - (r / radius) ** 2
        return np.where(
            r < radius, amplitude * np.exp(1.0 - 1.0 / np.clip(arg, 1e-12, None)), 0.0
        )

    return profile


def test_radial_zero_profile_is_vacuum():
    g = Grid.centered((32, 32), 12.0)
    f = make_radial_profile(g, lambda r: np.zeros_like(r))
    assert np.array_equal(f.values, make_constant(g, (0, 0, -1)).values)


def test_radial_field_has_no_momentum_or_degree():
    g = Grid.centered((96, 96), 16.0)
    f = make_radial_profile(g, profile_bump(1.2, 5.0))
    # fixed-plane construction: the triple products vanish to roundoff
    assert abs(degree(f)) < 1e-8
    assert np.abs(momentum_P_general(f)).max() < 1e-8
    assert np.abs(density_P(f)).max() < 1e-10


def test_radial_rejects_non_finite_profile():
    g = Grid.centered((32, 32), 12.0)
    with pytest.raises(ValueError):
        make_radial_profile(g, lambda r: np.where(r < 1, np.inf, 0.0))


def test_gauge_identity_and_k_fixing():
    g = Grid.centered((48, 48), 16.0)
    A0 = make_gauge_field(g, np.zeros(g.dims))
    assert np.array_equal(A0.values, np.broadcast_to([1.0, 0.0, 0.0, 0.0], g.dims + (4,)))

    alpha = make_gauge_bump_alpha(g, winding=1)
    A = make_gauge_field(g, alpha)
    assert np.array_equal(A.values[..., 1:3], np.zeros(g.dims + (2,)))
    k_image = matrix(A.values) @ K_AXIS
    assert np.abs(k_image - K_AXIS).max() < 1e-15


def test_gauge_rejects_non_multiple_boundary():
    g = Grid.centered((48, 48), 16.0)
    with pytest.raises(ValueError):
        make_gauge_field(g, np.full(g.dims, 0.5))


def test_gauge_p2_rejects_distinct_boundary_multiples():
    g = Grid.centered((48, 48), 16.0)
    alpha = np.zeros(g.dims)
    alpha[:2, :] = 2.0 * np.pi  # one face at a different multiple
    with pytest.raises(ValueError):
        make_gauge_field(g, alpha)


def test_gauge_p1_winding_allowed():
    g = Grid.centered((128,), 16.0)
    alpha = make_gauge_bump_alpha(g, winding=1)
    A = make_gauge_field(g, alpha)
    A.check_invariants()
    assert alpha[-1] - alpha[0] == pytest.approx(2.0 * np.pi)
    # the 2pi winding turns the quaternion from w = +1 to w = -1 across the line
    assert A.values[0, 0] == pytest.approx(np.cos(alpha[0] / 2.0), abs=1e-15)
    assert A.values[-1, 0] - A.values[0, 0] == pytest.approx(-2.0, abs=1e-15)


def test_random_smooth_is_valid_and_degree_zero():
    for p, dims in ((1, (64,)), (2, (48, 48)), (3, (24, 24, 24))):
        g = Grid.centered(dims, 12.0)
        f = make_random_smooth(g, seed=3, amplitude=1.5)
        f.check_invariants()
        assert (f.values @ K_AXIS).max() < 1.0 - 1e-6  # +k never hit
        if p == 2:
            # continuum degree is exactly 0 (+k missed); quadrature noise O(h^2)
            assert abs(degree(f)) < 1e-3


def test_random_smooth_is_seeded():
    g = Grid.centered((32, 32), 12.0)
    a = make_random_smooth(g, seed=5)
    b = make_random_smooth(g, seed=5)
    c = make_random_smooth(g, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_random_smooth_names_the_grid_it_is_too_small_for():
    for n in (10, 11):
        with pytest.raises(ValueError, match=rf"grid {n}x16 is too small for support 0\.75.*"
                                             r"need at least 12 cells per axis"):
            make_random_smooth(Grid.centered((n, 16), 8.0), 0)
    make_random_smooth(Grid.centered((12, 16), 8.0), 0).check_invariants()
    # 3 / (1 - 0.8) is 15.000000000000004 in floating point; 15 cells suffice
    with pytest.raises(ValueError, match="need at least 15 cells"):
        make_random_smooth(Grid.centered((14, 16), 8.0), 0, support=0.8)
    make_random_smooth(Grid.centered((15, 16), 8.0), 0, support=0.8).check_invariants()


@pytest.mark.parametrize("modes", [0, -1, 2.5, True])
def test_random_smooth_refuses_a_mode_count_that_is_not_a_positive_int(modes):
    # unrefused, 0 would divide by zero, -1 give the vacuum and True count as 1
    with pytest.raises(ValueError, match=rf"modes: must be (a positive|an) int, got {modes!r}"):
        make_random_smooth(Grid.centered((32, 32), 12.0), seed=0, modes=modes)
    make_random_smooth(Grid.centered((32, 32), 12.0), seed=0, modes=np.int64(2)).check_invariants()


@pytest.mark.parametrize("kwargs, name", [({"amplitude": "1.0"}, "amplitude"),
                                          ({"amplitude": True}, "amplitude"),
                                          ({"support": "0.5"}, "support"),
                                          ({"support": False}, "support")],
                         ids=["amplitude-str", "amplitude-bool", "support-str", "support-bool"])
def test_random_smooth_refuses_an_amplitude_or_support_that_is_not_real(kwargs, name):
    # a string amplitude raised numpy's UFuncTypeError and a string support
    # a bare TypeError; True read as 1
    g = Grid.centered((32, 32), 12.0)
    with pytest.raises(ValueError, match=f"{name}: must be a real number"):
        make_random_smooth(g, 0, **kwargs)
    want = make_random_smooth(g, 0, amplitude=1.5, support=0.5).values
    for amplitude, support in ((np.float64(1.5), np.float64(0.5)), (np.float32(1.5), 0.5)):
        assert np.array_equal(make_random_smooth(g, 0, amplitude, support=support).values, want)

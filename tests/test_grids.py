import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parext.errors import ParextWarning
from parext.grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeGrid,
    bump_profile,
    gaussian_profile,
    lp_norm_frequency,
    _profile_moments,
    plateau_bump,
    profile_gradient_l2sq,
    smooth_bump,
    superpose,
)


# -- grid geometry ----------------------------------------------------------

def test_frequency_grid_geometry():
    g = FrequencyGrid(1, 10.0, 512)
    pts = g.axis_points()
    assert g.spacing == pytest.approx(20.0 / 512)
    assert pts[0] == pytest.approx(-10.0)
    assert pts[-1] == pytest.approx(10.0 - g.spacing)
    assert g.cell_volume == pytest.approx(g.spacing)
    assert g.shape == (512,)


def test_frequency_grid_center():
    g = FrequencyGrid(2, 4.0, 64, center=(1.0, -2.0))
    assert g.axis_points(0)[0] == pytest.approx(-3.0)
    assert g.axis_points(1)[0] == pytest.approx(-6.0)
    assert g.cell_volume == pytest.approx(g.spacing**2)


@pytest.mark.parametrize("n", [0, 1, 3, 100, -8])
def test_frequency_grid_power_of_two(n):
    with pytest.raises(ValueError):
        FrequencyGrid(1, 1.0, n)


def test_spacetime_grid_geometry():
    g = SpacetimeGrid(1, 5.0, 8.0, 11, 17)
    assert g.t_axis[0] == -5.0 and g.t_axis[-1] == 5.0
    assert g.x_axis[0] == -8.0 and g.x_axis[-1] == 8.0
    assert g.t_weights().sum() == pytest.approx(10.0)
    assert g.x_weights().sum() == pytest.approx(16.0)
    assert g.field_shape == (11, 17)


def test_profile_shape_mismatch():
    g = FrequencyGrid(1, 1.0, 8)
    with pytest.raises(ValueError):
        FrequencyProfile(g, np.zeros(7))
    with pytest.raises(ValueError):
        FrequencyProfile(g, np.full(8, np.nan))


# -- bumps ------------------------------------------------------------------

def test_smooth_bump_support():
    u = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    v = smooth_bump(u)
    assert v[2] == 1.0
    assert np.all(v[[0, 1, 4, 5]] == 0.0)
    assert v[3] >= math.exp(1.0 - 4.0 / 3.0)


def test_plateau_bump_plateau_and_support():
    u = np.linspace(-1.5, 1.5, 301)
    v = plateau_bump(u)
    assert np.all(v[np.abs(u) <= 0.5] == 1.0)
    assert np.all(v[np.abs(u) >= 1.0] == 0.0)
    ramp = v[(u > 0.5) & (u < 1.0)]
    assert np.all(np.diff(ramp) <= 1e-12)  # monotone down on the ramp
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_bump_profile_compact_support():
    g = FrequencyGrid(1, 10.0, 512)
    f = bump_profile(g, center=1.0, radius=2.0)
    pts = g.axis_points()
    assert np.all(f.samples[np.abs(pts - 1.0) >= 2.0] == 0.0)
    assert np.all(np.abs(f.samples[np.abs(pts - 1.0) < 1.9]) > 0.0)


def test_gaussian_profile_truncation_warning():
    g = FrequencyGrid(1, 2.0, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaussian_profile(g, center=0.5)
    with pytest.warns(ParextWarning, match="outside the grid"):
        gaussian_profile(g, center=4.0)


def test_superpose_grid_mismatch():
    f = gaussian_profile(FrequencyGrid(1, 8.0, 128))
    g = gaussian_profile(FrequencyGrid(1, 4.0, 128))
    with pytest.raises(ValueError):
        superpose(f, g)


# -- refusals ---------------------------------------------------------------

G1 = FrequencyGrid(1, 4.0, 64)
G2 = FrequencyGrid(2, 4.0, 16)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: gaussian_profile(G2, center=(0.0, 1.0, 2.0)), "center must have length 2", id="center"),
        pytest.param(
            lambda: gaussian_profile(G2, phase_velocity=(1.0, 2.0, 3.0)), "phase_velocity must have length 2",
            id="phase_velocity",
        ),
        pytest.param(lambda: bump_profile(G1, center=(0.0, 1.0)), "center must have length 1", id="bump-center"),
        pytest.param(lambda: FrequencyGrid(0, 1.0, 8), "dimension must be >= 1", id="grid-d"),
        pytest.param(lambda: FrequencyGrid(1, 0.0, 8), "half_width must be positive", id="grid-half_width"),
        pytest.param(lambda: FrequencyGrid(2, 1.0, 8, center=(0.0,)), "center must have length d", id="grid-center"),
        pytest.param(lambda: SpacetimeGrid(1, -1.0, 1.0, 3, 3), "half-widths must be positive", id="stg-t"),
        pytest.param(lambda: SpacetimeGrid(1, 1.0, 0.0, 3, 3), "half-widths must be positive", id="stg-x"),
        pytest.param(lambda: SpacetimeGrid(1, 1.0, 1.0, 1, 3), "at least two points", id="stg-t_points"),
        pytest.param(lambda: SpacetimeGrid(1, 1.0, 1.0, 3, 1), "at least two points", id="stg-x_points"),
        # numbers that are not finite, and point counts that are not whole
        pytest.param(lambda: FrequencyGrid(1, math.inf, 8), "center must be finite", id="grid-half_width-inf"),
        pytest.param(lambda: FrequencyGrid(1, math.nan, 8), "center must be finite", id="grid-half_width-nan"),
        pytest.param(lambda: FrequencyGrid(1, 4.0, 8, center=math.nan), "center must be finite", id="grid-center-nan"),
        pytest.param(lambda: FrequencyGrid(1, 8.0, 4.5), "power of two", id="grid-points-fraction"),
        pytest.param(lambda: FrequencyGrid(1, 8.0, math.inf), "power of two", id="grid-points-inf"),
        pytest.param(lambda: FrequencyGrid(1, 8.0, "8"), "power of two", id="grid-points-string"),
        pytest.param(lambda: SpacetimeGrid(1, math.nan, 8.0, 33, 65), "half-widths must be finite", id="stg-t-nan"),
        pytest.param(lambda: SpacetimeGrid(1, 2.0, math.inf, 33, 65), "half-widths must be finite", id="stg-x-inf"),
        pytest.param(lambda: SpacetimeGrid(1, 2.0, 8.0, 2.5, 65), "whole number of", id="stg-t_points-fraction"),
        pytest.param(lambda: SpacetimeGrid(1, 2.0, 8.0, 33, math.nan), "whole number of", id="stg-x_points-nan"),
        pytest.param(lambda: SpacetimeGrid(1, 2.0, 8.0, "33", 65), "whole number of", id="stg-t_points-string"),
        pytest.param(lambda: gaussian_profile(G1, width=0.0), "width must be positive", id="width"),
        pytest.param(lambda: bump_profile(G1, radius=-1.0), "radius must be positive", id="radius"),
        pytest.param(lambda: lp_norm_frequency(gaussian_profile(G1), 0.5), "p must be >= 1", id="lp-p"),
        # p = inf read 1.0 for every profile, p = nan read nan
        pytest.param(lambda: lp_norm_frequency(gaussian_profile(G1), math.inf), "finite", id="lp-p-inf"),
        pytest.param(lambda: lp_norm_frequency(gaussian_profile(G1), math.nan), "finite", id="lp-p-nan"),
        # dimensions that are not whole numbers >= 1: built, or failing late with TypeError
        pytest.param(lambda: SpacetimeGrid(0, 1.0, 1.0, 3, 3), "dimension must be >= 1", id="stg-d-zero"),
        pytest.param(lambda: SpacetimeGrid(1.5, 1.0, 1.0, 3, 3), "dimension must be >= 1", id="stg-d-fraction"),
        pytest.param(lambda: FrequencyGrid(True, 4.0, 8), "dimension must be >= 1", id="grid-d-bool"),
        pytest.param(lambda: FrequencyGrid(1.5, 4.0, 8), "dimension must be >= 1", id="grid-d-fraction"),
    ],
)
def test_grid_and_profile_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_grids_take_a_whole_float_point_count_as_an_int():
    assert FrequencyGrid(1, 8.0, 4.0) == FrequencyGrid(1, 8.0, 4)
    stg = SpacetimeGrid(1, 2.0, 8.0, 33.0, np.int64(65))
    assert (type(stg.t_points), type(stg.x_points_per_axis)) == (int, int)


def test_grids_take_a_whole_float_dimension_as_an_int():
    assert FrequencyGrid(2.0, 8.0, 4) == FrequencyGrid(2, 8.0, 4)
    assert type(SpacetimeGrid(np.int64(2), 2.0, 8.0, 33, 65).d) is int


# -- norms and moments ------------------------------------------------------

def test_gaussian_l2_norm():
    g = FrequencyGrid(1, 10.0, 1024)
    f = gaussian_profile(g)
    assert lp_norm_frequency(f, 2.0) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-12)


@given(c=st.complex_numbers(max_magnitude=50.0, min_magnitude=1e-3))
@settings(max_examples=50, deadline=None)
def test_lp_norm_homogeneity(c):
    g = FrequencyGrid(1, 6.0, 64)
    f = gaussian_profile(g)
    assert lp_norm_frequency(f.scaled(c), 2.0) == pytest.approx(
        abs(c) * lp_norm_frequency(f, 2.0), rel=1e-12
    )


def test_centroid_and_second_moment():
    g = FrequencyGrid(1, 12.0, 1024)
    f = gaussian_profile(g, center=1.5, width=2.0)
    _, centroid, second_moment = _profile_moments(f)
    assert centroid[0] == pytest.approx(1.5, abs=1e-10)
    # |f|^2 = exp(-2 (xi-c)^2 / w^2): variance w^2 / 4
    assert second_moment == pytest.approx(1.0, rel=1e-10)


def test_gradient_l2sq_gaussian():
    g = FrequencyGrid(1, 10.0, 2048)
    f = gaussian_profile(g)
    # integral of |f'|^2 for f = exp(-xi^2) is sqrt(pi/2)
    assert profile_gradient_l2sq(f) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-4)

import dataclasses
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from conftest import (
    A2_D1,
    A2_D2,
    FROZEN_FGRID_D1,
    FROZEN_FGRID_D2,
    FROZEN_FGRID_D3,
    FROZEN_STG_D1,
    FROZEN_STG_D2,
    FROZEN_STG_D3,
    GAUSS_L4_D2,
    PAIR_FGRID,
    PAIR_STG,
    GAUSS_L2_D2,
    gauss_l6_exact,
    gauss_quotient,
    truncated_gauss_l4_d2,
    truncated_gauss_l6_d1,
)
from parext import extension, norms
from parext.errors import NumericalRefusalError, ParextWarning, TailCertificationError
from parext.exponents import validate_exponents
from parext.extension import ExtensionOperator, ParaboloidShift, _Reflection, _run_blocks, _split, extend
from parext.grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeGrid,
    gaussian_profile,
    lp_norm_frequency,
)
from parext.norms import (
    NormResult,
    QuotientResult,
    _LQ_BLOCK_POINTS,
    _lq_against,
    _space_tail_mass,
    _sup_bound,
    _tail_ingredients,
    _time_tail_mass,
    _truncated_lq,
    lq_norm_spacetime,
    quotient_pair,
    quotient_single,
    sharp_holder_gap,
)
from parext.sequences import scaled_spacetime_grid, shifted_limit_test, weak_limit_diagnostics
from parext.symmetry import Symmetry, apply_symmetry_frequency

ZERO1 = ParaboloidShift(0.0, (0.0,))

MED_FGRID = FrequencyGrid(1, 10.0, 512)
MED_STG = SpacetimeGrid(1, 20.0, 30.0, 257, 257)


def test_frozen_grid_sharp_constant(frozen_quotient_d1):
    res, _ = frozen_quotient_d1
    assert res.quotient == pytest.approx(A2_D1, rel=1e-3)
    # agreement with the independently quadratured truncated closed form
    assert res.numerator.value == pytest.approx(
        truncated_gauss_l6_d1(400.0, 220.0), rel=1e-4
    )
    # the certified interval contains the exact full-space norm
    exact = gauss_l6_exact(1.0)
    assert res.numerator.value <= exact <= res.numerator.certified_upper()


def test_certified_containment_variants(exponents_d1):
    cases = [
        dict(width=0.7, center=0.0, phase_velocity=0.0),
        dict(width=1.0, center=1.0, phase_velocity=0.0),
        dict(width=1.4, center=-0.5, phase_velocity=2.0),
    ]
    # lattice period pi*N/L = 322 comfortably exceeds the slice spread 2*T*|xi|
    fgrid = FrequencyGrid(1, 10.0, 1024)
    stg = SpacetimeGrid(1, 30.0, 100.0, 1025, 1025)
    for kw in cases:
        f = gaussian_profile(fgrid, **kw)
        res = lq_norm_spacetime(stg, [(f, ZERO1)], 6.0)
        exact = gauss_l6_exact(kw["width"])
        assert res.value <= exact <= res.certified_upper(), kw


def test_certified_containment_short_window():
    # T = 0.5 lies below the crossover t_c = (sqrt(pi) m1 / l1)^2 = 1 of the
    # width-1 Gaussian, so the time tail charges the plain L1 bound on
    # [T, t_c] before the dispersive one takes over
    f = gaussian_profile(FrequencyGrid(1, 10.0, 512))
    stg = SpacetimeGrid(1, 0.5, 20.0, 129, 513)
    ing = _tail_ingredients(f, ZERO1)
    t_c = (math.sqrt(math.pi) * ing.m1 / ing.l1) ** 2
    assert stg.t_half_width < t_c
    res = lq_norm_spacetime(stg, [(f, ZERO1)], 6.0)
    assert res.value <= gauss_l6_exact(1.0) <= res.certified_upper()
    # below t_c the tail grows as T shrinks, but by the L1 bound, not the
    # dispersive one: against the dispersive bound alone, 2 energy c^4 / T
    # (beta = 2, c = l1 sqrt(t_c)), it keeps the fraction (2 t_c - T) T / t_c^2
    T = stg.t_half_width
    masses = [_time_tail_mass(ing, 1, 6.0, s) for s in (T / 2.0, T, t_c)]
    assert masses[0] > masses[1] > masses[2]
    dispersive = 2.0 * (2.0 * math.pi * ing.l2**2) * (math.sqrt(math.pi) * ing.m1) ** 4 / T
    assert masses[1] / dispersive == pytest.approx((2.0 * t_c - T) * T / t_c**2, rel=1e-12)


def test_gaussian_quotient_has_one_closed_form_in_every_dimension():
    assert gauss_quotient(1) == pytest.approx(A2_D1, rel=1e-12)
    assert gauss_quotient(2) == pytest.approx(A2_D2, rel=1e-12)
    assert gauss_quotient(3) == pytest.approx(10.165502851313347, rel=1e-12)


def test_d3_gaussian_interval_contains_the_conjectured_constant():
    # Foschi conjectures that Gaussians extremize in d = 3 as they do in
    # d = 1 and 2, so the width-1 Gaussian's quotient is compared with a
    # conjectured sharp constant: the certified interval contains the exact
    # quotient of this Gaussian, which proves nothing about the conjecture
    # (observed Q = 9.916476, 2.4% low, with a certified error of 1.29948)
    e = validate_exponents(3, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ParextWarning)
        res = quotient_single(gaussian_profile(FROZEN_FGRID_D3), e, FROZEN_STG_D3, threads=2)
    assert res.quotient <= gauss_quotient(3) <= res.quotient + res.certified_error()


def test_quotient_dilation_invariance(exponents_d1):
    f = gaussian_profile(MED_FGRID)
    q1 = quotient_single(f, exponents_d1, MED_STG).quotient
    f_half = apply_symmetry_frequency(Symmetry(0.5, (0.0,), 0.0, (0.0,)), f, 2.0, ZERO1)
    q2 = quotient_single(f_half, exponents_d1, scaled_spacetime_grid(MED_STG, 0.5)).quotient
    assert q2 == pytest.approx(q1, rel=1e-10)


def test_quotient_homogeneity(exponents_d1):
    f = gaussian_profile(MED_FGRID)
    q1 = quotient_single(f, exponents_d1, MED_STG).quotient
    q7 = quotient_single(f.scaled(7.0), exponents_d1, MED_STG).quotient
    assert q7 == pytest.approx(q1, rel=1e-10)


def test_pair_reduces_to_single_for_zero_g(exponents_d1):
    f = gaussian_profile(MED_FGRID)
    g = f.scaled(0.0)
    qp = quotient_pair(f, g, ParaboloidShift(0.0, (1.0,)), exponents_d1, MED_STG)
    qs = quotient_single(f, exponents_d1, MED_STG)
    assert qp.quotient == qs.quotient


def test_all_zero_profiles_refuse_before_extending(exponents_d1, monkeypatch):
    def extend_nothing(*args, **kwargs):
        raise AssertionError("a zero profile was extended")

    monkeypatch.setattr(norms, "extend", extend_nothing)
    z = gaussian_profile(MED_FGRID).scaled(0.0)
    shift = ParaboloidShift(0.0, (1.0,))
    calls = [
        lambda: quotient_single(z, exponents_d1, MED_STG),
        lambda: quotient_pair(z, z, shift, exponents_d1, MED_STG),
        lambda: weak_limit_diagnostics(z, z, shift, exponents_d1, MED_STG, a_p_estimate=2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="every profile is zero"):
            call()


def test_pair_triangle_chain(exponents_d1):
    """||Ef + E'g||_q <= ||Ef||_q + ||E'g||_q <= A (||f|| + ||g||)
    on the truncated window (A from the same window)."""
    f = gaussian_profile(MED_FGRID)
    g = gaussian_profile(MED_FGRID, width=0.8, center=0.4)
    shift = ParaboloidShift(0.0, (1.0,))
    qp = quotient_pair(f, g, shift, exponents_d1, MED_STG)
    from parext.grids import lp_norm_frequency
    from parext.norms import _truncated_lq

    ff = extend(f, ZERO1, MED_STG)
    fgd = extend(g, shift, MED_STG)
    nf, ng = _truncated_lq(MED_STG, (ff, fgd), 6.0, ((1, 0), (0, 1)))
    assert qp.numerator.value <= nf + ng + 1e-12
    a2 = quotient_single(f, exponents_d1, MED_STG).quotient
    a2 = max(a2, quotient_single(g, exponents_d1, MED_STG).quotient)
    assert nf + ng <= a2 * (lp_norm_frequency(f, 2.0) + lp_norm_frequency(g, 2.0)) + 1e-9


def test_time_tail_mass_doubles_when_halved():
    f = gaussian_profile(MED_FGRID)
    ing = _tail_ingredients(f, ZERO1)
    # beta = d (q-2)/2 = 2 for d=1, q=6: tail mass ~ 1/T beyond the crossover
    assert _time_tail_mass(ing, 1, 6.0, 40.0) == pytest.approx(
        2.0 * _time_tail_mass(ing, 1, 6.0, 80.0), rel=1e-12
    )


@pytest.mark.parametrize("shift", [ZERO1, ParaboloidShift(0.3, (1.5,))])
def test_space_tail_mass_bounds_its_integral(shift):
    # a wide profile on a long window: the integrand's kinks (where the sup
    # bound leaves l1 and where the Chebyshev fraction saturates) make a
    # trapezoid on the same nodes fall below the integral here
    f = gaussian_profile(MED_FGRID, center=0.4, width=2.0)
    ing = _tail_ingredients(f, shift)
    d, q, T, X = 1, 6.0, 400.0, 15.0
    energy = 2.0 * math.pi * ing.l2**2

    def integrand(t):
        sup = float(_sup_bound(ing, d, np.array([t]))[0])
        frac = min(((ing.sigma_x + 2.0 * t * ing.sigma_xi) / X) ** 2, 1.0)
        return sup ** (q - 2.0) * energy * frac

    kinks = [(math.sqrt(math.pi) * ing.m1 / ing.l1) ** 2, (X - ing.sigma_x) / (2.0 * ing.sigma_xi)]
    exact, _ = integrate.quad(
        integrand, 0.0, T, points=[k for k in kinks if 0.0 < k < T], limit=1000, epsabs=0.0, epsrel=1e-12
    )
    assert _space_tail_mass(ing, d, q, T, X) >= 2.0 * exact


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tail_of_a_zero_profile_is_zero_in_every_dimension(d):
    # the all-zero ingredients give 0 by the tail formulas' own arithmetic,
    # and the dispersive bound, infinite at t = 0, divides by no zero there
    grid = FrequencyGrid(d, 4.0, 8)
    q = (d + 2) * 2.0 / d
    zero = _tail_ingredients(FrequencyProfile(grid, np.zeros(grid.shape)), ParaboloidShift.zero(d))
    ing = _tail_ingredients(gaussian_profile(grid), ParaboloidShift.zero(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _time_tail_mass(zero, d, q, 2.0) == 0.0
        assert _space_tail_mass(zero, d, q, 2.0, 3.0) == 0.0
        assert _sup_bound(ing, d, np.array([0.0, 1.0]))[0] == ing.l1


def test_quotient_result_derives_its_quotient():
    res = QuotientResult(NormResult(3.0, 0.5, 0.25, 6.0), 2.0)
    assert [f.name for f in dataclasses.fields(QuotientResult)] == ["numerator", "denominator"]
    assert res.quotient == 1.5
    assert res.certified_error() == res.numerator.certified_error() / 2.0


def test_tail_refusal_at_nonintegrable_exponent():
    f = gaussian_profile(MED_FGRID)
    stg = SpacetimeGrid(1, 10.0, 20.0, 65, 65)
    with pytest.raises(TailCertificationError):
        lq_norm_spacetime(stg, [(f, ZERO1)], 3.9)  # beta = 0.95 <= 1
    with pytest.raises(ValueError):
        lq_norm_spacetime(stg, [(f, ZERO1)], 2.0)
    # a pair of another dimension than the grid refuses before any extension
    with pytest.raises(ValueError, match="a pair of dimension 1 .shift 2. on a 1-d spacetime grid"):
        lq_norm_spacetime(stg, [(f, ZERO1), (f, ParaboloidShift(0.0, (0.0, 0.0)))], 6.0)


def test_empty_pair_list_refuses():
    with pytest.raises(ValueError, match="no .profile, shift. pair to extend"):
        lq_norm_spacetime(MED_STG, [], 6.0)


def test_tail_lattice_refuses_above_budget_before_extending(monkeypatch):
    # the tail certificate's lattice of 4N points per axis, transformed along
    # its last axis (N x 4N complex points in d = 2) and streamed in slabs of
    # 128 columns, each complex with its |.|, is sized before any field is
    # extended
    def extend_nothing(*args, **kwargs):
        raise AssertionError("a field was extended")

    f = gaussian_profile(FROZEN_FGRID_D2)
    n = FROZEN_FGRID_D2.points_per_axis
    n_lat = 4 * n
    held = 16 * n * n_lat + 24 * n_lat * 128
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(norms, "extend", extend_nothing)
    monkeypatch.setattr(extension, "FIELD_MEMORY_FRACTION", 0.9 * held / memory)
    with pytest.raises(
        NumericalRefusalError,
        match=rf"the tail lattice of shape \({n_lat}, {n_lat}\), in slabs of shape \({n_lat}, 128\) takes",
    ):
        lq_norm_spacetime(FROZEN_STG_D2, [(f, ParaboloidShift.zero(2))], 4.0)
    # just above what is held, the tail certificate runs
    monkeypatch.setattr(extension, "FIELD_MEMORY_FRACTION", 1.01 * held / memory)
    monkeypatch.setattr(norms, "_lq_against", lambda *args: [(1.0, 1.0)])
    assert lq_norm_spacetime(FROZEN_STG_D2, [(f, ParaboloidShift.zero(2))], 4.0).tail_bound > 0.0


@pytest.mark.parametrize(
    "grid", [FrequencyGrid(1, 10.0, 512), FROZEN_FGRID_D2, FrequencyGrid(3, 6.0, 32)], ids=["d1", "d2", "d3"]
)
@pytest.mark.parametrize(
    "shape", [{}, {"phase_velocity": 0.7}, {"chirp": 0.3}], ids=["real", "phase-velocity", "chirped"]
)
def test_streamed_tail_lattice_matches_the_dense_transform(grid, shape):
    # m1 from the lattice streamed in slabs (several in d = 2 and 3) is the
    # L^1 norm of the dense lattice of 4N points per axis, up to the order
    # of the sum
    d = grid.d
    f = gaussian_profile(grid, **shape)
    n_lat = 4 * grid.points_per_axis
    assert d == 1 or norms._lattice_slabs(grid.points_per_axis, d)[1] < n_lat
    lattice = np.fft.ifftn(f.samples, s=(n_lat,) * d) * n_lat**d
    lat_dx = 2.0 * math.pi / (n_lat * grid.spacing)
    dense = np.abs(lattice).sum() * lat_dx**d * grid.cell_volume / (2.0 * math.pi) ** d
    assert _tail_ingredients(f, ParaboloidShift.zero(d)).m1 == pytest.approx(dense, rel=1e-14)


def test_streamed_tail_lattice_holds_under_half_the_dense_lattice():
    # FROZEN d = 2: the dense lattice with its |.| takes 24 (4N)^2 B = 6 MiB
    f = gaussian_profile(FROZEN_FGRID_D2)
    dense_bytes = 24 * (4 * FROZEN_FGRID_D2.points_per_axis) ** 2
    tracemalloc.start()
    try:
        _tail_ingredients(f, ParaboloidShift.zero(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 2


def test_d2_frozen_config(exponents_d2):
    f = gaussian_profile(FROZEN_FGRID_D2)
    res = quotient_single(f, exponents_d2, FROZEN_STG_D2)
    assert res.numerator.value == pytest.approx(
        truncated_gauss_l4_d2(10.0, 16.0), rel=1e-4
    )
    assert res.numerator.value <= GAUSS_L4_D2 <= res.numerator.certified_upper()
    assert res.denominator == pytest.approx(GAUSS_L2_D2, rel=1e-10)


# -- sharp two-term Hoelder ---------------------------------------------------

@given(
    a=st.floats(1e-6, 1e6),
    b=st.floats(1e-6, 1e6),
    p=st.floats(1.1, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_sharp_holder_nonnegative(a, b, p):
    assert sharp_holder_gap(a, b, p) >= -1e-12 * (a + b)


def test_sharp_holder_equality_iff_equal():
    assert abs(sharp_holder_gap(3.7, 3.7, 2.0)) < 1e-12
    assert sharp_holder_gap(1.0, 2.0, 2.0) > 1e-3


def _random_field(stg, seed=0):
    rng = np.random.default_rng(seed)
    shape = stg.field_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d, n_t, n_x", [(1, 2049, 2049), (2, 257, 97), (1, 2018, 2049)])
@pytest.mark.parametrize("coarsest", [1, 2])
def test_truncated_lq_matches_the_whole_array_form(d, n_t, n_x, coarsest):
    # the PAIR and a FROZEN d=2 spatial grid, and a t-grid whose last block
    # holds two rows, a single one at stride 2: the reduction splits the
    # t-rows into several blocks and a shorter last one, and must still give
    # the bits of the whole-array form, each row reduced over the space axes
    # by dot products with the weights, for each combination, at stride 1
    # and, read from the same blocks, at stride 2, on one thread or two.  The
    # last two rows weigh 1e3 times the others, so that an ulp on either of
    # them shows in the norm
    stg = SpacetimeGrid(d, 3.0, 5.0, n_t, n_x)
    fld, gld = _random_field(stg), _random_field(stg, seed=1)
    fld[-2:] *= 1e3
    gld[-2:] *= 1e3
    strides = (1, 2)[:coarsest]
    assert stg.t_points > _LQ_BLOCK_POINTS // n_x**d

    def weights(n, h, stride):
        w = np.full(np.arange(n)[::stride].size, h * stride)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    combos = {(1, 0): fld, (0, 1): gld, (1, 1): fld + gld, (1, -1): fld - gld}
    for q in (6.0, 4.0, 1.2):
        expected = []
        for whole_field in combos.values():
            for stride in strides:
                c = whole_field[(slice(None, None, stride),) * (d + 1)]
                # |c|^q from |c|^2 = re^2 + im^2: by repeated multiplication
                # when q / 2 is whole, and as a power otherwise
                r2 = c.real * c.real + c.imag * c.imag
                if (q / 2).is_integer():
                    whole = r2
                    for _ in range(int(q / 2) - 1):
                        whole = whole * r2
                else:
                    whole = r2 ** (q / 2)
                for _ in range(d):
                    whole = np.vecdot(whole, weights(stg.x_points_per_axis, stg.x_spacing, stride))
                wt = weights(stg.t_points, stg.t_spacing, stride)
                expected.append(float((whole @ wt) ** (1.0 / q)))
        for threads in (1, 2):
            got = _truncated_lq(stg, (fld, gld), q, tuple(combos), strides, threads)
            assert got == expected


@pytest.mark.parametrize("d, n_t, n_x", [(1, 61, 129), (2, 31, 17)])
def test_truncated_lq_accepts_any_block_split(monkeypatch, d, n_t, n_x):
    # blocks of 2, 6 and 10 rows, each split ending in a one-row block, and
    # one block of the whole grid give the same bits at every stride and on
    # one thread or two
    stg = SpacetimeGrid(d, 3.0, 5.0, n_t, n_x)
    fld, gld = _random_field(stg), _random_field(stg, seed=1)
    combos = ((1, 0), (0, 1), (1, 1), (1, -1))
    for strides in ((1,), (1, 2)):
        results = []
        for rows in (2, 6, 10, n_t + 1):
            assert n_t % rows == 1 or rows > n_t
            monkeypatch.setattr(norms, "_LQ_BLOCK_POINTS", rows * n_x**d)
            for threads in (1, 2):
                results.append(_truncated_lq(stg, (fld, gld), 6.0, combos, strides, threads))
        assert all(r == results[-1] for r in results)


@pytest.mark.parametrize("d, n_x", [(1, 129), (2, 17)])
def test_reduction_of_mixed_parts_allocates_no_complex_scratch(d, n_x):
    # a sum or difference of two parts is formed in the two float |c|^q
    # buffers, so every term set takes 16 bytes a point, a pair's too
    stg = SpacetimeGrid(d, 3.0, 5.0, 31, n_x)
    held = (_random_field(stg),)
    for combos in (((0, 1),), ((1, 1),), ((1, 0), (0, 1), (1, 1), (1, -1))):
        red = norms._LqRows(stg, held, 6.0, tuple((c, (1, 2)) for c in combos))
        scratch = red.scratch(7)
        assert all(b.dtype == np.float64 for b in scratch)
        assert sum(b.nbytes for b in scratch) == red.scratch_bytes(7) == 16 * 7 * n_x**d


def test_truncated_lq_memory_stays_below_the_field():
    stg = SpacetimeGrid(1, 3.0, 5.0, 2049, 2049)
    fld, gld = _random_field(stg), _random_field(stg, seed=1)
    tracemalloc.start()
    try:
        _truncated_lq(stg, (fld, gld), 6.0, strides=(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fld.nbytes / 4


@pytest.mark.parametrize(
    "fg, stg, odd_chunk",
    [
        # odd n_t: the blocks of t >= 0 start on odd rows, and the t = 0 row
        # mirrors itself
        (FrequencyGrid(1, 10.0, 512), SpacetimeGrid(1, 20.0, 30.0, 259, 257), False),
        # an odd block of 85 rows
        (FrequencyGrid(1, 10.0, 512), SpacetimeGrid(1, 20.0, 30.0, 301, 1025), True),
        # d = 2, with an odd block of 11 rows
        (FrequencyGrid(2, 7.0, 64), SpacetimeGrid(2, 5.0, 8.0, 33, 41), True),
        # the same three with even n_t and n_x, where the stride-2 grid of a
        # mirror row is not the mirror of its source row's
        (FrequencyGrid(1, 10.0, 512), SpacetimeGrid(1, 20.0, 30.0, 258, 256), False),
        (FrequencyGrid(1, 10.0, 512), SpacetimeGrid(1, 20.0, 30.0, 300, 1024), True),
        (FrequencyGrid(2, 7.0, 64), SpacetimeGrid(2, 5.0, 8.0, 32, 40), True),
    ],
)
def test_streamed_norms_equal_the_materialized_path(fg, stg, odd_chunk):
    # every norm a caller reads from a streamed field, the second field of a
    # pair streamed against the held first, has the bits of the reduction of
    # both fields held whole, on one thread or two: for two real profiles,
    # which hold and stream only the t >= 0 rows and reduce each block's
    # |c|^q also as its mirror rows, and for a complex and a real one, which
    # take the whole field
    d = stg.d
    zero, shift = ParaboloidShift.zero(d), ParaboloidShift(0.5, (-1.0,) + (0.0,) * (d - 1))
    assert (ExtensionOperator(fg, zero, stg)._default_chunk() % 2 == 1) == odd_chunk
    q = 2.0 + 4.0 / d
    parts = ((1, 1), (1, 0), (0, 1), (1, -1))  # those weak_limit_diagnostics reads
    terms = tuple((c, (1,)) for c in parts)
    for chirp in (0.0, 0.3):
        f = gaussian_profile(fg, chirp=chirp)
        g = gaussian_profile(fg, width=0.8, center=0.1)
        assert f.samples.imag.any() == (chirp != 0.0) and not g.samples.imag.any()
        for threads in (1, 2):
            held = extend(f, zero, stg, threads=threads)
            other = extend(g, shift, stg, threads=threads)
            value, coarse = _truncated_lq(stg, (held, other), q, strides=(1, 2))
            res = lq_norm_spacetime(stg, [(g, shift), (f, zero)], q, threads=threads)
            assert res.value == value and res.quadrature_estimate == abs(value - coarse) / 3.0
            (found,) = _lq_against(stg, [(g, shift)], [(f, zero)], q, terms, threads)
            assert found == _truncated_lq(stg, (other, held), q, parts)
            # one streamed field alone, at both strides
            (alone,) = _lq_against(stg, (), [(f, zero)], q, (((1,), (1, 2)),), threads)
            assert alone == _truncated_lq(stg, (held,), q, strides=(1, 2))
            # one held reference against two streamed shifted fields of the
            # same profile
            shifts = [shift, ParaboloidShift(0.25, (0.5,) + (0.0,) * (d - 1))]
            residuals = shifted_limit_test(f, zero, shifts, validate_exponents(d, 2.0), stg, threads)
            unit = f.scaled(1.0 / lp_norm_frequency(f, 2.0))
            ref = extend(unit, zero, stg, threads=threads)
            assert len(residuals) == len(shifts)
            for s, residual in zip(shifts, residuals):
                fields = (ref, extend(unit, s, stg, threads=threads))
                assert [residual] == _truncated_lq(stg, fields, q, ((1, -1),))


def _mirrored_reduction_equals_the_whole_field(stg, reflection):
    """Random rows t >= 0 of two fields, held and streamed in odd blocks of
    7 rows on one thread or two into a reduction mirrored by ``reflection``,
    reduce to the bits of both whole fields whose rows t < 0 are their
    mirrors, for every combination at strides 1 and 2: random values make
    the sums depend on their order, which a mirror row must keep."""
    n_t = stg.t_points
    first = n_t // 2
    fields = []
    for seed in (0, 1):
        full = _random_field(stg, seed)
        full[:first] = np.conj(full[n_t - first :][reflection.flip(full.ndim)])
        fields.append(full)
    combos = ((1, 0), (0, 1), (1, 1), (1, -1))
    expected = _truncated_lq(stg, tuple(fields), 6.0, combos, (1, 2))
    for threads in (1, 2):
        red = norms._LqRows(stg, (fields[0][first:],), 6.0, tuple((c, (1, 2)) for c in combos), reflection)
        _run_blocks(
            lambda block, scratch: red(block[0], fields[1][block[0] : block[1]], scratch),
            _split(first, n_t, 7), lambda: red.scratch(7), threads,
        )
        assert red.norms() == expected


@pytest.mark.parametrize("d, n_t, n_x", [(1, 61, 129), (1, 60, 128), (2, 31, 17), (2, 30, 16)])
def test_mirrored_reduction_equals_the_whole_field(d, n_t, n_x):
    # the mirror rows of real profiles are the conjugate flips of the rows
    # t > 0 along t and every x axis
    _mirrored_reduction_equals_the_whole_field(SpacetimeGrid(d, 3.0, 5.0, n_t, n_x), _Reflection.REAL)


@pytest.mark.parametrize("d, n_t, n_x", [(1, 61, 129), (1, 60, 128), (2, 31, 17), (2, 30, 16)])
def test_hermitian_mirrored_reduction_equals_the_whole_field(d, n_t, n_x):
    # the mirror rows of Hermitian profiles are the conjugates of the rows
    # t > 0 flipped along t alone: a mirror row copies the sums of the row
    # it mirrors, or, on the stride-2 grid of an even n_t, where that row is
    # not on the grid, reduces it again in the same order
    _mirrored_reduction_equals_the_whole_field(SpacetimeGrid(d, 3.0, 5.0, n_t, n_x), _Reflection.HERMITIAN)


def test_mirror_rows_reach_the_reduction_only_for_a_shared_reflection(monkeypatch):
    # two real profiles, or two Hermitian ones on paraboloids with xi0 = 0:
    # the reduction takes only the blocks of t >= 0 of the last one and
    # mirrors them itself.  A chirped profile in the pair, or a real one
    # next to a Hermitian one, shares no reflection: the pair is held and
    # streamed whole, in either order, the last streamed, with its mirror
    # rows made by apply when it has a reflection.  Every norm has the bits
    # of the held whole fields
    stg = SpacetimeGrid(1, 20.0, 30.0, 259, 257)
    fg = FrequencyGrid(1, 10.0, 512)
    zero, tau = ParaboloidShift.zero(1), ParaboloidShift(0.5, (0.0,))
    shift = ParaboloidShift(0.5, (-1.0,))
    real, real_g = gaussian_profile(fg), gaussian_profile(fg, width=0.8, center=0.1)
    chirped = gaussian_profile(fg, chirp=0.3)
    herm = gaussian_profile(fg, phase_velocity=0.6)
    herm_g = gaussian_profile(fg, width=0.8, phase_velocity=-0.3)
    calls = _spy_on_reductions(monkeypatch, keep_rows=True)
    for f, g, s, mirrored in (
        (real, real_g, shift, _Reflection.REAL),
        (chirped, real_g, shift, None),
        (real_g, chirped, shift, None),
        (herm, herm_g, tau, _Reflection.HERMITIAN),
        (real_g, herm_g, tau, None),
        (herm, real_g, tau, None),
    ):
        calls.clear()
        value = lq_norm_spacetime(stg, [(f, zero), (g, s)], 6.0).value
        (found,) = _lq_against(stg, [(f, zero)], [(g, s)], 6.0, (((1, -1), (1,)),), threads=1)
        assert {m for m, _, _ in calls} == {mirrored}
        assert min(i for _, i, _ in calls) == (stg.t_points // 2 if mirrored else 0)
        fields = (extend(f, zero, stg), extend(g, s, stg))
        assert all(np.array_equal(rows, fields[1][i : i + len(rows)]) for _, i, rows in calls)
        assert [value, *found] == _truncated_lq(stg, fields, 6.0, ((1, 1), (1, -1)))
    # a consumer mirrored by one reflection refuses the field of a profile
    # with another, or with none
    real_only, hermitian_only = _Reflection.REAL, _Reflection.HERMITIAN
    for prof, reflection in ((chirped, real_only), (herm, real_only), (real, hermitian_only)):
        with pytest.raises(ValueError, match=f"{reflection.value} samples only"):
            extend(prof, zero, stg, consumer=extension._HeldField(stg, mirrored=reflection))


def _spy_on_reductions(monkeypatch, keep_rows: bool) -> list:
    """(mirrored, first row, block rows or None) of each block every
    ``_LqRows`` takes."""
    calls = []
    call = norms._LqRows.__call__

    def spy(self, i, rows, scratch):
        calls.append((self.mirrored, i, rows.copy() if keep_rows else None))
        call(self, i, rows, scratch)

    monkeypatch.setattr(norms._LqRows, "__call__", spy)
    return calls


@pytest.mark.parametrize("d", [1, 2])
def test_quotient_single_of_a_phase_velocity_gaussian_is_mirrored(d, monkeypatch):
    # the space translates of the extremizers are Hermitian: on the frozen
    # grids their quotient streams only the rows t >= 0; the same profile
    # times e^{0.3 i} has the same |F| but fails the exact test, so it is
    # streamed whole, to the same norm
    fg, stg = {1: (FROZEN_FGRID_D1, FROZEN_STG_D1), 2: (FROZEN_FGRID_D2, FROZEN_STG_D2)}[d]
    e = validate_exponents(d, 2.0)
    f = gaussian_profile(fg, phase_velocity=(0.4, -0.7)[:d])
    calls = _spy_on_reductions(monkeypatch, keep_rows=False)
    mirrored = quotient_single(f, e, stg).numerator.value
    assert min(i for _, i, _ in calls) == stg.t_points // 2
    assert {m for m, _, _ in calls} == {_Reflection.HERMITIAN}
    calls.clear()
    whole = quotient_single(f.scaled(np.exp(0.3j)), e, stg).numerator.value
    assert min(i for _, i, _ in calls) == 0 and {m for m, _, _ in calls} == {None}
    assert abs(mirrored - whole) <= 1e-15 * whole


def test_real_pair_quotient_holds_half_a_field(exponents_d1):
    # E f of a real profile is held on its t >= 0 rows alone, and E_s g is
    # streamed against it: on one thread, the PAIR quotient of two real
    # profiles peaks well below one field
    f = gaussian_profile(PAIR_FGRID)
    g = gaussian_profile(PAIR_FGRID, width=0.8, center=0.1)
    field_bytes = 16 * math.prod(PAIR_STG.field_shape)
    tracemalloc.start()
    try:
        quotient_pair(f, g, ParaboloidShift(0.0, (1.0,)), exponents_d1, PAIR_STG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * field_bytes


def test_streamed_quotient_holds_no_field(exponents_d1):
    # the FROZEN d = 1 field takes 320 MiB; its certified quotient streams it
    # and holds well under an eighth of that at its peak
    f = gaussian_profile(FROZEN_FGRID_D1)
    field_bytes = 16 * math.prod(FROZEN_STG_D1.field_shape)
    tracemalloc.start()
    try:
        quotient_single(f, exponents_d1, FROZEN_STG_D1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field_bytes / 8

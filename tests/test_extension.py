import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import parext
from conftest import PAIR_FGRID, PAIR_STG, gaussian_extension_oracle, plancherel_slice_defect
from parext import extension, norms
from parext.errors import NumericalRefusalError, NyquistError, ParextWarning
from parext.extension import (
    ExtensionOperator,
    ParaboloidShift,
    _ChirpZ,
    _Reflection,
    _time_reflection,
    extend,
)
from parext.grids import FrequencyGrid, FrequencyProfile, SpacetimeGrid, gaussian_profile
from parext.norms import quotient_single


def brute_force_extension(f, shift, stg):
    """Direct O(everything) evaluation of the defining quadrature sum."""
    g = f.grid
    mesh = g.meshgrid()
    xi0 = shift.xi0_vec()
    height = sum((m - z) ** 2 for m, z in zip(mesh, xi0)) + shift.tau0
    out = np.empty(stg.field_shape, dtype=complex)
    x_axes = np.meshgrid(*([stg.x_axis] * g.d), indexing="ij")
    for i, t in enumerate(stg.t_axis):
        amp = np.exp(1j * t * height) * f.samples
        it = np.nditer(x_axes[0], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            phase = sum(x_axes[a][idx] * mesh[a] for a in range(g.d))
            out[(i,) + idx] = (np.exp(1j * phase) * amp).sum() * g.cell_volume
    return out


def test_brute_force_d1_shifted():
    fg = FrequencyGrid(1, 5.0, 32)
    stg = SpacetimeGrid(1, 1.0, 2.0, 5, 9)
    f = gaussian_profile(fg, center=0.4, width=0.9)
    shift = ParaboloidShift(0.3, (0.7,))
    op = ExtensionOperator(fg, shift, stg)
    got = op.apply(f.samples)
    ref = brute_force_extension(f, shift, stg)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-5


def test_brute_force_d2():
    fg = FrequencyGrid(2, 4.0, 16)
    stg = SpacetimeGrid(2, 1.0, 2.0, 3, 5)
    f = gaussian_profile(fg, width=1.1)
    shift = ParaboloidShift(0.2, (0.3, -0.4))
    op = ExtensionOperator(fg, shift, stg)
    got = op.apply(f.samples)
    ref = brute_force_extension(f, shift, stg)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-4


@pytest.mark.parametrize("d", [1, 2])
def test_brute_force_past_nyquist(d):
    # ratio dxi X / pi in (1, 4): x runs past the period 2 pi / dxi of the
    # Riemann sum, which the transform must reproduce, wrapped copies included
    fg = FrequencyGrid(d, 4.0, 8, center=(0.3,) * d)
    stg = SpacetimeGrid(d, 1.0, 6.0, 3, 17 if d == 1 else 9)
    f = gaussian_profile(fg, center=0.5, width=0.8, phase_velocity=0.7)
    shift = ParaboloidShift(0.2, (0.4, -0.5)[:d])
    with pytest.warns(ParextWarning, match="Nyquist condition violated"):
        op = ExtensionOperator(fg, shift, stg)
    assert 1.0 < op.nyquist_ratio < 4.0
    got = op.apply(f.samples)
    ref = brute_force_extension(f, shift, stg)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-12


def test_gaussian_oracle_agreement():
    fg = FrequencyGrid(1, 8.0, 256)
    stg = SpacetimeGrid(1, 2.0, 8.0, 9, 33)
    shift = ParaboloidShift(0.4, (0.6,))
    f = gaussian_profile(fg, center=0.3, width=1.3, phase_velocity=0.8)
    fld = extend(f, shift, stg)
    t = stg.t_axis
    x = stg.x_axis
    oracle = gaussian_extension_oracle(
        1.3, (0.3,), shift, t[:, None], x[None, :, None], phase_velocity=(0.8,)
    )
    assert np.max(np.abs(fld - oracle)) / np.max(np.abs(oracle)) < 1e-6


def test_gaussian_oracle_agreement_d2():
    fg = FrequencyGrid(2, 6.0, 64)
    stg = SpacetimeGrid(2, 1.5, 4.0, 5, 9)
    shift = ParaboloidShift(0.0, (0.5, 0.0))
    f = gaussian_profile(fg, width=1.2)
    fld = extend(f, shift, stg)
    t = stg.t_axis
    xm = np.stack(np.meshgrid(stg.x_axis, stg.x_axis, indexing="ij"), axis=-1)
    oracle = gaussian_extension_oracle(1.2, (0.0, 0.0), shift, t[:, None, None], xm[None])
    assert np.max(np.abs(fld - oracle)) / np.max(np.abs(oracle)) < 1e-6


def test_value_at_t1_x0():
    # |Ef(1, 0)| = (pi^2 / 2)^{1/4} for the width-1 Gaussian
    v = gaussian_extension_oracle(1.0, (0.0,), ParaboloidShift(0.0, (0.0,)), 1.0, 0.0)
    assert abs(complex(v)) == pytest.approx((math.pi**2 / 2.0) ** 0.25, rel=1e-14)

    fg = FrequencyGrid(1, 8.0, 512)
    stg = SpacetimeGrid(1, 1.0, 1.0, 3, 3)
    fld = extend(gaussian_profile(fg), ParaboloidShift(0.0, (0.0,)), stg)
    assert abs(fld[-1, 1]) == pytest.approx((math.pi**2 / 2.0) ** 0.25, rel=1e-9)


def test_modulation_identity():
    # E_(tau0,xi0) f(t, x) = e^{i t (|xi0|^2 + tau0)} E_0 f(t, x - 2 t xi0)
    shift = ParaboloidShift(0.7, (1.3,))
    zero = ParaboloidShift(0.0, (0.0,))
    rng = np.random.default_rng(5)
    t = rng.uniform(-2, 2, 7)
    x = rng.uniform(-3, 3, 7)
    lhs = gaussian_extension_oracle(1.1, (0.2,), shift, t, x)
    rhs = np.exp(1j * t * (1.3**2 + 0.7)) * gaussian_extension_oracle(
        1.1, (0.2,), zero, t, x - 2.0 * t * 1.3
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_linearity():
    fg = FrequencyGrid(1, 6.0, 64)
    stg = SpacetimeGrid(1, 1.0, 3.0, 5, 9)
    op = ExtensionOperator(fg, ParaboloidShift(0.5, (0.3,)), stg)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lhs = op.apply(2.0 * u + 3j * v)
    rhs = 2.0 * op.apply(u) + 3j * op.apply(v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize("d", [1, 2])
def test_adjoint_exactness(d):
    fg = FrequencyGrid(d, 6.0, 64 if d == 1 else 16)
    stg = SpacetimeGrid(d, 1.5, 4.0, 7, 11)
    op = ExtensionOperator(fg, ParaboloidShift(0.4, (0.6, -0.3)[:d]), stg)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(fg.shape) + 1j * rng.standard_normal(fg.shape)
    F = rng.standard_normal(stg.field_shape) + 1j * rng.standard_normal(stg.field_shape)
    lhs = np.vdot(F, op.apply(u))
    rhs = np.vdot(op.apply_adjoint(F), u)
    assert abs(lhs - rhs) < 1e-11 * abs(lhs)


def test_thread_determinism(monkeypatch):
    fg = FrequencyGrid(1, 8.0, 256)
    stg = SpacetimeGrid(1, 3.0, 10.0, 33, 65)
    op = ExtensionOperator(fg, ParaboloidShift(0.0, (1.0,)), stg)
    f = gaussian_profile(fg)
    a = op.apply(f.samples, threads=1)
    b = op.apply(f.samples, threads=4)
    # blocks of 3 slices straddle the CHIRP_PERIOD boundaries
    monkeypatch.setattr(ExtensionOperator, "_default_chunk", lambda self: 3)
    c = op.apply(f.samples, threads=1)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


@pytest.mark.parametrize("t_points", [70, 71])
@pytest.mark.parametrize("kind", ["complex", "real", "hermitian"])
@pytest.mark.parametrize("d", [1, 2])
def test_apply_bits_independent_of_blocking(d, kind, t_points, monkeypatch):
    # 70 or 71 slices: blocks of 3 straddle the CHIRP_PERIOD boundaries,
    # blocks of 32 meet them, and the last block is short; the default is one
    # block.  A real u, or a Hermitian one on the paraboloid with xi0 = 0, is
    # transformed from the half-way row (35) on and mirrored, so the blocks
    # start there and the half-way row, or the centre row of 71, sits inside
    # a block or at its edge depending on the chunk
    fg = FrequencyGrid(d, 8.0, 64 if d == 1 else 16)
    stg = SpacetimeGrid(d, 3.0, 6.0, t_points, 33 if d == 1 else 17)
    shift = ParaboloidShift(0.3, (0.0, 0.0)[:d] if kind == "hermitian" else (1.0, -0.5)[:d])
    # the d = 2 grid runs past Nyquist (ratio 1.91) on purpose, and says so
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op = ExtensionOperator(fg, shift, stg)
    assert [w.category for w in caught] == ([ParextWarning] if d == 2 else [])
    rng = np.random.default_rng(2)
    u = rng.standard_normal(fg.shape) + 1j * rng.standard_normal(fg.shape)
    if kind == "real":
        u = u.real.astype(complex)
    if kind == "hermitian":
        u = _hermitian(u)
    expected = {"complex": None, "real": _Reflection.REAL, "hermitian": _Reflection.HERMITIAN}[kind]
    assert _time_reflection(fg, shift, u) is expected
    F = rng.standard_normal(stg.field_shape) + 1j * rng.standard_normal(stg.field_shape)
    default = ExtensionOperator._default_chunk
    fields, adjoints = [], []
    for chunk in (default, lambda self: 1, lambda self: 3, lambda self: 32):
        monkeypatch.setattr(ExtensionOperator, "_default_chunk", chunk)
        fields += [op.apply(u, threads=threads) for threads in (1, 2)]
        adjoints.append(op.apply_adjoint(F))
    assert all(np.array_equal(fields[0], x) for x in fields[1:])
    # the adjoint sums over t one block at a time, so only round-off moves
    scale = np.max(np.abs(adjoints[0]))
    assert all(np.max(np.abs(g - adjoints[0])) <= 1e-13 * scale for g in adjoints[1:])


MIRROR_CASES = {
    1: (ParaboloidShift(0.3, (0.7,)), dict(center=0.5, width=0.8)),
    2: (ParaboloidShift(0.2, (0.4, -0.5)), dict(center=(0.5, -0.2), width=0.8)),
}


def _mirror_case(d, shifted, t_points, **profile):
    fg = FrequencyGrid(d, 4.0, 16 if d == 1 else 8, center=(0.3,) * d)
    stg = SpacetimeGrid(d, 1.5, 3.0, t_points, 17 if d == 1 else 9)
    shift, kw = MIRROR_CASES[d]
    shift = shift if shifted else ParaboloidShift.zero(d)
    f = gaussian_profile(fg, **kw, **profile)
    got = ExtensionOperator(fg, shift, stg).apply(f.samples)
    ref = brute_force_extension(f, shift, stg)
    return got, ref


def _conjugate_flip(field):
    return np.conj(field[(slice(None, None, -1),) * field.ndim])


@pytest.mark.parametrize("t_points", [6, 7])
@pytest.mark.parametrize("shifted", [False, True], ids=["zero", "shifted"])
@pytest.mark.parametrize("d", [1, 2])
def test_real_profile_rows_are_mirrored(d, shifted, t_points):
    # F(-t, x) = conj F(t, -x) for real samples: the t < 0 rows are the
    # conjugate flip of the t > 0 rows, bit for bit, and every row is the
    # Riemann sum
    got, ref = _mirror_case(d, shifted, t_points)
    half = t_points // 2
    assert np.array_equal(got[:half], _conjugate_flip(got)[:half])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("t_points", [70, 71])
@pytest.mark.parametrize("d", [1, 2])
def test_real_field_is_its_t_nonnegative_rows_and_their_conjugate_flip(d, t_points, threads, monkeypatch):
    # apply makes only the t >= 0 rows of a real profile, here in blocks of
    # 3: the whole field extend holds is exactly those rows, as a mirrored
    # held field holds them, completed below t = 0 by their conjugate flip
    monkeypatch.setattr(ExtensionOperator, "_default_chunk", lambda self: 3)
    fg = FrequencyGrid(d, 4.0, 16 if d == 1 else 8, center=(0.3,) * d)
    stg = SpacetimeGrid(d, 1.5, 3.0, t_points, 17 if d == 1 else 9)
    shift, kw = MIRROR_CASES[d]
    f = gaussian_profile(fg, **kw)
    half = extend(f, shift, stg, threads, extension._HeldField(stg, mirrored=_Reflection.REAL))
    whole = extend(f, shift, stg, threads)
    assert half.shape[0] == t_points - t_points // 2
    assert np.array_equal(whole, np.concatenate([_conjugate_flip(half)[: t_points // 2], half]))


class _RecordingRows(norms._LqRows):
    """An L^q reduction that records the first row of each block it takes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.firsts = []

    def __call__(self, i, rows, scratch):
        self.firsts.append(i)
        super().__call__(i, rows, scratch)


def test_apply_streams_every_row_into_an_unmirrored_reduction(monkeypatch):
    # a stream that does not derive the rows t < 0 itself is passed every
    # row: of a real or a Hermitian profile the t >= 0 blocks and apply's
    # conjugate flips of them, of any other profile every transformed block;
    # either way the norms have the bits of the reduction of the held field
    fg = FrequencyGrid(1, 6.0, 32)
    stg = SpacetimeGrid(1, 1.5, 3.0, 7, 17)
    monkeypatch.setattr(ExtensionOperator, "_default_chunk", lambda self: 2)
    tau = ParaboloidShift(0.3, (0.0,))
    for f, mirrored in (
        (gaussian_profile(fg, width=0.8), True),
        (gaussian_profile(fg, width=0.8, phase_velocity=0.7), True),
        (gaussian_profile(fg, width=0.8, chirp=0.4), False),
    ):
        op = ExtensionOperator(fg, tau, stg)
        stream = _RecordingRows(stg, (), 6.0, (((1,), (1, 2)),))
        op.apply(f.samples, consumer=stream)
        assert stream.norms() == norms._truncated_lq(stg, (op.apply(f.samples),), 6.0, strides=(1, 2))
        # blocks of 2 rows from n_t // 2 = 3 on, each followed by its mirror
        assert stream.firsts == ([3, 2, 5, 0] if mirrored else [0, 2, 4, 6])


@pytest.mark.parametrize("t_points", [6, 7])
@pytest.mark.parametrize("shifted", [False, True], ids=["zero", "shifted"])
@pytest.mark.parametrize("phase", [dict(phase_velocity=0.7), dict(chirp=0.4)], ids=["velocity", "chirp"])
@pytest.mark.parametrize("d", [1, 2])
def test_complex_profile_rows_are_not_mirrored(d, phase, shifted, t_points):
    got, ref = _mirror_case(d, shifted, t_points, **phase)
    half = t_points // 2
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got[:half] - _conjugate_flip(got)[:half])) > 1e-3 * scale
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def _hermitian(u):
    """``u`` made Hermitian, u[j] == conj u[N - j] exactly for the interior
    indices j >= 1, with a zero edge slab (the samples with any index 0)."""
    inner = (slice(1, None),) * u.ndim
    out = np.zeros_like(u)
    # a_j + conj a_{N-j} and conj(a_{N-j} + conj a_j) are one sum, in either order
    out[inner] = u[inner] + np.conj(u[inner][(slice(None, None, -1),) * u.ndim])
    return out


def _hermitian_case(d, t_points):
    """A phase-velocity Gaussian on a grid centred at 0 whose edge slab is
    below 2^-53 of sum |f| (exp(-56) at the edge), and a small spacetime
    grid."""
    fg = FrequencyGrid(d, 6.0, 32 if d == 1 else 16)
    stg = SpacetimeGrid(d, 1.5, 3.0, t_points, 17 if d == 1 else 9)
    return gaussian_profile(fg, width=0.8, phase_velocity=(0.7, -0.4)[:d]), stg


@pytest.mark.parametrize("t_points", [6, 7])
@pytest.mark.parametrize("tau0", [0.0, 0.3])
@pytest.mark.parametrize("d", [1, 2])
def test_hermitian_profile_rows_are_mirrored(d, tau0, t_points):
    # F(-t, x) = conj F(t, x) for f(-xi) = conj f(xi) on the paraboloid
    # with xi0 = 0, for any tau0: the t < 0 rows are the conjugates of the
    # t > 0 rows, flipped along t alone, bit for bit, and every row is the
    # Riemann sum
    f, stg = _hermitian_case(d, t_points)
    shift = ParaboloidShift(tau0, (0.0,) * d)
    assert _time_reflection(f.grid, shift, f.samples) is _Reflection.HERMITIAN
    got = ExtensionOperator(f.grid, shift, stg).apply(f.samples)
    ref = brute_force_extension(f, shift, stg)
    half = t_points // 2
    assert np.array_equal(got[:half], np.conj(got[::-1])[:half])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _edge_slab(f, share):
    # the edge sample (0, .., 0) set to ``share`` of sum |f|
    s = f.samples.copy()
    s[(0,) * f.grid.d] = share * np.abs(s).sum()
    return FrequencyProfile(f.grid, s)


def _off_the_hermitian_rule(case, f):
    """The Hermitian profile ``f`` and the zero shift, with ``case`` moved
    off the rule: (profile, shift)."""
    d = f.grid.d
    zero = ParaboloidShift.zero(d)
    if case == "centre":  # a grid centred at 0.3, as in _mirror_case
        grid = FrequencyGrid(d, 6.0, f.grid.points_per_axis, center=(0.3,) * d)
        return gaussian_profile(grid, width=0.8, phase_velocity=0.7), zero
    if case == "xi0":
        return f, ParaboloidShift(0.0, (0.5,) + (0.0,) * (d - 1))
    if case == "chirp":
        return gaussian_profile(f.grid, width=0.8, chirp=0.4), zero
    if case == "ulp":
        s = f.samples.copy()
        s[(3,) * d] = complex(np.nextafter(s[(3,) * d].real, np.inf), s[(3,) * d].imag)
        return FrequencyProfile(f.grid, s), zero
    return _edge_slab(f, 2.0**-52), zero


@pytest.mark.parametrize("case", ["centre", "xi0", "chirp", "ulp", "edge-slab"])
@pytest.mark.parametrize("d", [1, 2])
def test_profiles_off_the_hermitian_rule_are_not_mirrored(d, case):
    # a grid centre or a shift xi0 off 0, a chirp, one interior sample one
    # ulp off, or an edge slab above 2^-53 of sum |f|: every row is
    # transformed, so the rows t < 0 are not the conjugates of the rows
    # t > 0, and each is the Riemann sum
    f, stg = _hermitian_case(d, 7)
    f, shift = _off_the_hermitian_rule(case, f)
    assert _time_reflection(f.grid, shift, f.samples) is None
    got = ExtensionOperator(f.grid, shift, stg).apply(f.samples)
    ref = brute_force_extension(f, shift, stg)
    assert not np.array_equal(got[:3], np.conj(got[::-1])[:3])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_an_edge_slab_up_to_the_bound_is_mirrored():
    # an edge slab of 2^-54 of the other samples' sum |f| is below 2^-53 of
    # the whole sum, one of 2^-52 above it
    f, _ = _hermitian_case(1, 7)
    zero = ParaboloidShift.zero(1)
    assert _time_reflection(f.grid, zero, _edge_slab(f, 2.0**-54).samples) is _Reflection.HERMITIAN
    assert _time_reflection(f.grid, zero, _edge_slab(f, 2.0**-52).samples) is None


def test_apply_working_set_is_bounded():
    # a block's transform buffer holds about 2^17 complex points (2 MiB); on
    # the PAIR grid, apply of a complex and of a real profile into the whole
    # field, extend of a real one into its held t >= 0 rows, and
    # apply_adjoint need a few of those beyond what they hold, however many
    # slices the grid has
    budget = 3 * 2**17 * 16
    shift = ParaboloidShift(0.0, (1.0,))
    op = ExtensionOperator(PAIR_FGRID, shift, PAIR_STG)
    real = gaussian_profile(PAIR_FGRID)
    chirped = gaussian_profile(PAIR_FGRID, chirp=0.3)
    assert not real.samples.imag.any() and chirped.samples.imag.any()
    n_t = PAIR_STG.t_points
    runs = (
        (lambda: op.apply(chirped.samples), n_t),
        (lambda: op.apply(real.samples), n_t),
        (
            lambda: extend(
                real, shift, PAIR_STG, consumer=extension._HeldField(PAIR_STG, mirrored=_Reflection.REAL)
            ),
            n_t - n_t // 2,
        ),
    )
    peaks = []
    tracemalloc.start()
    try:
        for run, rows in runs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = run()
            peaks.append(tracemalloc.get_traced_memory()[1] - before - out.nbytes)
            assert out.shape[0] == rows
            del out
        field = op.apply(real.samples)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        op.apply_adjoint(field)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert all(peak < budget for peak in peaks), peaks


PLANCHEREL_CASES = {
    1: (FrequencyGrid(1, 8.0, 256), dict(center=0.3, width=1.3, phase_velocity=0.8), (1.0,)),
    2: (FrequencyGrid(2, 8.0, 64), dict(center=(0.3, -0.2), width=1.3, phase_velocity=(0.8, 0.1)),
        (1.0, -0.4)),
}


@pytest.mark.parametrize("d", [1, 2])
def test_plancherel_slice_conservation(d):
    fg, kw, xi0 = PLANCHEREL_CASES[d]
    f = gaussian_profile(fg, **kw)
    defect = plancherel_slice_defect(f, ParaboloidShift(0.5, xi0), [0.0, 0.7, 3.3])
    assert defect < 1e-8


@pytest.mark.parametrize("d", [1, 2])
def test_plancherel_slice_defect_sees_a_broken_transform(d, monkeypatch):
    # the check must run the evaluator: a transform off by 0.1% per axis
    # shows up as a defect of at least 1e-3
    forward = _ChirpZ.forward

    def scaled(self, u, axis, out=None):
        y = forward(self, u, axis, out)
        y *= 1.001
        return y

    monkeypatch.setattr(_ChirpZ, "forward", scaled)
    fg, kw, xi0 = PLANCHEREL_CASES[d]
    f = gaussian_profile(fg, **kw)
    assert plancherel_slice_defect(f, ParaboloidShift(0.5, xi0), [0.0, 0.7, 3.3]) > 1e-4


def test_nyquist_refusal_and_warning():
    coarse = FrequencyGrid(1, 10.0, 8)  # spacing 2.5
    wide = SpacetimeGrid(1, 1.0, 10.0, 3, 9)  # ratio ~ 7.96 > 4
    with pytest.raises(NyquistError):
        ExtensionOperator(coarse, ParaboloidShift(0.0, (0.0,)), wide)
    mild = SpacetimeGrid(1, 1.0, 2.0, 3, 9)  # ratio ~ 1.59: warn only
    with pytest.warns(ParextWarning, match=r"Nyquist condition violated \(ratio 1.59\)"):
        ExtensionOperator(coarse, ParaboloidShift(0.0, (0.0,)), mild)


def test_oversized_field_refusal():
    # 2^20 t-rows of 2^20 points: the field would take 16 TiB, and extend
    # refuses before it builds the operator or allocates the field
    huge = SpacetimeGrid(1, 1.0, 10.0, 2**20, 2**20)
    f = gaussian_profile(FrequencyGrid(1, 10.0, 256))
    with pytest.raises(NumericalRefusalError, match=r"takes 1\.638e\+04 GiB"):
        extend(f, ParaboloidShift(0.0, (0.0,)), huge)


def test_memory_guard_sizes_what_a_call_allocates(monkeypatch, exponents_d1):
    # with a budget just below one field, a streamed quotient, which holds
    # only block buffers, gives the same bits as without the guard, while
    # extend and a materializing apply refuse before they allocate the field;
    # a budget below the block buffers refuses the streamed call too
    f = gaussian_profile(FrequencyGrid(1, 10.0, 256))
    stg = SpacetimeGrid(1, 20.0, 30.0, 1025, 257)
    zero = ParaboloidShift(0.0, (0.0,))
    expected = quotient_single(f, exponents_d1, stg)
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    field_bytes = 16 * math.prod(stg.field_shape)
    monkeypatch.setattr(extension, "FIELD_MEMORY_FRACTION", 0.9 * field_bytes / memory)
    assert quotient_single(f, exponents_d1, stg) == expected
    with pytest.raises(NumericalRefusalError, match="a field of shape"):
        extend(f, zero, stg)
    with pytest.raises(NumericalRefusalError, match="a field of shape"):
        ExtensionOperator(f.grid, zero, stg).apply(f.samples)
    monkeypatch.setattr(extension, "FIELD_MEMORY_FRACTION", 0.1 * field_bytes / memory)
    with pytest.raises(NumericalRefusalError, match="the block buffers of 1 thread"):
        quotient_single(f, exponents_d1, stg)


def test_memory_guard_sizes_the_stream_scratch(monkeypatch, exponents_d1):
    # quotient_single on FROZEN d = 1 streams blocks of 16 slices: apply's
    # block buffers and input table take 3.06 MiB and the reduction's |c|^q
    # buffers 1.00 MiB more per thread, so a 3.5 MiB budget refuses the call
    from conftest import FROZEN_FGRID_D1, FROZEN_STG_D1

    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(extension, "FIELD_MEMORY_FRACTION", 3.5 * 2**20 / memory)
    with pytest.raises(NumericalRefusalError, match="the block buffers of 1 thread\\(s\\), their stream scratch"):
        quotient_single(gaussian_profile(FROZEN_FGRID_D1), exponents_d1, FROZEN_STG_D1)


def test_operator_holds_per_axis_tables_only():
    # what an operator keeps grows with N per axis, not with the N^d points
    # of its frequency grid: less than one full-grid complex array
    fgrid = FrequencyGrid(2, 8.0, 256)
    stg = SpacetimeGrid(2, 1.0, 2.0, 9, 9)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = ExtensionOperator(fgrid, ParaboloidShift(0.3, (0.5, -0.2)), stg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 16 * fgrid.points_per_axis**2, kept
    assert op.apply(gaussian_profile(fgrid).samples).shape == stg.field_shape


def test_adjoint_refuses_above_budget(monkeypatch):
    # apply_adjoint sizes its block buffers, y rows and step chirps before
    # it allocates them
    shift = ParaboloidShift(0.0, (1.0,))
    op = ExtensionOperator(PAIR_FGRID, shift, PAIR_STG)
    field = op.apply(gaussian_profile(PAIR_FGRID).samples)
    czt = op._czt[0]
    rows = min(op._default_chunk(), PAIR_STG.t_points)
    buffer_bytes = 16 * sum(math.prod(shape) for shape in op._buffer_shapes(rows, czt.m, czt.n))
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(extension, "FIELD_MEMORY_FRACTION", 0.5 * buffer_bytes / memory)
    with pytest.raises(NumericalRefusalError, match="the adjoint's block buffers"):
        op.apply_adjoint(field)


def test_paraboloid_shift_helpers():
    s = ParaboloidShift(0.0, (0.0, 0.0))
    assert s.d == 2 and not s.is_nonzero()
    assert ParaboloidShift.zero(2) == s
    mesh = FrequencyGrid(2, 1.0, 4).meshgrid()
    h = ParaboloidShift(0.5, (0.25, -1.0)).height(mesh)
    assert np.array_equal(h, (mesh[0] - 0.25) ** 2 + (mesh[1] + 1.0) ** 2 + 0.5)
    assert ParaboloidShift(0.1, (0.0,)).is_nonzero()
    with pytest.raises(ValueError):
        ExtensionOperator(
            FrequencyGrid(1, 1.0, 8),
            ParaboloidShift(0.0, (0.0, 0.0)),
            SpacetimeGrid(1, 1.0, 1.0, 2, 2),
        )


@pytest.mark.parametrize(
    "tau0, xi0",
    [(math.nan, (0.0,)), (math.inf, (0.0,)), (0.0, (math.inf,)), (0.0, (0.0, -math.inf)), (0.0, (math.nan, 0.0))],
    ids=["tau0-nan", "tau0-inf", "xi0-inf", "xi0-2d-inf", "xi0-2d-nan"],
)
def test_paraboloid_shift_refuses_a_number_that_is_not_finite(tau0, xi0):
    # a shift of nan or inf made every quotient through it nan
    with pytest.raises(ValueError, match="tau0 and xi0 must be finite"):
        ParaboloidShift(tau0, xi0)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs most of a second to import, more than the package
    # itself; no module of the package may pull it in.  scipy.ndimage (the
    # separating test function's smoothing) and yaml (the CLI's config
    # reader) are imported where they are used, so every run that does not
    # use them pays neither their set-up time nor their memory
    code = (
        "import sys, parext, parext.cli, parext.search, parext.sequences, parext.symmetry; "
        "print([m for m in ('scipy.signal', 'scipy.ndimage', 'yaml') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parext.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import parext
from conftest import PAIR_FGRID, PAIR_STG
from parext.errors import NyquistError
from parext.extension import (
    ExtensionOperator,
    ParaboloidShift,
    _ChirpZ,
    extend,
    gaussian_extension_oracle,
    plancherel_slice_defect,
)
from parext.grids import FrequencyGrid, SpacetimeGrid, gaussian_profile


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
    op = ExtensionOperator(fg, shift, stg)
    assert 1.0 < op.nyquist_ratio < 4.0 and op.warnings
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
    assert np.max(np.abs(fld.samples - oracle)) / np.max(np.abs(oracle)) < 1e-6


def test_gaussian_oracle_agreement_d2():
    fg = FrequencyGrid(2, 6.0, 64)
    stg = SpacetimeGrid(2, 1.5, 4.0, 5, 9)
    shift = ParaboloidShift(0.0, (0.5, 0.0))
    f = gaussian_profile(fg, width=1.2)
    fld = extend(f, shift, stg)
    t = stg.t_axis
    xm = np.stack(np.meshgrid(stg.x_axis, stg.x_axis, indexing="ij"), axis=-1)
    oracle = gaussian_extension_oracle(1.2, (0.0, 0.0), shift, t[:, None, None], xm[None])
    assert np.max(np.abs(fld.samples - oracle)) / np.max(np.abs(oracle)) < 1e-6


def test_value_at_t1_x0():
    # |Ef(1, 0)| = (pi^2 / 2)^{1/4} for the width-1 Gaussian
    v = gaussian_extension_oracle(1.0, (0.0,), ParaboloidShift(0.0, (0.0,)), 1.0, 0.0)
    assert abs(complex(v)) == pytest.approx((math.pi**2 / 2.0) ** 0.25, rel=1e-14)

    fg = FrequencyGrid(1, 8.0, 512)
    stg = SpacetimeGrid(1, 1.0, 1.0, 3, 3)
    fld = extend(gaussian_profile(fg), ParaboloidShift(0.0, (0.0,)), stg)
    assert abs(fld.samples[-1, 1]) == pytest.approx((math.pi**2 / 2.0) ** 0.25, rel=1e-9)


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


@pytest.mark.parametrize("d", [1, 2])
def test_apply_bits_independent_of_blocking(d, monkeypatch):
    # 70 slices: blocks of 3 straddle the CHIRP_PERIOD boundaries, blocks of
    # 32 meet them, and the last block is short; the default is one block
    fg = FrequencyGrid(d, 8.0, 64 if d == 1 else 16)
    stg = SpacetimeGrid(d, 3.0, 6.0, 70, 33 if d == 1 else 17)
    op = ExtensionOperator(fg, ParaboloidShift(0.3, (1.0, -0.5)[:d]), stg)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(fg.shape) + 1j * rng.standard_normal(fg.shape)
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


def test_apply_working_set_is_bounded():
    # a block's transform buffer holds about 2^17 complex points (2 MiB); apply
    # and apply_adjoint on the PAIR grid need a few of those beyond their
    # output, however many slices the grid has
    budget = 3 * 2**17 * 16
    op = ExtensionOperator(PAIR_FGRID, ParaboloidShift(0.0, (1.0,)), PAIR_STG)
    samples = gaussian_profile(PAIR_FGRID).samples
    tracemalloc.start()
    try:
        field = op.apply(samples)
        apply_peak = tracemalloc.get_traced_memory()[1] - field.nbytes
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        op.apply_adjoint(field)
        adjoint_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert apply_peak < budget
    assert adjoint_peak < budget


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
    op = ExtensionOperator(coarse, ParaboloidShift(0.0, (0.0,)), mild)
    assert op.warnings


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


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs most of a second to import, more than the package
    # itself; no module of the package may pull it in
    code = (
        "import sys, parext, parext.cli, parext.search, parext.sequences, parext.symmetry; "
        "print('scipy.signal' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parext.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"

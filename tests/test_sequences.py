import dataclasses
import math
import pickle

import numpy as np
import pytest

from parext.extension import ParaboloidShift
from parext.grids import (
    FrequencyGrid,
    SpacetimeGrid,
    gaussian_profile,
    lp_norm_frequency,
    profile_second_moment,
)
from parext.norms import quotient_single
from parext import sequences
from parext.sequences import (
    SeparatingTestfn,
    TestFunction,
    build_separating_testfn,
    check_sequence_conditions,
    convergence_study,
    default_test_functions,
    dilation_sequence,
    pairing_duality,
    scaled_spacetime_grid,
    separation_height,
    separation_report,
    shifted_limit_test,
    surface_pairing,
    weak_limit_diagnostics,
)
from parext.symmetry import Symmetry

FG = FrequencyGrid(1, 10.0, 512)
STG = SpacetimeGrid(1, 10.0, 20.0, 81, 129)
ZERO = ParaboloidShift(0.0, (0.0,))


# -- dilation sequences -------------------------------------------------------

def test_dilation_sequence_norms_and_widths():
    f = gaussian_profile(FG)
    lams = [1.0, 0.5, 0.25]
    seq = dilation_sequence(f, lams, 2.0)
    n0 = lp_norm_frequency(f, 2.0)
    for lam, fl in zip(lams, seq):
        assert lp_norm_frequency(fl, 2.0) == pytest.approx(n0, rel=1e-12)
        # the |f|^2 width scales as 1/lambda
        assert profile_second_moment(fl, 2.0) == pytest.approx(
            profile_second_moment(f, 2.0) / lam**2, rel=1e-10
        )
    with pytest.raises(ValueError):
        dilation_sequence(f, [], 2.0)


def test_scaled_spacetime_grid():
    g = scaled_spacetime_grid(STG, 0.5)
    assert g.t_half_width == pytest.approx(2.5)
    assert g.x_half_width == pytest.approx(10.0)
    assert g.t_points == STG.t_points and g.x_points_per_axis == STG.x_points_per_axis


def test_convergence_study_identity_at_lambda_one(exponents_d1):
    f = gaussian_profile(FG)
    study = convergence_study(f, ZERO, [1.0], exponents_d1, STG)
    # f + f against the same operator: exactly sqrt(2) times the single quotient
    assert study.rows[0][1] == pytest.approx(
        math.sqrt(2.0) * study.a_p_estimate, rel=1e-12
    )
    assert study.target == pytest.approx(math.sqrt(2.0) * study.a_p_estimate)


# -- weak-limit diagnostics ---------------------------------------------------

def test_weak_limit_degenerate_ratios(exponents_d1):
    f = gaussian_profile(FG)
    diag = weak_limit_diagnostics(f, f, ZERO, exponents_d1, STG, a_p_estimate=2.0377)
    assert diag.norm_gap == 0.0
    assert diag.ratio_first == pytest.approx(1.0, rel=1e-12)
    assert diag.ratio_third == pytest.approx(1.0, rel=1e-12)
    assert diag.field_difference == 0.0
    assert len(diag.weak_pairings) == 3


def test_surface_pairing_positive_for_centered_bump():
    f = gaussian_profile(FG)
    phi = TestFunction("origin", 0.0, (0.0,), 1.0)
    v = surface_pairing(f, ZERO, phi)
    assert v.real > 0.0 and abs(v.imag) < 1e-12
    names = [t.name for t in default_test_functions(1)]
    assert names == ["origin", "side", "wide"]


# -- separation ---------------------------------------------------------------

def test_separation_height_affine_identity(rng):
    mesh = FG.meshgrid()
    for _ in range(10):
        s0 = ParaboloidShift(float(rng.uniform(-2, 2)), tuple(rng.uniform(-2, 2, 1)))
        sn = ParaboloidShift(float(rng.uniform(-2, 2)), tuple(rng.uniform(-2, 2, 1)))
        h, a, b = separation_height(mesh, s0, sn)
        direct = (
            (mesh[0] - s0.xi0[0]) ** 2 + s0.tau0
            - (mesh[0] - sn.xi0[0]) ** 2 - sn.tau0
        )
        assert np.max(np.abs(h - direct)) < 1e-12


def test_separation_report_examples():
    # frequency translation 1 -> 1.1: hyperplane at xi = 1.05
    rep = separation_report(
        ParaboloidShift(0.0, (1.0,)), ParaboloidShift(0.0, (1.1,)), 0.3, 8.0, FG
    )
    assert rep.zero_set_offset == pytest.approx(1.05, abs=1e-12)
    assert not rep.degenerate
    assert rep.c_estimate > 0.0

    # pure tau-shift: no hyperplane, constant separation |b|
    rep = separation_report(
        ParaboloidShift(0.0, (0.0,)), ParaboloidShift(0.5, (0.0,)), 0.3, 8.0, FG
    )
    assert rep.zero_set_offset == math.inf
    assert rep.c_estimate == pytest.approx(0.5)

    # coinciding paraboloids: degenerate
    rep = separation_report(ZERO, ZERO, 0.3, 8.0, FG)
    assert rep.degenerate

    with pytest.raises(ValueError):
        separation_report(ZERO, ZERO, -1.0, 8.0, FG)


def test_separating_testfn_standard_example():
    f = gaussian_profile(FG)
    tf = build_separating_testfn(
        ParaboloidShift(0.0, (1.0,)), ParaboloidShift(0.0, (1.1,)), f, 0.5, 8.0
    )
    assert tf.m1 > 0.5
    assert tf.m2 < 1e-6
    assert 0.0 < tf.s0 <= 0.5
    assert tf.c > 0.0
    assert isinstance(tf, SeparatingTestfn)


def test_separating_testfn_tau_shift():
    f = gaussian_profile(FG)
    tf = build_separating_testfn(ZERO, ParaboloidShift(0.5, (0.0,)), f, 0.5, 8.0)
    assert tf.m1 > 0.5
    assert tf.m2 == 0.0


def test_separating_testfn_degenerate_raises():
    f = gaussian_profile(FG)
    with pytest.raises(ValueError):
        build_separating_testfn(ZERO, ZERO, f, 0.5, 8.0)


def test_equal_shifts_are_degenerate():
    # |xi0|^2 + tau0 - |xi_n|^2 - tau_n sums to 8.3e-17, not 0, for this shift
    p = ParaboloidShift(0.1, (1.1,))
    assert separation_report(p, p, 0.5, 6.0, FG).degenerate
    with pytest.raises(ValueError, match="paraboloids coincide"):
        build_separating_testfn(p, p, gaussian_profile(FG, center=1.0), 0.5, 6.0)


def test_separating_testfn_survives_replace_and_pickle():
    shift0, shift_n = ParaboloidShift(0.0, (1.0,)), ParaboloidShift(0.0, (1.1,))
    tf = build_separating_testfn(shift0, shift_n, gaussian_profile(FG), 0.5, 8.0)
    mesh = FG.meshgrid()
    tau = (mesh[0] - 1.0) ** 2  # on the reference paraboloid
    want = tf.sample(tau, mesh)
    for copy in (dataclasses.replace(tf), pickle.loads(pickle.dumps(tf))):
        assert np.array_equal(copy.sample(tau, mesh), want)


def test_pairing_duality_refuses_d2_before_extending(exponents_d1, monkeypatch):
    def no_extend(*args, **kwargs):
        raise AssertionError("extend called before the dimension check")

    monkeypatch.setattr(sequences, "extend", no_extend)
    f = gaussian_profile(FrequencyGrid(2, 6.0, 32))
    shift0, shift_n = ParaboloidShift(0.0, (1.0, 0.0)), ParaboloidShift(0.0, (2.0, 0.0))
    tf = build_separating_testfn(shift0, shift_n, f, 0.5, 4.0)
    stg = SpacetimeGrid(2, 1.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match="d = 1"):
        pairing_duality(f, f, shift0, shift_n, tf, exponents_d1, stg)


def test_pairing_duality_inequality(exponents_d1):
    shift0 = ParaboloidShift(0.0, (1.0,))
    shift_n = ParaboloidShift(0.0, (2.0,))
    f = gaussian_profile(FG)
    tf = build_separating_testfn(shift0, shift_n, f, 0.5, 8.0)
    fn = f.scaled(1.0 / lp_norm_frequency(f, 2.0))
    g = gaussian_profile(FG, center=0.2, width=1.1)
    g = g.scaled(1.0 / lp_norm_frequency(g, 2.0))
    stg = SpacetimeGrid(1, 30.0, 20.0, 241, 161)
    lhs, mid, pair_g = pairing_duality(fn, g, shift0, shift_n, tf, exponents_d1, stg)
    assert lhs > 0.5          # the test function still sees f
    assert pair_g < 1e-6      # and is blind to the separated paraboloid
    assert lhs <= mid + pair_g


# -- shifted limits -----------------------------------------------------------

def test_shifted_limit_constant_sequence(exponents_d1):
    f = gaussian_profile(FG)
    shift0 = ParaboloidShift(0.3, (0.5,))
    res = shifted_limit_test(f, shift0, [shift0, shift0, shift0], exponents_d1, STG)
    assert max(res) < 1e-12


def test_shifted_limit_monotone_for_approaching_shifts(exponents_d1):
    f = gaussian_profile(FG)
    shifts = [ParaboloidShift(2.0**-n, (2.0**-n,)) for n in range(1, 6)]
    res = shifted_limit_test(f, ZERO, shifts, exponents_d1, STG)
    assert all(b < a for a, b in zip(res, res[1:]))


# -- symmetry-parameter trends -------------------------------------------------

def test_check_sequence_conditions():
    shift = ParaboloidShift(0.0, (1.0,))
    # lambda doubles, xi_tilde grows slower than lambda^2, t0 shrinks fast
    good = [
        Symmetry(2.0**n, (2.0**n * 0.1,), 4.0**-n, (0.0,)) for n in range(1, 9)
    ]
    rep = check_sequence_conditions(good, shift)
    assert rep.verdicts == {
        "lambda_diverges": True,
        "b_vanishes": True,
        "c_vanishes": True,
    }
    lam, b, c = rep.rows[0]
    assert lam == 2.0 and b == pytest.approx(0.2 / 4.0) and c == pytest.approx(0.5)

    # bounded lambdas: nothing diverges
    flat = [Symmetry(1.0, (1.0,), 1.0, (0.0,)) for _ in range(6)]
    rep = check_sequence_conditions(flat, shift)
    assert not rep.verdicts["lambda_diverges"]
    assert not rep.verdicts["b_vanishes"]
    assert not rep.verdicts["c_vanishes"]

    with pytest.raises(ValueError):
        check_sequence_conditions([], shift)

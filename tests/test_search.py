import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import parext
from conftest import SEARCH_FGRID, SEARCH_STG, quotient_gradient
from parext import search
from parext.extension import ParaboloidShift
from parext.grids import FrequencyGrid, FrequencyProfile, SpacetimeGrid, gaussian_profile
from parext.norms import quotient_single
from parext.search import (
    SearchOptions,
    _boundary_mass_fraction,
    fit_symmetry,
    maximize_quotient_pair,
)

ZERO = ParaboloidShift(0.0, (0.0,))


# -- fit_symmetry --------------------------------------------------------------

def test_fit_symmetry_identity():
    fg = FrequencyGrid(1, 12.0, 512)
    # the canonical reference profile exp(-xi^2) itself
    f = gaussian_profile(fg)
    S = fit_symmetry(f)
    assert S.lam == pytest.approx(1.0, rel=1e-10)
    assert abs(S.xi_tilde[0]) < 1e-10
    assert abs(S.t0) < 1e-10 and abs(S.x0[0]) < 1e-10


def test_fit_symmetry_literal_example():
    fg = FrequencyGrid(1, 12.0, 512)
    lam, xt, t0, x0 = 2.0, 1.0, 0.7, -0.4
    # S f0 as a chirped, modulated Gaussian: center xt/lam, width 1/lam,
    # chirp lam^2 t0, phase velocity lam x0
    f = gaussian_profile(
        fg, center=xt / lam, width=1.0 / lam, phase_velocity=lam * x0, chirp=lam**2 * t0
    )
    S = fit_symmetry(f)
    assert S.lam == pytest.approx(lam, rel=1e-10)
    assert S.xi_tilde[0] == pytest.approx(xt, abs=1e-10)
    assert S.t0 == pytest.approx(t0, abs=1e-10)
    assert S.x0[0] == pytest.approx(x0, abs=1e-10)


def test_fit_symmetry_roundtrip_box(rng):
    fg = FrequencyGrid(1, 24.0, 2048)
    worst = 0.0
    for _ in range(12):
        lam = float(np.exp(rng.uniform(np.log(0.25), np.log(8.0))))
        xt = float(rng.uniform(-2.0, 2.0)) * lam  # keep the center on the grid
        t0 = float(rng.uniform(-2.0, 2.0))
        x0 = float(rng.uniform(-2.0, 2.0))
        f = gaussian_profile(
            fg, center=xt / lam, width=1.0 / lam, phase_velocity=lam * x0, chirp=lam**2 * t0
        )
        S = fit_symmetry(f)
        err = max(
            abs(S.lam - lam) / lam,
            abs(S.xi_tilde[0] - xt),
            abs(S.t0 - t0),
            abs(S.x0[0] - x0),
        )
        worst = max(worst, err)
    assert worst < 1e-9  # observed ~2e-15


def test_fit_symmetry_roundtrip_d2():
    fg = FrequencyGrid(2, 12.0, 128)
    lam, xt, t0, x0 = 0.5, (0.4, -0.6), 0.3, (1.0, -0.5)
    f = gaussian_profile(
        fg,
        center=np.asarray(xt) / lam,
        width=1.0 / lam,
        phase_velocity=lam * np.asarray(x0),
        chirp=lam**2 * t0,
    )
    S = fit_symmetry(f)
    assert S.lam == pytest.approx(lam, rel=1e-9)
    assert np.allclose(S.xi_tilde, xt, atol=1e-9)
    assert S.t0 == pytest.approx(t0, abs=1e-9)
    assert np.allclose(S.x0, x0, atol=1e-9)


def test_fit_symmetry_zero_profile():
    fg = FrequencyGrid(1, 4.0, 64)
    with pytest.raises(ValueError):
        fit_symmetry(FrequencyProfile(fg, np.zeros(64)))


def test_fit_symmetry_point_mass():
    # one nonzero sample has a centroid but no width
    samples = np.zeros(64)
    samples[20] = 1.0
    with pytest.raises(ValueError, match="degenerate point-mass profile"):
        fit_symmetry(FrequencyProfile(FrequencyGrid(1, 4.0, 64), samples))


# -- gradient -------------------------------------------------------------------

def test_gradient_matches_finite_differences(exponents_d1, rng):
    fg = FrequencyGrid(1, 8.0, 128)
    stg = SpacetimeGrid(1, 4.0, 10.0, 41, 65)
    f = gaussian_profile(fg, width=1.2)
    g = gaussian_profile(fg, width=0.8, center=0.3)
    shift = ParaboloidShift(0.5, (0.7,))
    gf, gg, _ = quotient_gradient(f, g, shift, exponents_d1, stg)
    eps = 1e-5
    worst = 0.0
    for _ in range(10):
        df = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        dg = rng.standard_normal(128) + 1j * rng.standard_normal(128)

        def q_at(s):
            fp = FrequencyProfile(fg, f.samples + s * eps * df)
            gp = FrequencyProfile(fg, g.samples + s * eps * dg)
            return quotient_gradient(fp, gp, shift, exponents_d1, stg)[2]

        fd = (q_at(1.0) - q_at(-1.0)) / (2.0 * eps)
        analytic = float(np.real((np.conj(gf) * df).sum() + (np.conj(gg) * dg).sum()))
        worst = max(worst, abs(fd - analytic) / abs(fd))
    assert worst < 1e-4  # observed ~4e-8


# -- optimizer ------------------------------------------------------------------

def test_boundary_mass_fraction():
    v = np.zeros(100)
    v[50] = 1.0
    assert _boundary_mass_fraction(v) == 0.0
    v[2] = 1.0
    assert _boundary_mass_fraction(v) == pytest.approx(0.5)


def test_ascent_is_monotone(exponents_d1):
    f = gaussian_profile(SEARCH_FGRID)
    traj = maximize_quotient_pair(
        f, f, ParaboloidShift(0.0, (1.0,)), exponents_d1, SEARCH_STG,
        opts=SearchOptions(max_steps=40),
    )
    qs = [it[1] for it in traj.iterates]
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
    assert traj.final_quotient == qs[-1]


def test_small_gain_ends_on_step_tolerance(exponents_d1, monkeypatch):
    monkeypatch.setattr(search, "STEP_TOLERANCE", 1e-3)
    f = gaussian_profile(SEARCH_FGRID)
    traj = maximize_quotient_pair(f, f, ZERO, exponents_d1, SEARCH_STG)
    qs = [it[1] for it in traj.iterates]
    assert traj.terminated_reason == "step_tolerance"
    assert len(qs) == 4
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    # the last step is the first to gain less than the tolerance, and it is kept
    gains = [(b - a) / a for a, b in zip(qs, qs[1:])]
    assert min(gains[:-1]) >= 1e-3 > gains[-1]
    assert traj.final_quotient == qs[-1]


def test_armijo_backtracks_a_rejected_step(exponents_d1, monkeypatch):
    # a coarse frequency grid under a window just inside its Nyquist limit:
    # the first trial step of one iterate fails the Armijo test and is halved
    calls = []
    pair_field = search._pair_field

    def counted(*args, **kwargs):
        calls.append(1)
        return pair_field(*args, **kwargs)

    monkeypatch.setattr(search, "_pair_field", counted)
    fg = FrequencyGrid(1, 40.0, 64)
    stg = SpacetimeGrid(1, 3.0, 0.9 * math.pi / fg.spacing, 33, 65)
    f = gaussian_profile(fg)
    traj = maximize_quotient_pair(f, f, ParaboloidShift(0.5, (1.0,)), exponents_d1, stg)
    qs = [it[1] for it in traj.iterates]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    # one evaluation per iterate, plus the one rejected trial step
    assert len(qs) == 5 and len(calls) == 6


def test_armijo_gives_up_when_every_trial_falls(exponents_d1, monkeypatch):
    # the start and the first trial step are evaluated honestly; from then on
    # every trial quotient falls to zero, so the second iterate's line search
    # halves the step down to MIN_BACKTRACK without accepting one
    calls = []
    pair_field = search._pair_field

    def falling(*args, **kwargs):
        calls.append(1)
        F, N = pair_field(*args, **kwargs)
        return F, N if len(calls) <= 2 else 0.0

    monkeypatch.setattr(search, "_pair_field", falling)
    f = gaussian_profile(SEARCH_FGRID)
    traj = maximize_quotient_pair(f, f, ParaboloidShift(0.0, (1.0,)), exponents_d1, SEARCH_STG)
    qs = [it[1] for it in traj.iterates]
    assert traj.terminated_reason == "step_tolerance"
    assert len(qs) == 2 and qs[1] > qs[0]
    assert traj.final_quotient == qs[-1]
    # one trial for each step 2^-k >= MIN_BACKTRACK
    halvings = sum(1 for k in range(64) if 0.5**k >= search.MIN_BACKTRACK)
    assert len(calls) == 2 + halvings


def test_nonzero_shift_exhausts_grid(exponents_d1):
    f = gaussian_profile(SEARCH_FGRID)
    traj = maximize_quotient_pair(
        f, f, ParaboloidShift(0.0, (1.0,)), exponents_d1, SEARCH_STG,
        opts=SearchOptions(max_steps=400),
    )
    assert traj.terminated_reason == "grid_exhausted"
    # the fitted scaling has drifted away from the start
    assert traj.iterates[-1][2].lam != pytest.approx(traj.iterates[0][2].lam, rel=1e-3)


def test_zero_shift_reaches_pair_identity(exponents_d1):
    """At shift (0,0) with f = g the pair quotient equals sqrt(2) times the
    single-operator quotient of the final iterate, exactly."""
    f = gaussian_profile(SEARCH_FGRID)
    traj = maximize_quotient_pair(
        f, f, ZERO, exponents_d1, SEARCH_STG, opts=SearchOptions(max_steps=400)
    )
    assert traj.terminated_reason == "grid_exhausted"
    qs = quotient_single(traj.f_final, exponents_d1, SEARCH_STG)
    assert traj.final_quotient == pytest.approx(
        math.sqrt(2.0) * qs.quotient, rel=1e-10
    )


def test_max_steps_termination(exponents_d1):
    f = gaussian_profile(SEARCH_FGRID)
    traj = maximize_quotient_pair(
        f, f, ZERO, exponents_d1, SEARCH_STG, opts=SearchOptions(max_steps=3)
    )
    assert traj.terminated_reason == "max_steps"
    assert len(traj.iterates) == 4
    # no step count leaves the trajectory without its starting iterate
    with pytest.raises(ValueError):
        SearchOptions(max_steps=-1)


@pytest.mark.parametrize("steps", [2.5, True, False, math.inf, math.nan, "3"])
def test_search_options_refuse_a_step_count_that_is_not_whole(steps):
    # the CLI's optimizer.max_steps refuses the same values
    with pytest.raises(ValueError, match="max_steps must be a non-negative whole number"):
        SearchOptions(max_steps=steps)


def test_search_options_take_a_whole_float_as_an_int():
    assert SearchOptions(max_steps=3.0).max_steps == 3
    assert type(SearchOptions(max_steps=np.int64(3)).max_steps) is int


def test_all_zero_profiles_refuse_before_the_search(exponents_d1, monkeypatch):
    def build_nothing(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(search, "ExtensionOperator", build_nothing)
    z = gaussian_profile(SEARCH_FGRID).scaled(0.0)
    with pytest.raises(ValueError, match="every profile is zero"):
        maximize_quotient_pair(z, z, ParaboloidShift(0.0, (1.0,)), exponents_d1, SEARCH_STG)


def test_zero_f_next_to_a_nonzero_g_refuses_before_the_search(exponents_d1, monkeypatch):
    # every iterate fits the symmetry of its f, which a zero f has none of
    def build_nothing(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(search, "ExtensionOperator", build_nothing)
    g = gaussian_profile(SEARCH_FGRID)
    with pytest.raises(ValueError, match="maximize_quotient_pair: f0 is zero"):
        maximize_quotient_pair(g.scaled(0.0), g, ParaboloidShift(0.0, (1.0,)), exponents_d1, SEARCH_STG)


def test_g_on_another_grid_refuses_before_the_search(exponents_d1, monkeypatch):
    # the pair is one state on f0's frequency grid
    def build_nothing(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(search, "ExtensionOperator", build_nothing)
    f = gaussian_profile(SEARCH_FGRID)
    for grid in (FrequencyGrid(1, 10.0, 128), FrequencyGrid(1, 8.0, 256), FrequencyGrid(1, 10.0, 256, center=(0.5,))):
        with pytest.raises(ValueError, match="maximize_quotient_pair: g0 lies on"):
            maximize_quotient_pair(f, gaussian_profile(grid), ParaboloidShift(0.0, (1.0,)), exponents_d1, SEARCH_STG)


def test_zero_g_next_to_a_nonzero_f_ascends(exponents_d1):
    # the gradient gives g mass from the first step on
    f = gaussian_profile(SEARCH_FGRID)
    traj = maximize_quotient_pair(f, f.scaled(0.0), ParaboloidShift(0.0, (1.0,)), exponents_d1, SEARCH_STG)
    qs = [it[1] for it in traj.iterates]
    assert len(qs) > 2 and all(b > a for a, b in zip(qs, qs[1:]))
    assert traj.iterates[0][4] == 0.0 and traj.iterates[1][4] > 0.0
    assert traj.terminated_reason == "grid_exhausted"


def test_p_not_2_rejected(exponents_d1):
    from parext.exponents import validate_exponents

    f = gaussian_profile(SEARCH_FGRID)
    e3 = validate_exponents(1, 3.0)
    with pytest.raises(ValueError):
        maximize_quotient_pair(f, f, ZERO, e3, SEARCH_STG)


# one warm-up ascent, then the minor page faults per iterate of a second
# ascent, on the SEARCH grids
FAULTS_PER_ITERATE = """
import resource
from parext.exponents import validate_exponents
from parext.extension import ParaboloidShift
from parext.grids import FrequencyGrid, SpacetimeGrid, gaussian_profile
from parext.search import maximize_quotient_pair

f = gaussian_profile(FrequencyGrid(1, 10.0, 256))
stg = SpacetimeGrid(1, 5.0, 15.0, 81, 129)
e = validate_exponents(1, 2.0)
ascend = lambda: maximize_quotient_pair(f, f, ParaboloidShift(0.0, (1.0,)), e, stg)
ascend()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
iterates = len(ascend().iterates)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / iterates)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc only")
def test_search_iterates_reuse_freed_pages():
    # _truncated_lq's 4 MB scratch (see _LQ_BLOCK_POINTS), once freed, lifts
    # glibc's mmap threshold above the per-call buffers of apply and
    # apply_adjoint, so later iterates take them from pages already mapped;
    # a fresh interpreter, with glibc's default malloc settings, starts from
    # the default threshold that earlier tests have moved in this one
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    root = os.path.dirname(os.path.dirname(parext.__file__))
    env["PYTHONPATH"] = os.pathsep.join([root, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_ITERATE], env=env, capture_output=True, text=True, check=True
    )
    assert float(out.stdout) < 10.0

"""Acceptance gate: one test per acceptance criterion, each emitting a single
pass/fail line with the measured figure of merit and the pinned tolerance."""

import math
import time

import numpy as np
import pytest

from conftest import (
    A2_D1,
    FROZEN_FGRID_D1,
    FROZEN_STG_D1,
    PAIR_FGRID,
    PAIR_STG,
    SEARCH_FGRID,
    SEARCH_STG,
    plancherel_slice_defect,
    quotient_gradient,
)
from parext.cli import main as cli_main
from parext.extension import ParaboloidShift
from parext.grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeGrid,
    bump_profile,
    gaussian_profile,
    lp_norm_frequency,
    superpose,
)
from parext.norms import _truncated_lq, quotient_pair, sharp_holder_gap
from parext.search import SearchOptions, maximize_quotient_pair
from parext.sequences import (
    build_separating_testfn,
    convergence_study,
    dilation_sequence,
    shifted_limit_test,
    weak_limit_diagnostics,
)
from parext.symmetry import Symmetry, pushthrough_shift, verify_intertwining

ZERO = ParaboloidShift(0.0, (0.0,))
LAMBDAS = [1.0, 0.5, 0.2, 0.1]


@pytest.fixture
def emit(capsys):
    """One pass/fail verdict line per criterion, printed past the capture."""

    def _emit(num: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}",
                  flush=True)
        assert ok, detail

    return _emit


def test_criterion_1_sharp_constant(frozen_quotient_d1, emit):
    res, seconds = frozen_quotient_d1
    rel = abs(res.quotient - A2_D1) / A2_D1
    ok = rel < 1e-3 and seconds < 120.0
    emit(1, ok, f"quotient {res.quotient:.6f} vs {A2_D1:.6f} "
                f"(rel err {rel:.2e}, tol 1e-3; {seconds:.1f}s < 120s)")


def test_criterion_2_convergence_limit(exponents_d1, emit):
    start = time.monotonic()
    f = gaussian_profile(FROZEN_FGRID_D1)
    details = []
    ok = True
    for shift in (ParaboloidShift(0.0, (1.0,)), ParaboloidShift(1.0, (0.0,))):
        study = convergence_study(f, shift, LAMBDAS, exponents_d1, FROZEN_STG_D1, threads=2)
        col = [row[1] for row in study.rows]
        increasing = all(b > a for a, b in zip(col, col[1:]))
        gap = abs(study.rows[-1][1] - study.target) / study.target
        ok = ok and increasing and gap < 0.03
        details.append(
            f"shift ({shift.tau0:g},{shift.xi0[0]:g}): "
            f"{'increasing' if increasing else 'NOT increasing'}, gap {gap:.2%}"
        )
    seconds = time.monotonic() - start
    ok = ok and seconds < 600.0
    emit(2, ok, "; ".join(details) + f" (tol 3%; {seconds:.0f}s < 600s)")


def _corpus(fg):
    g = lambda **k: gaussian_profile(fg, **k)  # noqa: E731
    b = lambda **k: bump_profile(fg, **k)  # noqa: E731
    return [
        g(), g(width=0.5), g(width=1.5), g(center=1.0), g(center=-0.7, width=0.8),
        g(chirp=0.5), g(chirp=1.0, width=1.2), g(phase_velocity=2.0),
        g(center=0.5, phase_velocity=-1.0), g(width=2.0),
        b(), b(radius=2.0), b(center=0.5, radius=1.5),
        superpose(b(center=-1.5), b(center=1.5)),
        superpose(b(center=-2.5), b(center=2.5)),
        superpose(b(center=-2.0, radius=1.5), b(center=2.0, radius=1.5)),
        g(width=0.7, chirp=-0.8), g(center=1.0, phase_velocity=1.0),
        superpose(g(), g(center=2.0, width=0.5)),
        b(center=-1.0, radius=0.8),
    ]


SHIFTS_5 = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, -1.0)]


def test_criterion_3_pair_bound_and_search(exponents_d1, frozen_quotient_d1, emit):
    bound_base = math.sqrt(2.0) * frozen_quotient_d1[0].quotient
    worst_margin = math.inf
    violations = 0
    for f in _corpus(PAIR_FGRID):
        for tau0, xi0 in SHIFTS_5:
            res = quotient_pair(
                f, f, ParaboloidShift(tau0, (xi0,)), exponents_d1, PAIR_STG, threads=2
            )
            margin = bound_base + res.certified_error() - res.quotient
            worst_margin = min(worst_margin, margin)
            if margin < 0.0:
                violations += 1

    f0 = gaussian_profile(SEARCH_FGRID)
    reasons = []
    for tau0, xi0 in SHIFTS_5[1:]:
        traj = maximize_quotient_pair(
            f0, f0, ParaboloidShift(tau0, (xi0,)), exponents_d1, SEARCH_STG,
            opts=SearchOptions(max_steps=400),
        )
        reasons.append(traj.terminated_reason)
    all_exhausted = all(r == "grid_exhausted" for r in reasons)

    ok = violations == 0 and all_exhausted
    emit(3, ok, f"100 pair quotients vs sqrt(2)*A2+cert: {violations} violations "
                f"(worst margin {worst_margin:+.4f}); nonzero-shift terminations "
                f"{set(reasons)} (need grid_exhausted)")


def test_criterion_4_weak_limit_diagnostics(exponents_d1, frozen_quotient_d1, emit):
    f = gaussian_profile(FROZEN_FGRID_D1)
    shift = ParaboloidShift(0.0, (1.0,))
    a_p = frozen_quotient_d1[0].quotient
    diags = [
        weak_limit_diagnostics(f_lam, f_lam, shift, exponents_d1, stg_lam, a_p_estimate=a_p, threads=2)
        for _, f_lam, stg_lam in dilation_sequence(f, LAMBDAS, 2.0, FROZEN_STG_D1)
    ]
    last = diags[-1]
    ratios = (last.ratio_first, last.ratio_second, last.ratio_third)
    ratios_ok = all(0.97 <= r <= 1.01 for r in ratios)
    gaps_ok = all(d.norm_gap == 0.0 for d in diags)
    fd = [d.field_difference for d in diags]
    fd_ok = all(b < a for a, b in zip(fd, fd[1:]))
    drops = [
        diags[0].weak_pairings[k][1] / diags[-1].weak_pairings[k][1]
        for k in range(len(diags[0].weak_pairings))
    ]
    pairings_ok = all(r >= 2.0 for r in drops)
    ok = ratios_ok and gaps_ok and fd_ok and pairings_ok
    emit(4, ok, f"ratios at lambda=0.1 ({ratios[0]:.4f}, {ratios[1]:.4f}, "
                f"{ratios[2]:.4f}) in [0.97, 1.01]; norm_gap==0: {gaps_ok}; "
                f"field_difference {fd[0]:.3f}->{fd[-1]:.3f} monotone: {fd_ok}; "
                f"pairing drops {[f'{r:.2f}x' for r in drops]} >= 2x")


def test_criterion_5_shifted_limits_and_separation(exponents_d1, emit):
    fg = FrequencyGrid(1, 10.0, 1024)
    stg = SpacetimeGrid(1, 2.0, 8.0, 129, 257)
    f = gaussian_profile(fg)
    fn = f.scaled(1.0 / lp_norm_frequency(f, 2.0))
    from parext.extension import extend

    ref_norm, = _truncated_lq(stg, (extend(fn, ZERO, stg),), 6.0)
    floor = 0.05 * ref_norm

    conv = [ParaboloidShift(2.0**-n, (2.0**-n,)) for n in range(1, 9)]
    res_conv = shifted_limit_test(f, ZERO, conv, exponents_d1, stg)
    conv_ok = res_conv[-1] < floor and all(b < a for a, b in zip(res_conv, res_conv[1:]))

    osc = [ParaboloidShift((-1.0) ** n, ((-1.0) ** n,)) for n in range(1, 9)]
    res_osc = shifted_limit_test(f, ZERO, osc, exponents_d1, stg)
    osc_ok = min(res_osc) > 10.0 * floor

    fg2 = FrequencyGrid(1, 10.0, 512)
    tf = build_separating_testfn(
        ParaboloidShift(0.0, (1.0,)), ParaboloidShift(0.0, (1.1,)),
        gaussian_profile(fg2), 0.5, 8.0,
    )
    sep_ok = tf.m1 > 0.5 and tf.m2 < 1e-6

    ok = conv_ok and osc_ok and sep_ok
    emit(5, ok, f"converging residual {res_conv[-1]/ref_norm:.2%} < 5%; "
                f"oscillating min {min(res_osc)/ref_norm:.0%} > 50%; "
                f"separating testfn m1={tf.m1:.3f} > 1/2, m2={tf.m2:.2g} < 1e-6")


def test_criterion_6_symmetry_algebra(exponents_d1, rng, emit):
    fg = FrequencyGrid(1, 6.0, 128)
    stg = SpacetimeGrid(1, 1.5, 2.0, 7, 9)
    f = gaussian_profile(fg)
    worst = 0.0
    for shift in (ZERO, ParaboloidShift(1.0, (1.0,))):
        for _ in range(50):
            lam = float(np.exp(rng.uniform(np.log(0.125), np.log(8.0))))
            S = Symmetry(
                lam,
                tuple(rng.uniform(-4, 4, 1)),
                float(rng.uniform(-4, 4)),
                tuple(rng.uniform(-4, 4, 1)),
            )
            worst = max(worst, verify_intertwining(S, f, shift, exponents_d1, stg))

    push_ok = True
    for _ in range(100):
        S = Symmetry(
            float(np.exp(rng.uniform(np.log(0.125), np.log(8.0)))),
            tuple(rng.uniform(-4, 4, 1)), 0.0, (0.0,),
        )
        sh = ParaboloidShift(float(rng.uniform(-3, 3)), tuple(rng.uniform(-3, 3, 1)))
        new = pushthrough_shift(S, sh)
        lit_tau = (sh.tau0 + 2.0 * sh.xi0[0] * S.xi_tilde[0]) / S.lam**2
        lit_xi = sh.xi0[0] / S.lam
        if not (
            math.isclose(new.tau0, lit_tau, rel_tol=1e-14, abs_tol=1e-14)
            and math.isclose(new.xi0[0], lit_xi, rel_tol=1e-14, abs_tol=1e-14)
        ):
            push_ok = False

    holder_ok = True
    for _ in range(1000):
        a, b = np.exp(rng.uniform(-6, 6, 2))
        gap = sharp_holder_gap(float(a), float(b), 2.0)
        if gap < -1e-12 * (a + b):
            holder_ok = False
        if abs(a - b) > 1e-6 * (a + b) and gap <= 0.0:
            holder_ok = False
    if abs(sharp_holder_gap(1.234, 1.234, 2.0)) > 1e-12:
        holder_ok = False

    ok = worst < 1e-4 and push_ok and holder_ok
    emit(6, ok, f"intertwining worst {worst:.2e} < 1e-4 over 100 draws; "
                f"pushthrough literal: {push_ok}; sharp-Hoelder 1000 pairs: {holder_ok}")


def test_criterion_7_numerical_hygiene(exponents_d1, rng, tmp_path, emit):
    f = gaussian_profile(FrequencyGrid(1, 8.0, 256), center=0.3, width=1.3)
    defect = plancherel_slice_defect(f, ParaboloidShift(0.5, (1.0,)), [0.0, 0.7, 3.3])

    fg = FrequencyGrid(1, 8.0, 128)
    stg = SpacetimeGrid(1, 4.0, 10.0, 41, 65)
    ff = gaussian_profile(fg, width=1.2)
    gg = gaussian_profile(fg, width=0.8, center=0.3)
    sh = ParaboloidShift(0.5, (0.7,))
    gf, ggrad, _ = quotient_gradient(ff, gg, sh, exponents_d1, stg)
    eps = 1e-5
    worst_fd = 0.0
    for _ in range(10):
        df = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        dg = rng.standard_normal(128) + 1j * rng.standard_normal(128)

        def q_at(s):
            fp = FrequencyProfile(fg, ff.samples + s * eps * df)
            gp = FrequencyProfile(fg, gg.samples + s * eps * dg)
            return quotient_gradient(fp, gp, sh, exponents_d1, stg)[2]

        fd = (q_at(1.0) - q_at(-1.0)) / (2.0 * eps)
        an = float(np.real((np.conj(gf) * df).sum() + (np.conj(ggrad) * dg).sum()))
        worst_fd = max(worst_fd, abs(fd - an) / abs(fd))

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "d: 1\np: 2.0\n"
        "grid: {l_xi: 8.0, n: 256, t: 3.0, x: 10.0, m: 33, n_x: 65}\n"
        "profile: {kind: gaussian, width: 1.0}\n"
        "profile_g: {kind: gaussian, width: 0.8}\n"
        "shift: {tau0: 0.0, xi0: [1.0]}\n"
    )
    blobs = []
    for i, threads in enumerate(("1", "4", "1")):
        out = tmp_path / f"out{i}"
        code = cli_main(
            ["quotient", "--config", str(cfg), "--out", str(out), "--threads", threads]
        )
        assert code == 0
        blobs.append(
            (out / "report.json").read_bytes() + (out / "quotient.csv").read_bytes()
        )
    identical = blobs[0] == blobs[1] == blobs[2]

    ok = defect < 1e-6 and worst_fd < 1e-4 and identical
    emit(7, ok, f"Plancherel defect {defect:.2e} < 1e-6; gradient FD worst "
                f"{worst_fd:.2e} < 1e-4; byte-identical CLI reruns: {identical}")

"""Extremizing sequences for the pair functional and their diagnostics:
dilation sequences, the limiting-quotient convergence study, weak-limit
ratio/pairing diagnostics, paraboloid-separation reports, the separating
test-function construction, shifted-operator limits, and the parameter
trend checks for sequences of symmetries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .exponents import Exponents
from .extension import ParaboloidShift, extend
from .grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeField,
    SpacetimeGrid,
    dilate_profile,
    lp_norm_frequency,
    plateau_bump,
    smooth_bump,
)
from .norms import _pair_terms, _truncated_lq, quotient_pair, quotient_single

SEPARATION_MAX_HALVINGS = 12  # halvings of s0 tried by build_separating_testfn
DUALITY_TAU_POINTS = 129  # tau nodes of the Psi_hat quadrature in pairing_duality
DIVERGE_THRESHOLD = 10.0  # final lambda_n that counts as diverging
VANISH_THRESHOLD = 1e-2  # final |b_n|, |c_n| that count as vanishing


# ---------------------------------------------------------------------------
# test functions for weak pairings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Smooth bump on (tau, xi) space, paired against profiles through the
    surface measure of a paraboloid: <f dsigma, psi> = integral of
    f(xi) psi(height(xi), xi) dxi."""

    __test__ = False  # not a test case, despite the name

    name: str
    tau_center: float
    xi_center: tuple
    radius: float

    def sample(self, tau: np.ndarray, xi_mesh: list) -> np.ndarray:
        r2 = (tau - self.tau_center) ** 2
        for m, c in zip(xi_mesh, self.xi_center):
            r2 = r2 + (m - c) ** 2
        return smooth_bump(np.sqrt(r2) / self.radius)


def default_test_functions(d: int) -> list:
    """Three fixed bumps near the origin-centered paraboloid's nose."""
    return [
        TestFunction("origin", 0.0, (0.0,) * d, 1.0),
        TestFunction("side", 0.25, (0.5,) + (0.0,) * (d - 1), 1.0),
        TestFunction("wide", 0.5, (0.0,) * d, 2.0),
    ]


def surface_pairing(f: FrequencyProfile, shift: ParaboloidShift, phi: TestFunction) -> complex:
    """<f dsigma_shift, psi>: frequency-side quadrature of f against the test
    function restricted to the shifted paraboloid."""
    mesh = f.grid.meshgrid()
    w = phi.sample(shift.height(mesh), mesh)
    return complex((f.samples * w).sum() * f.grid.cell_volume)


# ---------------------------------------------------------------------------
# dilation sequences and the limiting quotient
# ---------------------------------------------------------------------------

def dilation_sequence(f: FrequencyProfile, lambdas, p: float) -> list:
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("empty dilation list")
    return [dilate_profile(f, lam, p) for lam in lambdas]


def scaled_spacetime_grid(stg: SpacetimeGrid, lam: float) -> SpacetimeGrid:
    """Grid following the parabolic concentration of a lambda-dilate: the
    field of f_lambda lives at times ~ lambda^2 and positions ~ lambda."""
    return SpacetimeGrid(
        d=stg.d,
        t_half_width=lam**2 * stg.t_half_width,
        x_half_width=lam * stg.x_half_width,
        t_points=stg.t_points,
        x_points_per_axis=stg.x_points_per_axis,
    )


@dataclass
class ConvergenceStudy:
    rows: list  # (lambda, quotient, certified_error)
    a_p_estimate: float
    target: float  # 2^{1/p'} * a_p_estimate

    def final_gap(self) -> float:
        return abs(self.rows[-1][1] - self.target) / self.target


def convergence_study(
    f: FrequencyProfile,
    shift: ParaboloidShift,
    lambdas,
    e: Exponents,
    stg: SpacetimeGrid,
    threads: int = 1,
) -> ConvergenceStudy:
    """Quotient of the pair (f_lambda, f_lambda) against the shifted operator
    for each lambda, on parabolically rescaled grids, with the
    single-operator constant estimated on the same base grid."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("empty dilation list")
    a_p = quotient_single(f, e, stg, threads=threads).quotient
    target = 2.0 ** (1.0 / e.p_conj) * a_p
    rows = []
    for lam in lambdas:
        f_lam = dilate_profile(f, lam, e.p)
        stg_lam = scaled_spacetime_grid(stg, lam)
        res = quotient_pair(f_lam, f_lam, shift, e, stg_lam, threads=threads)
        rows.append((lam, res.quotient, res.certified_error()))
    return ConvergenceStudy(rows=rows, a_p_estimate=a_p, target=target)


# ---------------------------------------------------------------------------
# weak-limit diagnostics
# ---------------------------------------------------------------------------

@dataclass
class SequenceDiagnostics:
    ratio_first: float
    ratio_second: float
    ratio_third: float
    norm_gap: float
    field_difference: float
    weak_pairings: list  # (test-function name, |<f, phi>|, |<g, phi>|)


def weak_limit_diagnostics(
    f_n: FrequencyProfile,
    g_n: FrequencyProfile,
    shift: ParaboloidShift,
    e: Exponents,
    stg: SpacetimeGrid,
    a_p_estimate: float,
    threads: int = 1,
) -> SequenceDiagnostics:
    """All diagnostics of the weak-limit statement: the three limiting
    ratios against the single-operator constant ``a_p_estimate``, the norm
    gap, the field difference and the pairings with
    ``default_test_functions``."""
    nf, ng, den_p, field_f, field_g, num = _pair_terms(f_n, g_n, shift, e, stg, threads)
    nqf = _truncated_lq(field_f, e.q)
    nqg = _truncated_lq(field_g, e.q)
    diff = SpacetimeField(stg, field_f.samples - field_g.samples)
    field_difference = _truncated_lq(diff, e.q)

    ratio_first = num.value / (nqf + nqg)
    ratio_second = (nqf + nqg) / (a_p_estimate * (nf + ng))
    ratio_third = (nf + ng) / (2.0 ** (1.0 / e.p_conj) * den_p)

    zero = ParaboloidShift.zero(f_n.grid.d)
    pairings = []
    for phi in default_test_functions(f_n.grid.d):
        pf = abs(surface_pairing(f_n, zero, phi))
        pg = abs(surface_pairing(g_n, shift, phi))
        pairings.append((phi.name, pf, pg))

    return SequenceDiagnostics(
        ratio_first=ratio_first,
        ratio_second=ratio_second,
        ratio_third=ratio_third,
        norm_gap=nf - ng,
        field_difference=field_difference,
        weak_pairings=pairings,
    )


# ---------------------------------------------------------------------------
# paraboloid separation
# ---------------------------------------------------------------------------

@dataclass
class SeparationReport:
    zero_set_offset: float  # signed distance of the hyperplane from 0
    c_estimate: float
    s: float
    R: float
    degenerate: bool = False


def separation_height(xi_mesh: list, shift0: ParaboloidShift, shift_n: ParaboloidShift):
    """h(xi) = |xi - xi0|^2 - |xi - xi_n|^2 + tau0 - tau_n, in its affine
    form 2 xi . (xi_n - xi0) + |xi0|^2 + tau0 - |xi_n|^2 - tau_n."""
    a = shift_n.xi0_vec() - shift0.xi0_vec()
    b = (
        float(shift0.xi0_vec() @ shift0.xi0_vec())
        + shift0.tau0
        - float(shift_n.xi0_vec() @ shift_n.xi0_vec())
        - shift_n.tau0
    )
    return 2.0 * sum(ai * m for ai, m in zip(a, xi_mesh)) + b, a, b


def separation_report(
    shift0: ParaboloidShift,
    shift_n: ParaboloidShift,
    s: float,
    R: float,
    grid: FrequencyGrid,
) -> SeparationReport:
    """Sample the vertical separation h on {|xi| < R} and estimate
    c_{s,R} = inf |h| away from an s-neighborhood of the zero hyperplane."""
    if s <= 0 or R <= 0:
        raise ValueError("s and R must be positive")
    mesh = grid.meshgrid()
    h, a, b = separation_height(mesh, shift0, shift_n)
    # h(0) = b: the origin is as far from the hyperplane as the hyperplane
    # is from the origin
    origin = _hyperplane_distance(b, a)
    if origin == math.inf:
        # a = 0 exactly when xi0 = xi_n; b is summed in floating point and
        # need not vanish for equal shifts, so compare the shifts themselves
        if shift0 == shift_n:
            return SeparationReport(math.nan, 0.0, s, R, degenerate=True)
        # pure tau-shift: constant separation, no hyperplane within reach
        return SeparationReport(math.inf, abs(b), s, R)

    ball = sum(m**2 for m in mesh) < R**2
    region = ball & (_hyperplane_distance(h, a) > s)
    c = float(np.abs(h[region]).min()) if np.any(region) else math.inf
    # signed along a: the hyperplane lies on the +a side of 0 when b < 0
    return SeparationReport(-math.copysign(origin, b), c, s, R)


def _hyperplane_distance(h, a: np.ndarray):
    """|h| / (2 |a|): the distance from the zero hyperplane of the
    separation h = 2 a . xi + b of the points where it takes the values
    ``h`` (infinite for a pure tau-shift, a = 0, which has no hyperplane)."""
    anorm = float(np.sqrt(a @ a))
    if anorm == 0.0:
        return np.full(np.shape(h), np.inf)
    return np.abs(h) / (2.0 * anorm)


@dataclass
class SeparatingTestfn:
    m1: float
    m2: float
    s0: float
    c: float
    phi: FrequencyProfile
    shift0: ParaboloidShift
    shift_n: ParaboloidShift

    def sample(self, tau, xi_mesh):
        """Psi(tau, xi): plateau cutoff around the reference paraboloid,
        times the complement cutoff off the hyperplane, times Phi.  The
        points are those of phi's own frequency grid: ``xi_mesh`` is that
        grid's mesh (or broadcasts to it) and ``tau`` broadcasts against it."""
        fac1 = plateau_bump(3.0 * (tau - self.shift0.height(xi_mesh)) / self.c)
        h, a, _ = separation_height(xi_mesh, self.shift0, self.shift_n)
        dist = _hyperplane_distance(h, a)
        fac2 = 1.0 - plateau_bump(dist / (2.0 * self.s0))
        return fac1 * fac2 * self.phi.samples


def _mollify(samples: np.ndarray) -> np.ndarray:
    """One Gaussian smoothing pass at two-cell width."""
    re = ndimage.gaussian_filter(samples.real, sigma=2.0)
    im = ndimage.gaussian_filter(samples.imag, sigma=2.0)
    return re + 1j * im


def build_separating_testfn(
    shift0: ParaboloidShift,
    shift_n: ParaboloidShift,
    f: FrequencyProfile,
    s0: float,
    R: float,
) -> SeparatingTestfn:
    """Assemble the separating test function

        Psi(tau, xi) = eta(3 (tau - tau0 - |xi-xi0|^2) / c) *
                       [1 - eta(dist(xi, A_n) / (2 s0))] * Phi(xi)

    with eta a plateau bump and Phi the mollified conjugate of f on the
    R-ball, shrinking s0 until the hyperplane cutoff costs less than 1/4 of
    Phi's pairing with f.  Returns the margins
    m1 = |<f dsigma, Psi>| and m2 = sup |Psi| on the other paraboloid.
    """
    p = 2.0  # pairing margins quoted for the Hilbert-space normalization
    pc = 2.0
    nf = lp_norm_frequency(f, p)
    if nf == 0.0:
        raise ValueError("zero profile")
    f = f.scaled(1.0 / nf)

    mesh = f.grid.meshgrid()
    ball = sum(m**2 for m in mesh) < R**2

    phi = FrequencyProfile(f.grid, _mollify(np.conj(f.samples) * ball))
    nphi = lp_norm_frequency(phi, pc)
    if nphi == 0.0:
        raise ValueError("degenerate pairing profile")
    phi = phi.scaled(1.0 / nphi)

    pairing0 = abs(complex((f.samples * phi.samples).sum() * f.grid.cell_volume))
    if pairing0 <= 0.75:
        raise ValueError(
            f"pairing profile captures only {pairing0:.3f} of the profile (need > 3/4)"
        )

    # shrink s0 until the cutoff-corrected pairing clears 1/2
    h, a, _ = separation_height(mesh, shift0, shift_n)
    dist = _hyperplane_distance(h, a)
    s_cur = s0
    for _ in range(SEPARATION_MAX_HALVINGS + 1):
        cut = 1.0 - plateau_bump(dist / (2.0 * s_cur))
        lost = phi.samples * (1.0 - cut)
        lost_norm = float((np.abs(lost) ** pc).sum() * f.grid.cell_volume) ** (1.0 / pc)
        if lost_norm < 0.25:
            break
        s_cur /= 2.0
    else:
        raise ValueError("hyperplane cutoff never cleared the 1/4 budget")

    # coinciding paraboloids have no hyperplane, so the loop stops at once
    rep = separation_report(shift0, shift_n, s_cur, R, f.grid)
    if rep.degenerate:
        raise ValueError("degenerate separation: the paraboloids coincide")
    if not np.isfinite(rep.c_estimate) or rep.c_estimate <= 0.0:
        raise ValueError("no positive separation away from the hyperplane")

    tf = SeparatingTestfn(
        m1=0.0, m2=0.0, s0=s_cur, c=rep.c_estimate, phi=phi,
        shift0=shift0, shift_n=shift_n,
    )
    # m1: pairing of f against Psi restricted to the reference paraboloid
    psi_on_p0 = tf.sample(shift0.height(mesh), mesh)
    tf.m1 = abs(complex((f.samples * psi_on_p0).sum() * f.grid.cell_volume))

    # m2: sup of |Psi| along the other paraboloid over the R-ball
    psi_on_pn = np.abs(tf.sample(shift_n.height(mesh), mesh))
    tf.m2 = float(psi_on_pn[ball].max()) if np.any(ball) else 0.0
    return tf


def pairing_duality(
    f: FrequencyProfile,
    g: FrequencyProfile,
    shift0: ParaboloidShift,
    shift_n: ParaboloidShift,
    tf: SeparatingTestfn,
    e: Exponents,
    stg: SpacetimeGrid,
) -> tuple:
    """Numerical form of the contradiction step: returns
    (|<f dsigma, Psi>|, ||E_shift0 f - E_shift_n g||_q * ||Psi_hat||_q' ,
    |<g dsigma', Psi>|); the first is bounded by the sum of the others.

    Psi_hat is the spacetime transform of the separating test function,
    computed by direct quadrature on its compact (tau, xi) support box;
    implemented for d = 1 only.
    """
    grid = f.grid
    if grid.d != 1:
        raise ValueError("pairing duality check implemented for d = 1")
    mesh = grid.meshgrid()
    height0 = shift0.height(mesh)

    lhs = abs(complex((f.samples * tf.sample(height0, mesh)).sum() * grid.cell_volume))
    psi_n = tf.sample(shift_n.height(mesh), mesh)
    pair_g = abs(complex((g.samples * psi_n).sum() * grid.cell_volume))

    # field-difference factor
    fld0 = extend(f, shift0, stg)
    fldn = extend(g, shift_n, stg)
    diff = SpacetimeField(stg, fld0.samples - fldn.samples)
    fd = _truncated_lq(diff, e.q)

    # ||Psi_hat||_{q'} on the same spacetime window
    tau_lo = float(height0.min()) - tf.c
    tau_hi = float(height0.max()) + tf.c
    tau = np.linspace(tau_lo, tau_hi, DUALITY_TAU_POINTS)
    xi = grid.axis_points()
    psi = tf.sample(tau[:, None], [xi[None, :]])
    t = stg.t_axis
    x = stg.x_axis
    Et = np.exp(1j * np.outer(t, tau)) * (tau[1] - tau[0])
    Ex = np.exp(1j * np.outer(xi, x)) * grid.spacing
    psi_hat = Et @ psi @ Ex
    psi_norm = _truncated_lq(SpacetimeField(stg, psi_hat), e.q / (e.q - 1.0))

    return lhs, fd * psi_norm, pair_g


# ---------------------------------------------------------------------------
# shifted-operator limits and symmetry-parameter trends
# ---------------------------------------------------------------------------

def shifted_limit_test(
    f: FrequencyProfile,
    shift0: ParaboloidShift,
    shifts,
    e: Exponents,
    stg: SpacetimeGrid,
    threads: int = 1,
) -> list:
    """Residuals ||E_shift0 f - E_shift_n f||_q per n (f normalized in L^p)."""
    nf = lp_norm_frequency(f, e.p)
    if nf == 0.0:
        raise ValueError("zero profile")
    f = f.scaled(1.0 / nf)
    ref = extend(f, shift0, stg, threads=threads)
    out = []
    for sh in shifts:
        fld = extend(f, sh, stg, threads=threads)
        diff = SpacetimeField(stg, ref.samples - fld.samples)
        out.append(_truncated_lq(diff, e.q))
    return out


@dataclass
class SequenceConditionReport:
    rows: list  # (lambda_n, b_n = lambda^-2 xi0.xt_n, c_n = |lambda_n t_n xi0|)
    verdicts: dict  # {"lambda_diverges": bool, "b_vanishes": bool, "c_vanishes": bool}


def check_sequence_conditions(
    symmetries: list,
    shift: ParaboloidShift,
) -> SequenceConditionReport:
    """Literal arithmetic on a sequence of symmetry parameters plus
    monotone-trend verdicts over the last half of the sequence."""
    if not symmetries:
        raise ValueError("empty symmetry list")
    xi0 = shift.xi0_vec()
    rows = []
    for S in symmetries:
        lam = S.lam
        b = float(xi0 @ S.xi_tilde_vec()) / lam**2
        c = float(np.sqrt(((lam * S.t0 * xi0) ** 2).sum()))
        rows.append((lam, b, c))

    def trend(vals, increasing):
        tail = vals[len(vals) // 2 :]
        if len(tail) < 2:
            tail = vals
        steps = np.diff(tail)
        return bool(np.all(steps >= 0) if increasing else np.all(np.abs(tail[1:]) <= np.abs(tail[:-1])))

    lams = np.array([r[0] for r in rows])
    bs = np.array([r[1] for r in rows])
    cs = np.array([r[2] for r in rows])
    verdicts = {
        "lambda_diverges": trend(lams, True) and lams[-1] > DIVERGE_THRESHOLD,
        "b_vanishes": trend(bs, False) and abs(bs[-1]) < VANISH_THRESHOLD,
        "c_vanishes": trend(cs, False) and abs(cs[-1]) < VANISH_THRESHOLD,
    }
    return SequenceConditionReport(rows=rows, verdicts=verdicts)

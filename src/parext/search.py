"""Projected gradient ascent on the pair quotient, and the moment-matching
symmetry fit used to track where the iterates drift.

The optimizer works at p = 2 where the functional's derivative is clean:
with F = A_f f + A_g g the Euclidean gradient of ||F||_q^q with respect to
the profile samples is q A^H (w |F|^{q-2} F), using the operator's exact
discrete adjoint, so finite-difference checks hold to quadrature precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import Exponents
from .extension import ExtensionOperator, ParaboloidShift
from .grids import (
    FrequencyProfile,
    SpacetimeGrid,
    profile_centroid,
    profile_second_moment,
)
from .symmetry import Symmetry

ARMIJO_C = 1e-4
CANONICAL_WIDTH = 0.5  # std of |f|^2 for the width-1 reference profile e^{-xi^2}


@dataclass
class SearchOptions:
    max_steps: int = 200
    step_tolerance: float = 2e-6  # relative Q improvement per accepted step
    boundary_mass_limit: float = 1e-3  # |f|^2 fraction in the outer shell
    boundary_shell: float = 0.1  # outer fraction of the grid per axis
    min_backtrack: float = 1e-12


@dataclass
class SearchTrajectory:
    iterates: list  # (k, Q_k, fitted Symmetry for f, ||f||_2, ||g||_2)
    terminated_reason: str  # step_tolerance | max_steps | grid_exhausted
    f_final: FrequencyProfile = None  # type: ignore[assignment]
    g_final: FrequencyProfile = None  # type: ignore[assignment]

    @property
    def final_quotient(self) -> float:
        return self.iterates[-1][1]


def _boundary_mass_fraction(samples: np.ndarray, shell: float) -> float:
    w = np.abs(samples) ** 2
    total = w.sum()
    if total == 0.0:
        return 0.0
    n = samples.shape[0]
    k = max(1, int(round(shell * n)))
    inner = w
    for axis in range(samples.ndim):
        sl = [slice(None)] * samples.ndim
        sl[axis] = slice(k, n - k)
        inner = inner[tuple(sl)]
    return float(1.0 - inner.sum() / total)


def maximize_quotient_pair(
    f0: FrequencyProfile,
    g0: FrequencyProfile,
    shift: ParaboloidShift,
    e: Exponents,
    stg: SpacetimeGrid,
    opts: SearchOptions = None,
    threads: int = 1,
) -> SearchTrajectory:
    """Ascend Q(f,g) = ||A_f f + A_g g||_q / (||f||_2^2 + ||g||_2^2)^{1/2}
    with renormalization to the unit sphere after every step.

    Terminates on step_tolerance (converged), max_steps, or grid_exhausted —
    the iterate's mass reaching the frequency-grid boundary, the discrete
    signature of the maximizing sequence running off along the scaling
    direction.
    """
    if e.p != 2.0:
        raise ValueError("the optimizer requires p = 2")
    if opts is None:
        opts = SearchOptions()
    d = f0.grid.d
    zero = ParaboloidShift(0.0, (0.0,) * d)
    op_f = ExtensionOperator(f0.grid, zero, stg)
    op_g = ExtensionOperator(g0.grid, shift, stg)
    vol_f = f0.grid.cell_volume
    vol_g = g0.grid.cell_volume

    wt = stg.t_weights()
    wx = stg.x_weights()
    w = wt.reshape((-1,) + (1,) * d)
    for _ in range(d):
        w = w * wx  # broadcasting builds the tensor weight

    q = e.q

    def normalize(fs, gs):
        n2 = (np.abs(fs) ** 2).sum() * vol_f + (np.abs(gs) ** 2).sum() * vol_g
        s = 1.0 / math.sqrt(n2)
        return fs * s, gs * s

    def field_of(fs, gs):
        return op_f.apply(fs, threads=threads) + op_g.apply(gs, threads=threads)

    def norm_q(F):
        return float((w * np.abs(F) ** q).sum()) ** (1.0 / q)

    fs, gs = normalize(np.array(f0.samples), np.array(g0.samples))
    F = field_of(fs, gs)
    Q = norm_q(F)

    iterates = []
    reason = "max_steps"

    for k in range(opts.max_steps + 1):
        prof_f = FrequencyProfile(f0.grid, fs)
        nf = math.sqrt((np.abs(fs) ** 2).sum() * vol_f)
        ng = math.sqrt((np.abs(gs) ** 2).sum() * vol_g)
        iterates.append((k, Q, fit_symmetry(prof_f, 2.0), nf, ng))

        bmass = max(
            _boundary_mass_fraction(fs, opts.boundary_shell),
            _boundary_mass_fraction(gs, opts.boundary_shell),
        )
        if bmass > opts.boundary_mass_limit:
            reason = "grid_exhausted"
            break
        if k == opts.max_steps:
            reason = "max_steps"
            break

        # gradient of Q = N / D on the unit sphere (D = 1 after normalization)
        Phi = w * np.abs(F) ** (q - 2.0) * F
        gN_f = q * op_f.apply_adjoint(Phi)
        gN_g = q * op_g.apply_adjoint(Phi)
        scale = 1.0 / (q * Q ** (q - 1.0))
        grad_f = gN_f * scale - Q * fs * vol_f
        grad_g = gN_g * scale - Q * gs * vol_g
        gnorm2 = float((np.abs(grad_f) ** 2).sum() + (np.abs(grad_g) ** 2).sum())
        if gnorm2 == 0.0:
            reason = "step_tolerance"
            break

        alpha = 1.0
        accepted = False
        while alpha >= opts.min_backtrack:
            fn, gn = normalize(fs + alpha * grad_f, gs + alpha * grad_g)
            Fn = field_of(fn, gn)
            Qn = norm_q(Fn)
            if Qn >= Q + ARMIJO_C * alpha * gnorm2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            reason = "step_tolerance"
            break
        rel_gain = (Qn - Q) / Q
        fs, gs, F, Q = fn, gn, Fn, Qn
        if rel_gain < opts.step_tolerance:
            prof_f = FrequencyProfile(f0.grid, fs)
            nf = math.sqrt((np.abs(fs) ** 2).sum() * vol_f)
            ng = math.sqrt((np.abs(gs) ** 2).sum() * vol_g)
            iterates.append((k + 1, Q, fit_symmetry(prof_f, 2.0), nf, ng))
            reason = "step_tolerance"
            break

    return SearchTrajectory(
        iterates=iterates,
        terminated_reason=reason,
        f_final=FrequencyProfile(f0.grid, fs),
        g_final=FrequencyProfile(g0.grid, gs),
    )


def quotient_gradient(
    f: FrequencyProfile,
    g: FrequencyProfile,
    shift: ParaboloidShift,
    e: Exponents,
    stg: SpacetimeGrid,
) -> tuple:
    """Euclidean gradient of the pair quotient at (f, g) plus the quotient
    value; exposed for finite-difference validation."""
    if e.p != 2.0:
        raise ValueError("gradient available only at p = 2")
    d = f.grid.d
    zero = ParaboloidShift(0.0, (0.0,) * d)
    op_f = ExtensionOperator(f.grid, zero, stg)
    op_g = ExtensionOperator(g.grid, shift, stg)
    wt = stg.t_weights()
    wx = stg.x_weights()
    w = wt.reshape((-1,) + (1,) * d)
    for _ in range(d):
        w = w * wx
    q = e.q
    F = op_f.apply(f.samples) + op_g.apply(g.samples)
    N = float((w * np.abs(F) ** q).sum()) ** (1.0 / q)
    D2 = (np.abs(f.samples) ** 2).sum() * f.grid.cell_volume + (
        np.abs(g.samples) ** 2
    ).sum() * g.grid.cell_volume
    D = math.sqrt(D2)
    Q = N / D
    Phi = w * np.abs(F) ** (q - 2.0) * F
    gN_f = op_f.apply_adjoint(Phi) / N ** (q - 1.0)
    gN_g = op_g.apply_adjoint(Phi) / N ** (q - 1.0)
    grad_f = gN_f / D - (N / D**3) * f.samples * f.grid.cell_volume
    grad_g = gN_g / D - (N / D**3) * g.samples * g.grid.cell_volume
    return grad_f, grad_g, Q


def fit_symmetry(f: FrequencyProfile, p: float) -> Symmetry:
    """Moment-matching estimate of the symmetry carrying the canonical
    centered width-1 profile onto f: scaling from the |f|^p width, frequency
    translation from the centroid, spacetime translation from a weighted
    least-squares fit of the local phase gradient."""
    w = np.abs(f.samples) ** p
    total = w.sum()
    if total == 0.0:
        raise ValueError("zero profile")
    d = f.grid.d
    sigma = math.sqrt(profile_second_moment(f, p) / d)
    if sigma == 0.0:
        raise ValueError("degenerate point-mass profile")
    lam = CANONICAL_WIDTH / sigma
    centroid = profile_centroid(f, p)
    xi_tilde = lam * centroid

    # phase gradient from adjacent-sample phase increments — exact for the
    # model's quadratic phase t0 |lam xi - xi_tilde|^2 + x0 . (lam xi - xi_tilde)
    h = f.grid.spacing
    mesh = f.grid.meshgrid()
    rows = []
    rhs = []
    wts = []
    for axis in range(d):
        lead = tuple(slice(1, None) if a == axis else slice(None) for a in range(d))
        lag = tuple(slice(None, -1) if a == axis else slice(None) for a in range(d))
        prod = f.samples[lead] * np.conj(f.samples[lag])
        wp = np.abs(prod)
        mask = wp > 1e-8 * wp.max()
        pg = np.angle(prod[mask]) / h
        z_mid = lam * (mesh[axis][lead][mask] - 0.5 * h) - xi_tilde[axis]
        cols = np.zeros((z_mid.size, d + 1))
        cols[:, 0] = 2.0 * lam * z_mid
        cols[:, 1 + axis] = lam
        rows.append(cols)
        rhs.append(pg)
        wts.append(wp[mask])
    A = np.concatenate(rows)
    b = np.concatenate(rhs)
    ww = np.sqrt(np.concatenate(wts))
    sol, *_ = np.linalg.lstsq(A * ww[:, None], b * ww, rcond=None)
    t0 = float(sol[0])
    x0 = tuple(float(v) for v in sol[1:])
    return Symmetry(lam, tuple(xi_tilde), t0, x0)

"""Projected gradient ascent on the pair quotient, and the moment-matching
symmetry fit used to track where the iterates drift.

The optimizer works at p = 2 where the functional's derivative is clean:
with F = A_f f + A_g g the Euclidean gradient of ||F||_q^q with respect to
the profile samples is q A^H (w |F|^{q-2} F), using the operator's exact
discrete adjoint, so finite-difference checks hold to quadrature precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import Exponents
from .extension import ExtensionOperator, ParaboloidShift
from .grids import (
    FrequencyProfile,
    SpacetimeGrid,
    _profile_moments,
)
from .norms import _truncated_lq
from .symmetry import Symmetry

ARMIJO_C = 1e-4
MIN_BACKTRACK = 1e-12  # smallest Armijo step tried before giving up
BOUNDARY_SHELL = 0.1  # outer fraction of the grid per axis
BOUNDARY_MASS_LIMIT = 1e-3  # |f|^2 fraction in the outer shell that exhausts the grid
STEP_TOLERANCE = 2e-6  # relative Q gain of an accepted step that ends the ascent
CANONICAL_WIDTH = 0.5  # std of |f|^2 for the width-1 reference profile e^{-xi^2}


@dataclass
class SearchOptions:
    max_steps: int = 200

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")


@dataclass
class SearchTrajectory:
    iterates: list  # (k, Q_k, fitted Symmetry for f, ||f||_2, ||g||_2)
    terminated_reason: str  # step_tolerance | max_steps | grid_exhausted
    f_final: FrequencyProfile = None  # type: ignore[assignment]

    @property
    def final_quotient(self) -> float:
        return self.iterates[-1][1]


def _boundary_mass_fraction(samples: np.ndarray) -> float:
    """The share of |samples|^2 in the outer BOUNDARY_SHELL of the grid
    along any axis; 0 for a zero profile."""
    w = np.abs(samples) ** 2
    total = w.sum()
    if total == 0.0:
        return 0.0
    n = samples.shape[0]
    k = max(1, int(round(BOUNDARY_SHELL * n)))
    inner = w
    for axis in range(samples.ndim):
        sl = [slice(None)] * samples.ndim
        sl[axis] = slice(k, n - k)
        inner = inner[tuple(sl)]
    return float(1.0 - inner.sum() / total)


def _pair_field(op_f, op_g, fs, gs, q: float, threads: int = 1) -> tuple:
    """The field F = A_f f + A_g g and its truncated norm N = ||F||_q."""
    F = op_f.apply(fs, threads=threads)
    F += op_g.apply(gs, threads=threads)
    return F, _truncated_lq(op_f.stg, (F,), q, threads=threads)[0]


def _pair_gradient(op_f, op_g, fs, gs, F, N: float, q: float) -> tuple:
    """Euclidean gradient of Q = N / D at (f, g), D^2 = ||f||_2^2 + ||g||_2^2,
    from the field F and norm N of ``_pair_field``, plus Q itself:
    grad_f Q = A_f^H (w |F|^{q-2} F) / (N^{q-1} D) - N f dxi^d / D^3, with w
    the trapezoid weights, and likewise for g."""
    stg = op_f.stg
    vol_f = op_f.fgrid.cell_volume
    vol_g = op_g.fgrid.cell_volume
    D = math.sqrt((np.abs(fs) ** 2).sum() * vol_f + (np.abs(gs) ** 2).sum() * vol_g)
    Phi = np.abs(F) ** (q - 2.0) * F
    Phi *= stg.t_weights().reshape((-1,) + (1,) * stg.d)
    for a in range(stg.d):
        Phi *= stg.x_weights().reshape((-1,) + (1,) * (stg.d - 1 - a))
    scale = 1.0 / (N ** (q - 1.0) * D)
    grad_f = op_f.apply_adjoint(Phi) * scale - (N / D**3) * fs * vol_f
    grad_g = op_g.apply_adjoint(Phi) * scale - (N / D**3) * gs * vol_g
    return grad_f, grad_g, N / D


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
    direction.  Refuses with ValueError, before any operator is built, when
    both profiles are zero, or f0 is: every iterate fits the symmetry of its
    f, which a zero profile has none of.
    """
    if e.p != 2.0:
        raise ValueError("the optimizer requires p = 2")
    if not (f0.samples.any() or g0.samples.any()):
        raise ValueError("every profile is zero")
    if not f0.samples.any():
        raise ValueError(
            "maximize_quotient_pair: f0 is zero, and the search fits the symmetry of f at every iterate"
        )
    if opts is None:
        opts = SearchOptions()
    op_f = ExtensionOperator(f0.grid, ParaboloidShift.zero(f0.grid.d), stg)
    op_g = ExtensionOperator(g0.grid, shift, stg)
    vol_f = f0.grid.cell_volume
    vol_g = g0.grid.cell_volume
    q = e.q

    def normalize(fs, gs):
        n2 = (np.abs(fs) ** 2).sum() * vol_f + (np.abs(gs) ** 2).sum() * vol_g
        s = 1.0 / math.sqrt(n2)
        return fs * s, gs * s

    # on the unit sphere D = 1, so Q is the numerator N
    fs, gs = normalize(np.array(f0.samples), np.array(g0.samples))
    F, Q = _pair_field(op_f, op_g, fs, gs, q, threads)

    iterates = []
    converged = False
    for k in range(opts.max_steps + 1):
        nf = math.sqrt((np.abs(fs) ** 2).sum() * vol_f)
        ng = math.sqrt((np.abs(gs) ** 2).sum() * vol_g)
        iterates.append((k, Q, fit_symmetry(FrequencyProfile(f0.grid, fs)), nf, ng))
        if converged:
            reason = "step_tolerance"
            break

        if max(_boundary_mass_fraction(fs), _boundary_mass_fraction(gs)) > BOUNDARY_MASS_LIMIT:
            reason = "grid_exhausted"
            break
        if k == opts.max_steps:
            reason = "max_steps"
            break

        grad_f, grad_g, _ = _pair_gradient(op_f, op_g, fs, gs, F, Q, q)
        gnorm2 = float((np.abs(grad_f) ** 2).sum() + (np.abs(grad_g) ** 2).sum())
        if gnorm2 == 0.0:
            reason = "step_tolerance"
            break

        alpha = 1.0
        accepted = False
        while alpha >= MIN_BACKTRACK:
            fn, gn = normalize(fs + alpha * grad_f, gs + alpha * grad_g)
            Fn = None  # a rejected candidate's field goes before the next is made
            Fn, Qn = _pair_field(op_f, op_g, fn, gn, q, threads)
            if Qn >= Q + ARMIJO_C * alpha * gnorm2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            reason = "step_tolerance"
            break
        # a step that gains too little is recorded, then ends the ascent
        converged = (Qn - Q) / Q < STEP_TOLERANCE
        fs, gs, F, Q = fn, gn, Fn, Qn

    return SearchTrajectory(
        iterates=iterates,
        terminated_reason=reason,
        f_final=FrequencyProfile(f0.grid, fs),
    )


def fit_symmetry(f: FrequencyProfile) -> Symmetry:
    """Moment-matching estimate of the symmetry carrying the canonical
    centered width-1 profile onto f: scaling from the |f|^2 width, frequency
    translation from the centroid, spacetime translation from a weighted
    least-squares fit of the local phase gradient."""
    d = f.grid.d
    # a zero profile has no moments and raises ValueError there
    mesh, centroid, second_moment = _profile_moments(f)
    sigma = math.sqrt(second_moment / d)
    if sigma == 0.0:
        raise ValueError("degenerate point-mass profile")
    lam = CANONICAL_WIDTH / sigma
    xi_tilde = lam * centroid

    # phase gradient from adjacent-sample phase increments — exact for the
    # model's quadratic phase t0 |lam xi - xi_tilde|^2 + x0 . (lam xi - xi_tilde)
    h = f.grid.spacing
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

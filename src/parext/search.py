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
    _as_whole,
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
        steps = _as_whole(self.max_steps)
        if steps is None or steps < 0:
            raise ValueError(f"max_steps must be a non-negative whole number, got {self.max_steps!r}")
        self.max_steps = steps


@dataclass
class SearchTrajectory:
    iterates: list  # (k, Q_k, fitted Symmetry for f, ||f||_2, ||g||_2)
    terminated_reason: str  # step_tolerance | max_steps | grid_exhausted
    f_final: FrequencyProfile

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
    inner = w[(slice(k, n - k),) * samples.ndim]
    return float(1.0 - inner.sum() / total)


def _masses(u: np.ndarray, vol: float) -> tuple:
    """||f||_2^2 and ||g||_2^2 of the pair state u = (f, g), cells of volume ``vol``."""
    return tuple((np.abs(v) ** 2).sum() * vol for v in u)


def _pair_field(ops: tuple, u: np.ndarray, q: float, threads: int = 1) -> tuple:
    """The field F = A_f f + A_g g of u = (f, g), ``ops`` = (A_f, A_g), and its norm N = ||F||_q."""
    F = ops[0].apply(u[0], threads=threads)
    F += ops[1].apply(u[1], threads=threads)
    return F, _truncated_lq(ops[0].stg, (F,), q, threads=threads)[0]


def _pair_gradient(ops: tuple, u: np.ndarray, F, N: float, q: float) -> tuple:
    """Euclidean gradient of Q = N / D at u = (f, g), D^2 = ||f||_2^2 + ||g||_2^2,
    from the field F and norm N of ``_pair_field``, plus Q itself:
    grad_f Q = A_f^H (w |F|^{q-2} F) / (N^{q-1} D) - N f dxi^d / D^3, with w
    the trapezoid weights, and likewise for g, stacked as u is."""
    stg = ops[0].stg
    vol = ops[0].fgrid.cell_volume
    D = math.sqrt(sum(_masses(u, vol)))
    Phi = np.abs(F) ** (q - 2.0) * F
    Phi *= stg.t_weights().reshape((-1,) + (1,) * stg.d)
    for a in range(stg.d):
        Phi *= stg.x_weights().reshape((-1,) + (1,) * (stg.d - 1 - a))
    scale = 1.0 / (N ** (q - 1.0) * D)
    grad = np.stack([op.apply_adjoint(Phi) for op in ops]) * scale - (N / D**3) * u * vol
    return grad, N / D


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
    over pairs u = (f, g) on f0's frequency grid, renormalized to the unit
    sphere after every step.

    Terminates on step_tolerance (converged), max_steps, or grid_exhausted —
    the iterate's mass reaching the frequency-grid boundary, the discrete
    signature of the maximizing sequence running off along the scaling
    direction.  Refuses with ValueError, before any operator is built, exponents
    of another dimension than ``stg``, a g0 on another grid, and a zero f0:
    every iterate fits the symmetry of its f, which a zero profile has none of.
    """
    if e.p != 2.0:
        raise ValueError("the optimizer requires p = 2")
    e.check_dimension(stg.d)
    if g0.grid != f0.grid:
        raise ValueError(f"maximize_quotient_pair: g0 lies on {g0.grid}, f0 on {f0.grid}")
    if not f0.samples.any():
        raise ValueError("maximize_quotient_pair: f0 is zero, and the search fits the symmetry of f at every iterate"
                         if g0.samples.any() else "every profile is zero")
    opts = opts or SearchOptions()
    ops = (ExtensionOperator(f0.grid, ParaboloidShift.zero(f0.grid.d), stg), ExtensionOperator(f0.grid, shift, stg))
    vol = f0.grid.cell_volume

    def normalize(u):
        return u * (1.0 / math.sqrt(sum(_masses(u, vol))))

    # on the unit sphere D = 1, so Q is the numerator N
    u = normalize(np.stack([f0.samples, g0.samples]))
    F, Q = _pair_field(ops, u, e.q, threads)

    iterates = []
    converged = False
    for k in range(opts.max_steps + 1):
        nf, ng = map(math.sqrt, _masses(u, vol))
        iterates.append((k, Q, fit_symmetry(FrequencyProfile(f0.grid, u[0])), nf, ng))
        if converged:
            reason = "step_tolerance"
            break

        if max(map(_boundary_mass_fraction, u)) > BOUNDARY_MASS_LIMIT:
            reason = "grid_exhausted"
            break
        if k == opts.max_steps:
            reason = "max_steps"
            break

        grad, _ = _pair_gradient(ops, u, F, Q, e.q)
        gnorm2 = float(sum(_masses(grad, 1.0)))
        if gnorm2 == 0.0:
            reason = "step_tolerance"
            break

        alpha = 1.0
        accepted = False
        while alpha >= MIN_BACKTRACK:
            un = normalize(u + alpha * grad)
            Fn = None  # a rejected candidate's field goes before the next is made
            Fn, Qn = _pair_field(ops, un, e.q, threads)
            if Qn >= Q + ARMIJO_C * alpha * gnorm2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            reason = "step_tolerance"
            break
        # a step that gains too little is recorded, then ends the ascent
        converged = (Qn - Q) / Q < STEP_TOLERANCE
        u, F, Q = un, Fn, Qn

    return SearchTrajectory(iterates=iterates, terminated_reason=reason, f_final=FrequencyProfile(f0.grid, u[0]))


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

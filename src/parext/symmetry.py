"""The symmetry group of the paraboloid acting on frequency profiles, its
composition law, the push-through rule giving the new shift of a shifted
operator, and a numerical check of the intertwining identity between the
input-side action and the output-side action on spacetime fields.

Canonical parameterization: scaling lambda > 0, frequency translation
xi_tilde, spacetime translation (t0, x0).  Input side, on the paraboloid
h(z) = |z - xi0|^2 + tau0 of a shift (the zero shift gives the plain action):

    S f(xi) = lambda^{d/p} e^{i (t0 h(z) + x0 . z)} f(z),   z = lambda xi - xi_tilde,

output side, evaluated only inside ``verify_intertwining``:

    T F(t, x) = lambda^{-(d+2)/q} e^{i (t |xi_tilde|^2 / lambda^2 + x . xi_tilde / lambda)}
                F(t/lambda^2 + t0, x/lambda + x0 + 2 t xi_tilde / lambda^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import Exponents
from .extension import ParaboloidShift, extend
from .grids import FrequencyGrid, FrequencyProfile, SpacetimeGrid, _refuse_nonfinite
from .norms import _truncated_lq


@dataclass(frozen=True)
class Symmetry:
    lam: float
    xi_tilde: tuple
    t0: float
    x0: tuple

    def __post_init__(self):
        xt = np.atleast_1d(np.asarray(self.xi_tilde, dtype=float))
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if xt.shape != x0.shape:
            raise ValueError("xi_tilde and x0 must have the same dimension")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "xi_tilde", tuple(float(v) for v in xt))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "x0", tuple(float(v) for v in x0))
        _refuse_nonfinite("symmetry parameters", self.lam, *self.xi_tilde, self.t0, *self.x0)
        if self.lam <= 0:
            raise ValueError("scaling parameter must be positive")

    @property
    def d(self) -> int:
        return len(self.xi_tilde)

    def xi_tilde_vec(self) -> np.ndarray:
        return np.asarray(self.xi_tilde, dtype=float)

    def x0_vec(self) -> np.ndarray:
        return np.asarray(self.x0, dtype=float)


def apply_symmetry_frequency(
    S: Symmetry, f: FrequencyProfile, p: float, shift: ParaboloidShift
) -> FrequencyProfile:
    """Input-side action, an exact regrid, so the L^p isometry holds to
    machine precision.  The t0-phase is evaluated on the paraboloid of
    ``shift``, |z - xi0|^2 + tau0; the zero shift gives the plain action."""
    g = f.grid
    if S.d != g.d:
        raise ValueError("symmetry dimension does not match the profile")
    lam = S.lam
    xt = S.xi_tilde_vec()
    new_grid = FrequencyGrid(
        d=g.d,
        half_width=g.half_width / lam,
        points_per_axis=g.points_per_axis,
        center=tuple((np.asarray(g.center) + xt) / lam),
    )
    # at the new grid points, z = lam xi - xi_tilde runs over the old points
    mesh = g.meshgrid()
    phase = S.t0 * shift.height(mesh) + sum(x0i * m for x0i, m in zip(S.x0, mesh))
    samples = lam ** (g.d / p) * np.exp(1j * phase) * f.samples
    return FrequencyProfile(new_grid, samples)


def pushthrough_shift(S: Symmetry, shift: ParaboloidShift) -> ParaboloidShift:
    """The new shift of the push-through rule: the output-side symmetry
    applied to E_shift f is E_new (S f), with S acting on the paraboloid
    of ``shift``."""
    lam = S.lam
    xi0 = shift.xi0_vec()
    return ParaboloidShift(
        (shift.tau0 + 2.0 * float(xi0 @ S.xi_tilde_vec())) / lam**2,
        tuple(xi0 / lam),
    )


def compose_symmetry(S1: Symmetry, S2: Symmetry) -> tuple:
    """Parameters of S1 o S2 (S2 applied first on the input side), plus the
    constant phase phi by which the canonical form of the composite differs:
    S1(S2 f) = e^{i phi} S_composed f."""
    if S1.d != S2.d:
        raise ValueError("dimension mismatch")
    l1, l2 = S1.lam, S2.lam
    xt1, xt2 = S1.xi_tilde_vec(), S2.xi_tilde_vec()
    x1, x2 = S1.x0_vec(), S2.x0_vec()
    lam = l1 * l2
    xt = l2 * xt1 + xt2
    t0 = S2.t0 + S1.t0 / l2**2
    x0 = x2 + x1 / l2 + 2.0 * S1.t0 * xt2 / l2**2
    phi = S1.t0 * float(xt2 @ xt2) / l2**2 + float(x1 @ xt2) / l2
    return Symmetry(lam, tuple(xt), t0, tuple(x0)), phi


# ---------------------------------------------------------------------------
# intertwining verification
# ---------------------------------------------------------------------------

def verify_intertwining(
    S: Symmetry,
    f: FrequencyProfile,
    shift: ParaboloidShift,
    e: Exponents,
    stg: SpacetimeGrid,
    threads: int = 1,
) -> float:
    """Relative L^q discrepancy on ``stg`` between T(E_shift f) and
    E_new_shift(S f), with S acting on the paraboloid of ``shift``, both
    sides extended and reduced on ``threads`` threads.

    Both sides are one ``extend`` each, so both fall under the operator's
    Nyquist rule and memory guard; their operators share the Nyquist ratio
    dxi X / (lambda pi).  The right side is the pushed-through extension on
    ``stg``.  The left side evaluates E_shift f at the sheared points
    (t / lambda^2 + t0, x / lambda + x0 + 2 t xi_tilde / lambda^2):
    completing the square in the phase, with h the height of ``shift``,

        t0 h + x0 . xi + (t / lambda^2) (|xi - (xi0 - xi_tilde)|^2
            + tau0 + 2 xi_tilde . xi0 - |xi_tilde|^2) + (x / lambda) . xi,

    that is the extension of e^{i (t0 h + x0 . xi)} f from the paraboloid of
    the shift (tau0 + 2 xi_tilde . xi0 - |xi_tilde|^2, xi0 - xi_tilde) on the
    grid of ``stg`` scaled by 1 / lambda^2 in t and 1 / lambda in x.  It uses
    neither ``pushthrough_shift`` nor ``apply_symmetry_frequency``, so the
    check tests both."""
    e.check_dimension(stg.d)
    d = f.grid.d
    lam = S.lam
    xt = S.xi_tilde_vec()

    # right side: the pushed-through extension on stg
    rhs = extend(apply_symmetry_frequency(S, f, e.p, shift), pushthrough_shift(S, shift), stg, threads)

    # left side: E_shift f at the sheared points, then T's prefactor
    mesh = f.grid.meshgrid()
    phase = S.t0 * shift.height(mesh) + sum(x0i * m for x0i, m in zip(S.x0, mesh))
    xi0 = shift.xi0_vec()
    sheared = ParaboloidShift(shift.tau0 + 2.0 * float(xt @ xi0) - float(xt @ xt), tuple(xi0 - xt))
    grid = SpacetimeGrid(d, stg.t_half_width / lam**2, stg.x_half_width / lam, stg.t_points, stg.x_points_per_axis)
    lhs = extend(FrequencyProfile(f.grid, np.exp(1j * phase) * f.samples), sheared, grid, threads)
    t, *x = np.meshgrid(stg.t_axis, *[stg.x_axis] * d, indexing="ij", sparse=True)
    lhs *= lam ** (-(d + 2) / e.q) * np.exp(1j * (t * float(xt @ xt) / lam**2 + sum(v * xa for v, xa in zip(xt, x)) / lam))

    denom, discrepancy = _truncated_lq(stg, (lhs, rhs), e.q, ((0, 1), (1, -1)), threads=threads)
    if denom == 0.0:
        raise ValueError("zero field on the comparison grid")
    return discrepancy / denom

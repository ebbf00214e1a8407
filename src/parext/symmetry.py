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
from .extension import ParaboloidShift, _refuse_above_budget
from .grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeGrid,
)
from .norms import _truncated_lq


@dataclass(frozen=True)
class Symmetry:
    lam: float
    xi_tilde: tuple
    t0: float
    x0: tuple

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("scaling parameter must be positive")
        xt = np.atleast_1d(np.asarray(self.xi_tilde, dtype=float))
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if xt.shape != x0.shape:
            raise ValueError("xi_tilde and x0 must have the same dimension")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "xi_tilde", tuple(float(v) for v in xt))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "x0", tuple(float(v) for v in x0))

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

def _eval_extension_points(
    f: FrequencyProfile, shift: ParaboloidShift, t_pts: np.ndarray, x_pts: np.ndarray
) -> np.ndarray:
    """Direct quadrature of the extension at arbitrary matched points.

    ``t_pts`` has shape (M,), ``x_pts`` shape (M, ..., d); slow but free of
    interpolation error, used to validate the fast pipeline and the symmetry
    algebra.
    """
    g = f.grid
    mesh = g.meshgrid()
    xi_flat = np.stack([m.ravel() for m in mesh], axis=-1)  # (N^d, d)
    fw = (f.samples * 1.0).ravel() * g.cell_volume
    h_flat = shift.height(mesh).ravel()
    out = np.empty(x_pts.shape[:-1], dtype=complex)
    for i, tv in enumerate(t_pts):
        amp = np.exp(1j * tv * h_flat) * fw
        xp = x_pts[i].reshape(-1, g.d)
        out[i] = (np.exp(1j * (xp @ xi_flat.T)) @ amp).reshape(x_pts.shape[1:-1])
    return out


def verify_intertwining(
    S: Symmetry,
    f: FrequencyProfile,
    shift: ParaboloidShift,
    e: Exponents,
    stg: SpacetimeGrid,
) -> float:
    """Relative L^q discrepancy between T(E_shift f) and E_new_shift(S f),
    with S acting on the paraboloid of ``shift``, both evaluated by direct
    quadrature at the same spacetime points (the sheared pullback points of
    ``stg``).  The quadrature of one slice forms an n_x^d x N^d phase matrix
    and its exponential; a grid whose matrices exceed the memory budget of
    one call is refused before anything is evaluated."""
    d = f.grid.d
    points = stg.x_points_per_axis**d * f.grid.points_per_axis**d
    # 16 bytes per complex entry, held twice while the exponential is formed
    _refuse_above_budget(32 * points, f"the direct quadrature of a slice ({points:.4g} points)")

    new_shift = pushthrough_shift(S, shift)
    g_new = apply_symmetry_frequency(S, f, e.p, shift)

    t = stg.t_axis
    x_axes = [stg.x_axis] * d
    mesh = np.meshgrid(t, *x_axes, indexing="ij")
    x_pts = np.stack(mesh[1:], axis=-1)

    # right side: the pushed-through extension at the grid points
    rhs = _eval_extension_points(g_new, new_shift, t, x_pts)

    # left side: T applied to the original shifted extension at the sheared
    # points (t / lambda^2 + t0, x / lambda + x0 + 2 t xi_tilde / lambda^2);
    # the sheared time depends on t alone
    lam = S.lam
    xt = S.xi_tilde_vec()
    x0 = S.x0_vec()
    ts = t / lam**2 + S.t0
    xs = [mesh[1 + a] / lam + x0[a] + 2.0 * mesh[0] * xt[a] / lam**2 for a in range(d)]
    base = _eval_extension_points(f, shift, ts, np.stack(xs, axis=-1))
    phase = mesh[0] * float(xt @ xt) / lam**2
    for a in range(d):
        phase = phase + mesh[1 + a] * xt[a] / lam
    lhs = lam ** (-(d + 2) / e.q) * np.exp(1j * phase) * base

    denom, discrepancy = _truncated_lq(stg, (lhs, rhs), e.q, ((0, 1), (1, -1)))
    if denom == 0.0:
        raise ValueError("zero field on the comparison grid")
    return discrepancy / denom

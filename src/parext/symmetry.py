"""The non-compact symmetry groups acting on frequency profiles (input side)
and spacetime fields (output side), their composition law, the push-through
rule converting a shifted operator into a differently-shifted one, and a
numerical check of the intertwining identity.

Canonical parameterization: scaling lambda > 0, frequency translation
xi_tilde, spacetime translation (t0, x0).  Input side:

    S f(xi) = lambda^{d/p} e^{i (t0 |z|^2 + x0 . z)} f(z),   z = lambda xi - xi_tilde,

output side:

    T F(t, x) = lambda^{-(d+2)/q} e^{i (t |xi_tilde|^2 / lambda^2 + x . xi_tilde / lambda)}
                F(t/lambda^2 + t0, x/lambda + x0 + 2 t xi_tilde / lambda^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import CoverageError, ParextWarning
from .exponents import Exponents
from .extension import ParaboloidShift
from .grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeField,
    SpacetimeGrid,
)
from .norms import _truncated_lq

MIN_COVERAGE = 0.5  # pullbacks covering less of the target grid refuse


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

    def is_identity(self) -> bool:
        return (
            self.lam == 1.0
            and self.t0 == 0.0
            and all(v == 0.0 for v in self.xi_tilde)
            and all(v == 0.0 for v in self.x0)
        )


def identity_symmetry(d: int) -> Symmetry:
    return Symmetry(1.0, (0.0,) * d, 0.0, (0.0,) * d)


@dataclass
class PushthroughResult:
    new_shift: ParaboloidShift
    frequency_action: "callable"


def apply_symmetry_frequency(S: Symmetry, f: FrequencyProfile, p: float) -> FrequencyProfile:
    """Input-side action; exact regrid, so the L^p isometry holds to
    machine precision."""
    return _frequency_action(S, f, p, ParaboloidShift.zero(f.grid.d))


def _frequency_action(
    S: Symmetry, f: FrequencyProfile, p: float, shift: ParaboloidShift
) -> FrequencyProfile:
    """Shared regridding kernel: the t0-phase is evaluated on the shifted
    paraboloid |z - xi0|^2 + tau0 (shift zero recovers the plain action)."""
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


def pushthrough_shift(S: Symmetry, shift: ParaboloidShift, p: float) -> PushthroughResult:
    """Output-side symmetry applied to a shifted extension equals the
    extension with the new shift of a transformed profile."""
    lam = S.lam
    xt = S.xi_tilde_vec()
    xi0 = shift.xi0_vec()
    new_shift = ParaboloidShift(
        (shift.tau0 + 2.0 * float(xi0 @ xt)) / lam**2,
        tuple(xi0 / lam),
    )

    def action(g: FrequencyProfile) -> FrequencyProfile:
        return _frequency_action(S, g, p, shift)

    return PushthroughResult(new_shift=new_shift, frequency_action=action)


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


def apply_symmetry_field(
    S: Symmetry,
    F: SpacetimeField,
    q: float,
    out_grid: SpacetimeGrid = None,
) -> SpacetimeField:
    """Output-side action by cubic interpolation on F's grid.

    Target points outside the source grid are zeroed, counted in the
    coverage fraction and reported by a ParextWarning; below
    ``MIN_COVERAGE`` the result would be mostly zero fill and the call refuses.
    """
    g = F.grid
    if S.d != g.d:
        raise ValueError("symmetry dimension does not match the field")
    if out_grid is None:
        out_grid = g
    ts, xs, factor = _pullback(S, out_grid, q)
    coords = [(ts + g.t_half_width) / g.t_spacing]
    coords += [(xa + g.x_half_width) / g.x_spacing for xa in xs]
    coords = np.asarray(coords)

    n_axis = (g.t_points,) + (g.x_points_per_axis,) * g.d
    inside = np.ones(coords.shape[1:], dtype=bool)
    for a, n in enumerate(n_axis):
        inside &= (coords[a] >= 0.0) & (coords[a] <= n - 1)
    coverage = float(inside.mean())
    if coverage < MIN_COVERAGE:
        raise CoverageError(
            f"symmetry pullback covers only {coverage:.1%} of the target grid "
            f"(minimum {MIN_COVERAGE:.0%})"
        )

    re = ndimage.map_coordinates(F.samples.real, coords, order=3, mode="constant")
    im = ndimage.map_coordinates(F.samples.imag, coords, order=3, mode="constant")
    vals = (re + 1j * im) * inside

    if coverage < 1.0:
        warnings.warn(f"symmetry pullback clipped: coverage {coverage:.3f}", ParextWarning, stacklevel=2)
    return SpacetimeField(out_grid, factor * vals, coverage=coverage)


def _pullback(S: Symmetry, stg: SpacetimeGrid, q: float) -> tuple:
    """The output-side action at the points (t, x) of ``stg``, as
    T F(t, x) = factor * F(ts, xs): the sheared times ts = t / lambda^2 + t0,
    the positions xs (one array per axis) x / lambda + x0 + 2 t xi_tilde /
    lambda^2, and factor = lambda^{-(d+2)/q} e^{i (t |xi_tilde|^2 / lambda^2 +
    x . xi_tilde / lambda)}, all of the grid's field shape."""
    d = S.d
    lam = S.lam
    xt = S.xi_tilde_vec()
    x0 = S.x0_vec()
    mesh = np.meshgrid(stg.t_axis, *[stg.x_axis] * d, indexing="ij")
    ts = mesh[0] / lam**2 + S.t0
    xs = [mesh[1 + a] / lam + x0[a] + 2.0 * mesh[0] * xt[a] / lam**2 for a in range(d)]
    phase = mesh[0] * float(xt @ xt) / lam**2
    for a in range(d):
        phase = phase + mesh[1 + a] * xt[a] / lam
    return ts, xs, lam ** (-(d + 2) / q) * np.exp(1j * phase)


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
    """Relative L^q discrepancy between T(E_shift f) and
    E_new_shift(frequency_action f), both evaluated by direct quadrature at
    the same spacetime points (the sheared pullback points of ``stg``)."""
    d = f.grid.d

    push = pushthrough_shift(S, shift, e.p)
    g_new = push.frequency_action(f)

    t = stg.t_axis
    x_axes = [stg.x_axis] * d
    mesh = np.meshgrid(t, *x_axes, indexing="ij")
    x_pts = np.stack(mesh[1:], axis=-1)

    # right side: the pushed-through extension at the grid points
    rhs = _eval_extension_points(g_new, push.new_shift, t, x_pts)

    # left side: T applied to the original shifted extension; the sheared
    # time depends on t alone
    ts, xs, factor = _pullback(S, stg, e.q)
    base = _eval_extension_points(f, shift, ts[(slice(None),) + (0,) * d], np.stack(xs, axis=-1))
    lhs = factor * base

    denom = _truncated_lq(SpacetimeField(stg, rhs), e.q)
    if denom == 0.0:
        raise ValueError("zero field on the comparison grid")
    return _truncated_lq(SpacetimeField(stg, lhs - rhs), e.q) / denom

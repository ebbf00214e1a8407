"""Uniform frequency and spacetime grids, sampled profiles, and the
discrete L^p machinery on the frequency side.

Frequency grids are FFT-style: N points per axis (N a power of two) at
spacing 2*half_width/N, starting at center - half_width and excluding the
right endpoint.  For the smooth, decaying profiles this package works with,
the resulting Riemann sum coincides with the trapezoid rule to the accuracy
of the tails.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParextWarning


def _as_vector(v, d: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape == (1,) and d > 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise ValueError(f"{name} must have length {d}, got shape {arr.shape}")
    return arr


def _refuse_nonfinite(what: str, *values: float) -> None:
    """Refuse (ValueError) ``values`` unless every one is a finite number."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite, got {values}")


def _as_whole(v) -> int | None:
    """``v`` as an int if it is a whole number of any real type, and None
    for a fraction, a non-finite number, a bool or a non-number."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not float(v).is_integer():
        return None
    return int(v)


def _as_dimension(d) -> int:
    """``d`` as an int if it is a whole number >= 1; anything else is
    refused (ValueError)."""
    n = _as_whole(d)
    if n is None or n < 1:
        raise ValueError(f"dimension must be >= 1 and whole, got {d!r}")
    return n


def _trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    """Trapezoid-rule weights of n uniform points at the given spacing."""
    w = np.full(n, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _squared_distance(mesh: list, center=None) -> np.ndarray:
    """|xi - center|^2 on a frequency mesh, the axes added in order; the center defaults to 0."""
    if center is None:
        center = (0.0,) * len(mesh)
    return sum((m - c) ** 2 for m, c in zip(mesh, center))


def smooth_bump(u: np.ndarray) -> np.ndarray:
    """Standard smooth bump exp(1 - 1/(1-u^2)) on |u| < 1, zero outside,
    identically 1 at u = 0 and >= exp(1 - 4/3) on |u| <= 1/2."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def plateau_bump(u: np.ndarray) -> np.ndarray:
    """Smooth bump equal to 1 on |u| <= 1/2 and supported on |u| < 1.

    Built from the integral of a smooth bump; used where a genuine plateau
    is required rather than just positivity at the center.
    """
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    out[u <= 0.5] = 1.0
    ramp = (u > 0.5) & (u < 1.0)
    if np.any(ramp):
        # smooth step from 1 down to 0 on [1/2, 1]
        s = (u[ramp] - 0.5) / 0.5  # in (0, 1)
        g = np.exp(-1.0 / s) / (np.exp(-1.0 / s) + np.exp(-1.0 / (1.0 - s)))
        out[ramp] = 1.0 - g
    return out


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform tensor grid covering [center - L, center + L)^d with N points
    per axis, N a power of two."""

    d: int
    half_width: float
    points_per_axis: int
    center: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "d", _as_dimension(self.d))
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        n = _as_whole(self.points_per_axis)
        if n is None or n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 2, got {self.points_per_axis!r}")
        c = self.center
        if c is None:
            c = (0.0,) * self.d
        c = tuple(float(x) for x in np.atleast_1d(np.asarray(c, dtype=float)))
        if len(c) != self.d:
            raise ValueError("center must have length d")
        _refuse_nonfinite("half_width and center", self.half_width, *c)
        object.__setattr__(self, "points_per_axis", n)
        object.__setattr__(self, "center", c)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    def nyquist_ratio(self, x_half_width: float) -> float:
        """dxi X / pi: above 1, the x-window [-X, X] outruns the period 2 pi / dxi."""
        return self.spacing * x_half_width / np.pi

    def axis_points(self, axis: int = 0) -> np.ndarray:
        j = np.arange(self.points_per_axis)
        return self.center[axis] - self.half_width + j * self.spacing

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.axis_points(a) for a in range(self.d)]
        return list(np.meshgrid(*axes, indexing="ij"))

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.d

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.d


@dataclass
class FrequencyProfile:
    """Complex samples of a frequency-side function on a FrequencyGrid."""

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != self.grid.shape:
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.samples.view(float))):
            raise ValueError("profile samples must be finite")

    def scaled(self, c: complex) -> "FrequencyProfile":
        return FrequencyProfile(self.grid, c * self.samples)


@dataclass(frozen=True)
class SpacetimeGrid:
    """Uniform (t, x) grid: M time points on [-T, T], N_x points per spatial
    axis on [-X, X], endpoints included."""

    d: int
    t_half_width: float
    x_half_width: float
    t_points: int
    x_points_per_axis: int

    def __post_init__(self):
        object.__setattr__(self, "d", _as_dimension(self.d))
        _refuse_nonfinite("grid half-widths", self.t_half_width, self.x_half_width)
        if self.t_half_width <= 0 or self.x_half_width <= 0:
            raise ValueError("grid half-widths must be positive")
        m, n = _as_whole(self.t_points), _as_whole(self.x_points_per_axis)
        if m is None or n is None or min(m, n) < 2:
            counts = f"{self.t_points!r} and {self.x_points_per_axis!r}"
            raise ValueError(f"need a whole number of at least two points per axis, got {counts}")
        object.__setattr__(self, "t_points", m)
        object.__setattr__(self, "x_points_per_axis", n)

    @property
    def t_axis(self) -> np.ndarray:
        return np.linspace(-self.t_half_width, self.t_half_width, self.t_points)

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(-self.x_half_width, self.x_half_width, self.x_points_per_axis)

    @property
    def t_spacing(self) -> float:
        return 2.0 * self.t_half_width / (self.t_points - 1)

    @property
    def x_spacing(self) -> float:
        return 2.0 * self.x_half_width / (self.x_points_per_axis - 1)

    def t_weights(self) -> np.ndarray:
        return _trapezoid_weights(self.t_points, self.t_spacing)

    def x_weights(self) -> np.ndarray:
        return _trapezoid_weights(self.x_points_per_axis, self.x_spacing)

    @property
    def field_shape(self) -> tuple:
        return (self.t_points,) + (self.x_points_per_axis,) * self.d


# ---------------------------------------------------------------------------
# profile constructors
# ---------------------------------------------------------------------------

def gaussian_profile(
    grid: FrequencyGrid,
    center: Sequence[float] | float = 0.0,
    width: float = 1.0,
    phase_velocity: Sequence[float] | float = 0.0,
    chirp: float = 0.0,
) -> FrequencyProfile:
    """Sample exp(-|xi - center|^2 / width^2) * exp(i xi . v) on the grid.

    ``chirp`` adds a quadratic phase exp(i * chirp * |xi - center|^2).
    A ParextWarning is raised when the center sits more than half a grid
    half-width outside the grid.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    c = _as_vector(center, grid.d, "center")
    v = _as_vector(phase_velocity, grid.d, "phase_velocity")
    mesh = grid.meshgrid()
    r2 = _squared_distance(mesh, c)
    phase = sum(m * vi for m, vi in zip(mesh, v))
    samples = np.exp(-r2 / width**2) * np.exp(1j * phase)
    if chirp != 0.0:
        samples = samples * np.exp(1j * chirp * r2)
    prof = FrequencyProfile(grid, samples)
    for a in range(grid.d):
        if abs(c[a] - grid.center[a]) > 1.5 * grid.half_width:
            msg = f"center coordinate {c[a]} lies more than half a grid width outside the grid"
            warnings.warn(msg, ParextWarning, stacklevel=2)
    return prof


def bump_profile(
    grid: FrequencyGrid,
    center: Sequence[float] | float = 0.0,
    radius: float = 1.0,
) -> FrequencyProfile:
    """Smooth compactly supported bump of the given radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = _as_vector(center, grid.d, "center")
    mesh = grid.meshgrid()
    r2 = _squared_distance(mesh, c)
    samples = smooth_bump(np.sqrt(r2) / radius).astype(complex)
    return FrequencyProfile(grid, samples)


def superpose(f: FrequencyProfile, g: FrequencyProfile) -> FrequencyProfile:
    if f.grid != g.grid:
        raise ValueError("profiles live on different grids")
    return FrequencyProfile(f.grid, f.samples + g.samples)


# ---------------------------------------------------------------------------
# discrete norms and moments
# ---------------------------------------------------------------------------

def lp_norm_frequency(f: FrequencyProfile, p: float) -> float:
    """Trapezoid-rule approximation to the frequency-side L^p norm, p finite."""
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    return float((np.abs(f.samples) ** p).sum() * f.grid.cell_volume) ** (1.0 / p)


def _profile_moments(f: FrequencyProfile) -> tuple:
    """The frequency mesh, the |f|^2-weighted centroid of the profile and
    its |f|^2-weighted mean square radius about the centroid, from one |f|^2
    and one mesh.  A zero profile has no moments and raises ValueError."""
    w = np.abs(f.samples) ** 2
    tot = w.sum()
    if tot == 0:
        raise ValueError("degenerate profile: no mass")
    mesh = f.grid.meshgrid()
    c = np.array([(m * w).sum() / tot for m in mesh])
    r2 = _squared_distance(mesh, c)
    return mesh, c, float((r2 * w).sum() / tot)


def profile_gradient_l2sq(f: FrequencyProfile) -> float:
    """Integral of |grad f|^2, by central differences; controls the spatial
    spread of the extension at t = 0."""
    h = f.grid.spacing
    total = 0.0
    for axis in range(f.grid.d):
        g = np.gradient(f.samples, h, axis=axis)
        total += float((np.abs(g) ** 2).sum() * f.grid.cell_volume)
    return total

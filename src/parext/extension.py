"""Evaluation of the extension operators on spacetime grids.

The operator maps a frequency profile f to

    F(t, x) = integral exp(i t (|xi - xi0|^2 + tau0)) exp(i x . xi) f(xi) dxi,

with the e^{+i x.xi}, e^{+i t tau} sign convention throughout.  On the
frequency grid the integral is the Riemann sum over xi_j = xi_min + j dxi,
and the requested x-grid is uniform too, x_k = x_min + k dx.  Along each
axis the sum over j at every x_k is therefore a chirp-z transform: writing
k j = (k^2 + j^2 - (k - j)^2) / 2, it is a pre-chirp in j, a linear
convolution with the chirp exp(-i dx dxi m^2 / 2) and a post-chirp in k
(Bluestein's algorithm), the convolution taking one FFT pair of length at
least N + M - 1.  Each t-slice is the chirp-modulated profile pushed through
one such transform per axis; on the uniform t-grid the time chirp
exp(i t |xi - xi0|^2) is evaluated directly once every CHIRP_PERIOD slices
and reaches the slices between through a tabulated per-step factor.  The result is the Riemann sum itself, exact to
rounding at every requested x, including points past the period 2 pi / dxi
of the sum.  The pipeline is linear in f, and its exact discrete adjoint (the
same transforms with conjugated chirps and the lengths swapped) is available
for gradient computations.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .errors import NyquistError
from .grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeField,
    SpacetimeGrid,
)

NYQUIST_HARD_FACTOR = 4.0
CHIRP_PERIOD = 32  # time slices sharing one directly evaluated time chirp


@dataclass(frozen=True)
class ParaboloidShift:
    """The pair (tau0, xi0) selecting the translated paraboloid
    tau = |xi - xi0|^2 + tau0."""

    tau0: float
    xi0: tuple

    def __post_init__(self):
        xi0 = np.atleast_1d(np.asarray(self.xi0, dtype=float))
        object.__setattr__(self, "xi0", tuple(float(v) for v in xi0))
        object.__setattr__(self, "tau0", float(self.tau0))

    @property
    def d(self) -> int:
        return len(self.xi0)

    def is_nonzero(self) -> bool:
        return abs(self.tau0) + sum(abs(v) for v in self.xi0) > 0.0

    def xi0_vec(self) -> np.ndarray:
        return np.asarray(self.xi0, dtype=float)

    def height(self, mesh: list) -> np.ndarray:
        """|xi - xi0|^2 + tau0 at the points of a frequency mesh."""
        return sum((m - z) ** 2 for m, z in zip(mesh, self.xi0_vec())) + self.tau0

    @classmethod
    def zero(cls, d: int) -> "ParaboloidShift":
        """The unshifted paraboloid tau = |xi|^2."""
        return cls(0.0, (0.0,) * d)


class _ChirpZ:
    """Bluestein evaluation of y_k = scale * sum_j u_j exp(i x_k xi_j) for
    xi_j = xi_min + j dxi (j < n) and x_k = x_min + k dx (k < m), along one
    axis of an array, together with its conjugate transpose."""

    def __init__(self, xi_min: float, dxi: float, n: int, x: np.ndarray, scale: float = 1.0):
        m = x.size
        a = (x[-1] - x[0]) / (m - 1) * dxi
        j = np.arange(n, dtype=float)
        k = np.arange(m, dtype=float)
        self.n, self.m = n, m
        self.n_fft = sp_fft.next_fast_len(n + m - 1)
        self.pre = np.exp(1j * (x[0] * dxi * j + 0.5 * a * j * j))
        self.post = scale * np.exp(1j * (x * xi_min + 0.5 * a * k * k))
        # lags 0..m-1 at the front, -(n-1)..-1 wrapped to the back
        lag = np.arange(self.n_fft, dtype=float)
        lag[m:] -= self.n_fft
        kernel = np.exp(-0.5j * a * lag * lag)
        kernel[m : self.n_fft - n + 1] = 0.0
        self.kernel_hat = sp_fft.fft(kernel)

    def _convolve(self, u, pre, kernel_hat, post, n_out, axis, out=None):
        shape = [1] * u.ndim
        shape[axis] = -1
        v = sp_fft.fft(u * pre.reshape(shape), n=self.n_fft, axis=axis)
        v *= kernel_hat.reshape(shape)
        v = sp_fft.ifft(v, axis=axis, overwrite_x=True)
        keep = (slice(None),) * axis + (slice(0, n_out),)
        return np.multiply(v[keep], post.reshape(shape), out=out)

    def forward(self, u: np.ndarray, axis: int, out: np.ndarray = None) -> np.ndarray:
        return self._convolve(u, self.pre, self.kernel_hat, self.post, self.m, axis, out)

    def adjoint(self, y: np.ndarray, axis: int) -> np.ndarray:
        # the wrapped kernel is even, so its adjoint's transform is conj(kernel_hat)
        return self._convolve(y, self.post.conj(), self.kernel_hat.conj(), self.pre.conj(), self.n, axis)


class ExtensionOperator:
    """The discrete linear map from profile samples on a fixed frequency grid
    to field samples on a fixed spacetime grid, for a fixed shift.

    ``apply`` and ``apply_adjoint`` are an exact transpose pair.
    """

    def __init__(self, fgrid: FrequencyGrid, shift: ParaboloidShift, stg: SpacetimeGrid):
        if fgrid.d != stg.d or shift.d != fgrid.d:
            raise ValueError("dimension mismatch between grid, shift and spacetime grid")
        self.fgrid = fgrid
        self.stg = stg
        self.shift = shift

        self.nyquist_ratio = fgrid.spacing * stg.x_half_width / np.pi
        if self.nyquist_ratio > NYQUIST_HARD_FACTOR:
            raise NyquistError(
                f"frequency spacing {fgrid.spacing:.4g} too coarse for |x| <= "
                f"{stg.x_half_width:.4g} (ratio {self.nyquist_ratio:.3g} exceeds "
                f"the hard factor {NYQUIST_HARD_FACTOR})"
            )
        self.warnings: list[str] = []
        if self.nyquist_ratio > 1.0:
            self.warnings.append(
                f"Nyquist condition violated (ratio {self.nyquist_ratio:.3g}); "
                "aliased copies of the field may leak into the grid"
            )

        # time phase t * (|xi - xi0|^2 + tau0), one quadratic per axis shaped
        # to broadcast over a block of slices (tau0 rides on the first), and
        # one chirp-z transform per axis; the cell volume dxi^d scales the
        # first axis
        d = fgrid.d
        xi0 = shift.xi0_vec()
        self._heights = [
            ((fgrid.axis_points(a) - xi0[a]) ** 2 + (shift.tau0 if a == 0 else 0.0)).reshape(
                (-1,) + (1,) * (d - 1 - a)
            )
            for a in range(d)
        ]
        # the t-grid is uniform: slice i's chirp factor on each axis is the
        # factor at slice CHIRP_PERIOD * (i // CHIRP_PERIOD) times the factor
        # of the time step i % CHIRP_PERIOD, tabulated here
        self._t = stg.t_axis
        steps = (np.arange(CHIRP_PERIOD) * stg.t_spacing).reshape((-1,) + (1,) * d)
        self._chirp_steps = [np.exp(1j * steps * h) for h in self._heights]
        self._czt = [
            _ChirpZ(
                fgrid.center[a] - fgrid.half_width,
                fgrid.spacing,
                fgrid.points_per_axis,
                stg.x_axis,
                fgrid.cell_volume if a == 0 else 1.0,
            )
            for a in range(d)
        ]

    def _time_chirp(self, i: int, j: int) -> np.ndarray:
        """exp(i t (|xi - xi0|^2 + tau0)) on slices i..j-1 of the t-grid,
        shaped (j - i,) + fgrid.shape.  A slice's value depends on its index
        alone, so every split into blocks gives the same bits."""
        idx = np.arange(i, j)
        first = i // CHIRP_PERIOD
        bases = np.arange(first, (j - 1) // CHIRP_PERIOD + 1) * CHIRP_PERIOD
        t_base = self._t[bases].reshape((-1,) + (1,) * self.fgrid.d)
        out = None
        for h, steps in zip(self._heights, self._chirp_steps):
            axis = np.exp(1j * t_base * h)[idx // CHIRP_PERIOD - first] * steps[idx % CHIRP_PERIOD]
            out = axis if out is None else out * axis
        return out

    # -- forward ------------------------------------------------------------

    def _default_chunk(self) -> int:
        # keep each transform block near 16 MB of complex128; the block
        # boundaries depend only on the grids, never on the thread count
        return max(1, min(128, (1 << 20) // self._czt[0].n_fft ** self.fgrid.d))

    def apply(self, samples: np.ndarray, threads: int = 1) -> np.ndarray:
        chunk = self._default_chunk()
        n_t = self.stg.t_points
        out = np.empty(self.stg.field_shape, dtype=complex)
        blocks = [(i, min(i + chunk, n_t)) for i in range(0, n_t, chunk)]

        def work(block):
            i, j = block
            u = self._time_chirp(i, j) * samples
            for axis, czt in enumerate(self._czt, start=1):
                u = czt.forward(u, axis, out[i:j] if axis == self.fgrid.d else None)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                list(ex.map(work, blocks))
        else:
            for b in blocks:
                work(b)
        return out

    # -- adjoint ------------------------------------------------------------

    def apply_adjoint(self, field: np.ndarray) -> np.ndarray:
        """Exact conjugate transpose of ``apply`` on sample vectors."""
        chunk = self._default_chunk()
        n_t = self.stg.t_points
        acc = np.zeros(self.fgrid.shape, dtype=complex)
        for i in range(0, n_t, chunk):
            j = min(i + chunk, n_t)
            out = field[i:j]
            for axis, czt in enumerate(self._czt, start=1):
                out = czt.adjoint(out, axis)
            acc += (self._time_chirp(i, j).conj() * out).sum(axis=0)
        return acc


def extend(
    f: FrequencyProfile,
    shift: ParaboloidShift,
    stg: SpacetimeGrid,
    threads: int = 1,
) -> SpacetimeField:
    """Evaluate the extension of ``f`` from the paraboloid shifted by
    ``shift`` on the spacetime grid."""
    op = ExtensionOperator(f.grid, shift, stg)
    samples = op.apply(f.samples, threads=threads)
    fld = SpacetimeField(stg, samples)
    fld.warnings.extend(op.warnings)
    return fld


def plancherel_slice_defect(
    f: FrequencyProfile,
    shift: ParaboloidShift,
    t_values,
) -> float:
    """Max relative deviation of the per-slice L^2 norm from
    (2 pi)^{d/2} ||f||_2 over the given time values.

    Each slice is evaluated by ``ExtensionOperator.apply`` on one period of
    the field: N points per axis spaced 2 pi / (N dxi) from -pi / dxi, where
    Parseval makes the discrete L^2 norm exact."""
    from .grids import lp_norm_frequency

    d = f.grid.d
    n = f.grid.points_per_axis
    x_half = np.pi / f.grid.spacing
    target = (2.0 * np.pi) ** (d / 2.0) * lp_norm_frequency(f, 2.0)
    period = (slice(0, n),) * d  # the point at +pi / dxi repeats the one at -pi / dxi
    worst = 0.0
    for t in np.atleast_1d(t_values):
        t = float(t)
        # t-points {-|t|, 0, |t|}; slice 1 + sign(t) is the one at t
        stg = SpacetimeGrid(d, abs(t) if t != 0.0 else 1.0, x_half, 3, n + 1)
        op = ExtensionOperator(f.grid, shift, stg)
        slice_t = op.apply(f.samples)[(1 + int(np.sign(t)),) + period]
        got = float(np.sqrt((np.abs(slice_t) ** 2).sum() * stg.x_spacing**d))
        worst = max(worst, abs(got - target) / target)
    return worst


def gaussian_extension_oracle(
    width: float,
    center,
    shift: ParaboloidShift,
    t,
    x,
    phase_velocity=None,
) -> np.ndarray:
    """Closed-form extension of the Gaussian
    f(xi) = exp(-|xi - center|^2 / width^2) * exp(i xi . v),
    obtained by completing the square; principal branch throughout.

    ``t`` broadcasts against the leading axes of ``x``; ``x`` has the spatial
    coordinate on its last axis (or is scalar/1-d for d = 1).
    """
    if width <= 0:
        raise ValueError("width must be positive")
    d = shift.d
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (d,):
        raise ValueError(f"center must have length {d}")
    v = np.zeros(d) if phase_velocity is None else np.atleast_1d(
        np.asarray(phase_velocity, dtype=float)
    )
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if d == 1 and (x.ndim == 0 or x.shape[-1:] != (1,)):
        x = x[..., None]
    xi0 = shift.xi0_vec()
    cp = c - xi0

    a = 1.0 / width**2 - 1j * t
    b = 2.0 * cp / width**2 + 1j * (x + v)
    quad = (b * b).sum(axis=-1) / (4.0 * a)
    pref = (np.pi / a) ** (d / 2.0)
    outer = shift.tau0 * t + (x * xi0).sum(axis=-1) + float(xi0 @ v)
    return pref * np.exp(quad - (cp @ cp) / width**2 + 1j * outer)

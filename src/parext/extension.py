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
exp(i t |xi - xi0|^2) is the product of a base, evaluated directly once
every CHIRP_PERIOD slices, and a per-step factor, both tabulated once per
operator.  The result is the Riemann sum itself, exact to rounding at every
requested x, including points past the period 2 pi / dxi of the sum.

The slices run in blocks whose transform buffer holds about 2^17 complex
points (2 MB), so a block stays in one core's L2 cache.  Each axis has one
buffer of length n_fft along that axis, allocated once per thread:
the time chirp times the profile is written straight into the head of the
first, each transform multiplies its pre-chirp into the head, zeroes the
tail, runs the FFT pair in place and writes its post-chirp into the head of
the next buffer or into the output.  No step makes a temporary of the
block's size, and each slice's bits depend on its index alone, never on the
block split or the thread count.  The pipeline is linear in f, and its exact
discrete adjoint (the same transforms with conjugated chirps and the lengths
swapped) is available for gradient computations.
"""

from __future__ import annotations

import threading
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

    def _convolve(self, buf, pre, kernel_hat, post, axis, out):
        # buf holds the input in its first pre.size entries along ``axis``;
        # the pre-chirp is multiplied into that head, the tail is zeroed, and
        # the convolution runs in place before the post-chirp lands in out
        shape = [1] * buf.ndim
        shape[axis] = -1
        head = _head(buf, axis, pre.size)
        np.multiply(head, pre.reshape(shape), out=head)
        buf[(slice(None),) * axis + (slice(pre.size, self.n_fft),)] = 0.0
        v = sp_fft.fft(buf, axis=axis, overwrite_x=True)
        v *= kernel_hat.reshape(shape)
        v = sp_fft.ifft(v, axis=axis, overwrite_x=True)
        return np.multiply(_head(v, axis, post.size), post.reshape(shape), out=out)

    def forward(self, buf: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        return self._convolve(buf, self.pre, self.kernel_hat, self.post, axis, out)

    def adjoint(self, buf: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        # the wrapped kernel is even, so its adjoint's transform is conj(kernel_hat)
        return self._convolve(buf, self.post.conj(), self.kernel_hat.conj(), self.pre.conj(), axis, out)


def _head(a: np.ndarray, axis: int, length: int) -> np.ndarray:
    """The first ``length`` entries of ``a`` along ``axis``, as a view."""
    return a[(slice(None),) * axis + (slice(0, length),)]


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
        # factor at slice CHIRP_PERIOD * b, b = i // CHIRP_PERIOD, times the
        # factor of the time step i % CHIRP_PERIOD; both are tabulated here
        t_bases = stg.t_axis[::CHIRP_PERIOD].reshape((-1,) + (1,) * d)
        steps = (np.arange(CHIRP_PERIOD) * stg.t_spacing).reshape((-1,) + (1,) * d)
        self._chirp_bases = [np.exp(1j * t_bases * h) for h in self._heights]
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

    def _time_chirp(self, i: int, j: int, out: np.ndarray) -> np.ndarray:
        """Write exp(i t (|xi - xi0|^2 + tau0)) on slices i..j-1 of the t-grid
        into ``out``, shaped (j - i,) + fgrid.shape.  A slice's value depends
        on its index alone, so every split into blocks gives the same bits."""
        for b in range(i // CHIRP_PERIOD, (j - 1) // CHIRP_PERIOD + 1):
            lo, hi = max(i, b * CHIRP_PERIOD), min(j, (b + 1) * CHIRP_PERIOD)
            s = slice(lo - b * CHIRP_PERIOD, hi - b * CHIRP_PERIOD)
            # the product of the per-axis factors base * step, left to right;
            # only the last product has the size of the block, and it lands
            # in out
            lhs, rhs = self._chirp_bases[0][b], self._chirp_steps[0][s]
            for bases, steps in zip(self._chirp_bases[1:], self._chirp_steps[1:]):
                lhs, rhs = lhs * rhs, bases[b] * steps[s]
            np.multiply(lhs, rhs, out=out[lo - i : hi - i])
        return out

    # -- blocks ---------------------------------------------------------------

    def _default_chunk(self) -> int:
        # keep each transform buffer near 2 MB of complex128 (2^17 points), so
        # a block stays in one core's L2 cache; the block boundaries depend
        # only on the grids, never on the thread count
        return max(1, min(128, (1 << 17) // self._czt[0].n_fft ** self.fgrid.d))

    def _buffers(self, rows: int, n_in: int, n_out: int) -> list:
        """One transform buffer per axis for a block of ``rows`` slices: the
        buffer of axis a is n_fft long on axis a, n_out long on the axes
        before it (already transformed) and n_in long on the axes after."""
        d = self.fgrid.d
        n_fft = self._czt[0].n_fft
        return [
            np.empty((rows,) + (n_out,) * (a - 1) + (n_fft,) + (n_in,) * (d - a), dtype=complex)
            for a in range(1, d + 1)
        ]

    def _blocks(self) -> list:
        """The blocks (i, j) of slices i..j-1; the first is a longest one."""
        chunk = self._default_chunk()
        n_t = self.stg.t_points
        return [(i, min(i + chunk, n_t)) for i in range(0, n_t, chunk)]

    # -- forward ------------------------------------------------------------

    def apply(self, samples: np.ndarray, threads: int = 1) -> np.ndarray:
        n, m, d = self._czt[0].n, self._czt[0].m, self.fgrid.d
        out = np.empty(self.stg.field_shape, dtype=complex)
        blocks = self._blocks()
        local = threading.local()  # one set of buffers per thread

        def work(block):
            i, j = block
            if not hasattr(local, "buffers"):
                local.buffers = self._buffers(blocks[0][1], n, m)
            bufs = [buf[: j - i] for buf in local.buffers]
            head = _head(bufs[0], 1, n)
            np.multiply(self._time_chirp(i, j, head), samples, out=head)
            for axis, (czt, buf) in enumerate(zip(self._czt, bufs), start=1):
                czt.forward(buf, axis, out[i:j] if axis == d else _head(bufs[axis], axis + 1, n))

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
        n, m, d = self._czt[0].n, self._czt[0].m, self.fgrid.d
        acc = np.zeros(self.fgrid.shape, dtype=complex)
        blocks = self._blocks()
        full = self._buffers(blocks[0][1], m, n)
        y_full = np.empty((blocks[0][1],) + self.fgrid.shape, dtype=complex)
        for i, j in blocks:
            bufs = [buf[: j - i] for buf in full]
            y = y_full[: j - i]
            np.copyto(_head(bufs[0], 1, m), field[i:j])
            for axis, (czt, buf) in enumerate(zip(self._czt, bufs), start=1):
                czt.adjoint(buf, axis, y if axis == d else _head(bufs[axis], axis + 1, m))
            # the last transform buffer is free again: its head takes the
            # conjugated time chirp
            chirp = self._time_chirp(i, j, _head(bufs[-1], d, n))
            np.conjugate(chirp, out=chirp)
            acc += np.multiply(chirp, y, out=chirp).sum(axis=0)
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

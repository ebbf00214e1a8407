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
exp(i t |xi - xi0|^2) is the product of three factors: one per
CHIRP_PERIOD^2-th slice, one per multiple of CHIRP_PERIOD time steps and one
per time step within such a period, each tabulated per axis.  The
result is the Riemann sum itself, exact to rounding at every
requested x, including points past the period 2 pi / dxi of the sum.

The transform along axis a acts on that axis alone, so every axis's
pre-chirp can ride on the input.  Once per call, ``apply`` multiplies the
samples by all the pre-chirps and by each time step's factor into one input
table of CHIRP_PERIOD x N^d points, and a slice's input is then one product,
the rest of its time chirp times its row of the table.  The table is the
step chirps themselves, made as one product of per-axis factors and then
multiplied in place, so no other array of its size is made.

The slices run in blocks whose transform buffer holds about 2^17 complex
points (2 MB), so a block stays in one core's L2 cache.  Each axis has one
buffer of length n_fft along that axis, allocated once per thread:
a block's input is written straight into the head of the first, each
transform zeroes the tail, runs the FFT pair in place and writes its
post-chirp into the head of the next buffer, into the rows of a held field,
or, when the block is streamed, in place into its own head.  No step makes
a temporary of the block's size, and each slice's bits depend on its index
alone, never on the block split or the thread count.

``apply`` always fills a consumer and returns its ``out``.  A held field,
``_HeldField``, the default, has each finished block written straight into
its rows.  Any other consumer is a stream: ``apply`` hands it each finished
block of slices on the thread that made it, so a caller that only reduces a
field (the L^q norms of ``parext.norms``) holds one block of it per thread.

The t- and x-grids are symmetric, and the paraboloid's symmetry group holds
time reversal composed with a reflection of space, so the Riemann sum
satisfies F(-t, x) = conj F(t, R x) for two kinds of profile
(``_time_reflection``), with two reflections R:

* the real reflection, R x = -x: real samples (the exact test: no nonzero
  imaginary part), for any shift;
* the Hermitian reflection, R x = x: on a frequency grid centred exactly at
  0 and the shift xi0 = 0 (any tau0), samples with f[j] == conj f[N - j]
  exactly on every axis for the interior indices j >= 1, and an unpaired
  edge slab (the samples with any axis index 0, whose mirror +L is off the
  grid) holding at most HERMITIAN_EDGE_SHARE = 2^-53 of sum |f|, so that the
  slab's defect stays below the transform's own rounding.  The Gaussians
  exp(-|xi|^2 + i v . xi), the space translates of the extremizers, are of
  this kind.

So ``apply`` transforms only the slices with t >= 0 of such samples, and the
rows t < 0 are the mirrors of those: a consumer ``mirrored`` by the
samples' reflection derives them itself (a held field that keeps only the
rows t >= 0, an L^q reduction that reads each block again as its mirror
rows), and ``apply`` writes them, for any other consumer, one conjugate
flip of each block's rows (``_Reflection.flip``) into the held field or
into a buffer it streams.

An operator holds per-axis tables only: the time chirp factors of each axis,
(n_t / CHIRP_PERIOD^2 + 2 CHIRP_PERIOD) x N points, and each axis's chirp-z
transform, so keeping one costs nothing of the size N^d of the frequency
grid or of the field.  Every full-grid or block-sized array is made inside a
call, and the memory guard sizes it before it is allocated: a held field
when it is made; in ``apply``, the per-thread block buffers, a stream's
per-thread scratch and mirror rows, and the input table; in
``apply_adjoint``, the block buffers, the y rows of a block, the step
chirps (the table's rows without the samples) and the sum.

The pipeline is linear in f, and its exact discrete adjoint (the same
transforms with conjugated chirps and the lengths swapped) is available for
gradient computations.
"""

from __future__ import annotations

import enum
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .errors import NumericalRefusalError, NyquistError, ParextWarning
from .grids import FrequencyGrid, FrequencyProfile, SpacetimeGrid, _refuse_nonfinite, _squared_distance

NYQUIST_HARD_FACTOR = 4.0
CHIRP_PERIOD = 16  # time steps per row of the tabulated time chirp factors
# largest share of physical memory one allocation may take (a held field, a
# call's block buffers and tables, the tail lattice of parext.norms): a
# caller holds up to three fields at once (the search keeps its accepted
# field while it sums a candidate's two applies in place), which this keeps
# under half of it
FIELD_MEMORY_FRACTION = 1 / 8
# the largest share of sum |f| the unpaired edge slab of a Hermitian profile
# may hold: the slab's defect in F(-t, x) = conj F(t, x) is at most twice its
# share of the bound sum |f| dxi^d on |F|, below the transform's own rounding
HERMITIAN_EDGE_SHARE = 2.0**-53


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
        _refuse_nonfinite("tau0 and xi0", self.tau0, *self.xi0)

    @property
    def d(self) -> int:
        return len(self.xi0)

    def is_nonzero(self) -> bool:
        return abs(self.tau0) + sum(abs(v) for v in self.xi0) > 0.0

    def xi0_vec(self) -> np.ndarray:
        return np.asarray(self.xi0, dtype=float)

    def height(self, mesh: list) -> np.ndarray:
        """|xi - xi0|^2 + tau0 at the points of a frequency mesh."""
        return _squared_distance(mesh, self.xi0_vec()) + self.tau0

    @classmethod
    def zero(cls, d: int) -> "ParaboloidShift":
        """The unshifted paraboloid tau = |xi|^2."""
        return cls(0.0, (0.0,) * d)


class _Reflection(enum.Enum):
    """The reflection R of F(-t, x) = conj F(t, R x): REAL, R x = -x, and
    HERMITIAN, R x = x (see the module docstring)."""

    REAL = "real"
    HERMITIAN = "hermitian"

    def flip(self, ndim: int) -> tuple:
        """The index that reverses the t-axis and, under REAL, every x axis
        of an array of ``ndim`` axes, t first: the conjugates of the rows
        r.. of a field so flipped are its mirror rows n_t - 1 - r, in
        increasing order."""
        return (slice(None, None, -1),) * (ndim if self is _Reflection.REAL else 1)


def _time_reflection(fgrid: FrequencyGrid, shift: ParaboloidShift, samples: np.ndarray) -> _Reflection | None:
    """The reflection whose rule F(-t, x) = conj F(t, R x) the field of
    ``samples`` on ``fgrid`` from the paraboloid shifted by ``shift``
    satisfies: REAL for real samples, HERMITIAN for the profiles of the
    module docstring's Hermitian rule, and otherwise None."""
    if not samples.imag.any():
        return _Reflection.REAL
    if any(fgrid.center) or any(shift.xi0):
        return None
    interior = (slice(1, None),) * fgrid.d
    inner = samples[interior]
    mirror = inner[(slice(None, None, -1),) * fgrid.d]
    if not (np.array_equal(inner.real, mirror.real) and np.array_equal(inner.imag, -mirror.imag)):
        return None
    size = np.abs(samples)
    total = size.sum()
    size[interior] = 0.0
    return _Reflection.HERMITIAN if size.sum() <= HERMITIAN_EDGE_SHARE * total else None


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

    def _convolve(self, buf, n_in, kernel_hat, post, axis, out):
        # buf holds the input in its first n_in entries along ``axis``; the
        # tail is zeroed and the convolution runs in place before the
        # post-chirp lands in out, or, with out None, in the head of the
        # transformed buffer itself
        shape = [1] * buf.ndim
        shape[axis] = -1
        buf[(slice(None),) * axis + (slice(n_in, self.n_fft),)] = 0.0
        v = sp_fft.fft(buf, axis=axis, overwrite_x=True)
        v *= kernel_hat.reshape(shape)
        v = sp_fft.ifft(v, axis=axis, overwrite_x=True)
        head = _head(v, axis, post.size)
        return np.multiply(head, post.reshape(shape), out=head if out is None else out)

    def forward(self, buf: np.ndarray, axis: int, out: np.ndarray | None) -> np.ndarray:
        """The transform of the input in the head of ``buf``, which already
        carries the pre-chirp ``self.pre`` (``apply`` folds it into its input
        table)."""
        return self._convolve(buf, self.n, self.kernel_hat, self.post, axis, out)

    def adjoint(self, buf: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        # the wrapped kernel is even, so its adjoint's transform is conj(kernel_hat)
        shape = [1] * buf.ndim
        shape[axis] = -1
        head = _head(buf, axis, self.m)
        np.multiply(head, self.post.conj().reshape(shape), out=head)
        return self._convolve(buf, self.m, self.kernel_hat.conj(), self.pre.conj(), axis, out)


def _head(a: np.ndarray, axis: int, length: int) -> np.ndarray:
    """The first ``length`` entries of ``a`` along ``axis``, as a view."""
    return a[(slice(None),) * axis + (slice(0, length),)]


def _split(start: int, stop: int, chunk: int) -> list:
    """The blocks (i, j) of rows i..j-1, ``chunk`` rows each but the last, from ``start`` to ``stop``."""
    return [(i, min(i + chunk, stop)) for i in range(start, stop, chunk)]


def _refuse_above_budget(nbytes: int, what: str) -> None:
    """Refuse, before anything is allocated, a call that would allocate
    ``nbytes`` for ``what``, when that exceeds FIELD_MEMORY_FRACTION of
    physical memory."""
    budget = FIELD_MEMORY_FRACTION * os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > budget:
        raise NumericalRefusalError(
            f"{what} takes {nbytes / 2**30:.4g} GiB, above the {budget / 2**30:.4g} GiB "
            f"({FIELD_MEMORY_FRACTION:.3g} of physical memory) one call may allocate"
        )


class _HeldField:
    """The package's one held field, a consumer of ``ExtensionOperator.apply``:
    ``out`` holds every row of the field on ``stg``, or, when ``mirrored``
    by a ``_Reflection``, only the rows n_t // 2 .. n_t - 1 (t >= 0) of the
    field of a profile with that reflection (``_time_reflection``), whose
    rows t < 0 are their mirrors: F(-t, x) = conj F(t, -x) under the real
    reflection and conj F(t, x) under the Hermitian one.
    ``apply`` writes each block of rows i..j-1 straight into the view
    ``rows(i, j)``, and, unless the field is mirrored, each block's mirror
    rows into theirs.  The memory guard sizes ``out`` before it is
    allocated."""

    def __init__(self, stg: SpacetimeGrid, mirrored: _Reflection | None = None):
        self.mirrored = mirrored
        self._first = stg.t_points // 2 if mirrored else 0
        shape = (stg.t_points - self._first,) + stg.field_shape[1:]
        _refuse_above_budget(16 * math.prod(shape), f"a {'half ' if mirrored else ''}field of shape {shape}")
        self.out = np.empty(shape, dtype=complex)

    def rows(self, i: int, j: int) -> np.ndarray:
        return self.out[i - self._first : j - self._first]


def _run_blocks(work, blocks: list, scratch, threads: int) -> None:
    """Call ``work(block, buffers)`` for each block, with ``buffers`` the
    result of ``scratch()``, made once per thread.  The blocks run on a pool
    of ``threads`` threads when ``threads`` > 1 and there is more than one
    block, and otherwise in order on the calling thread; a block that writes
    only its own outputs therefore gives the same bits on any thread
    count."""
    local = threading.local()

    def run(block):
        if not hasattr(local, "buffers"):
            local.buffers = scratch()
        work(block, local.buffers)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(run, blocks))
    else:
        for b in blocks:
            run(b)


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

        self.nyquist_ratio = fgrid.nyquist_ratio(stg.x_half_width)
        if self.nyquist_ratio > NYQUIST_HARD_FACTOR:
            raise NyquistError(
                f"frequency spacing {fgrid.spacing:.4g} too coarse for |x| <= "
                f"{stg.x_half_width:.4g} (ratio {self.nyquist_ratio:.3g} exceeds "
                f"the hard factor {NYQUIST_HARD_FACTOR})"
            )
        if self.nyquist_ratio > 1.0:
            warnings.warn(
                f"Nyquist condition violated (ratio {self.nyquist_ratio:.3g}); "
                "aliased copies of the field may leak into the grid",
                ParextWarning,
                stacklevel=2,
            )

        # time phase t * (|xi - xi0|^2 + tau0), one quadratic per axis shaped
        # to broadcast over a block of slices (tau0 rides on the first), and
        # one chirp-z transform per axis; the cell volume dxi^d scales the
        # first axis
        d = fgrid.d
        xi0 = shift.xi0_vec()
        heights = [
            ((fgrid.axis_points(a) - xi0[a]) ** 2 + (shift.tau0 if a == 0 else 0.0)).reshape(
                (-1,) + (1,) * (d - 1 - a)
            )
            for a in range(d)
        ]
        # the t-grid is uniform: with P = CHIRP_PERIOD, slice
        # i = (k P + m) P + s has the time chirp of slice k P^2 times the
        # chirp of m P time steps times the chirp of s time steps, each
        # tabulated per axis; a call forms the products over the whole
        # frequency grid it needs, the step chirps' product broadcasting
        # into one new array of P x N^d points with none of that size
        # besides it
        bases = stg.t_axis[:: CHIRP_PERIOD**2].reshape((-1,) + (1,) * d)
        self._chirp_bases = [np.exp(1j * bases * h) for h in heights]
        steps = (np.arange(CHIRP_PERIOD) * stg.t_spacing).reshape((-1,) + (1,) * d)
        self._chirp_periods = [np.exp(1j * CHIRP_PERIOD * steps * h) for h in heights]
        self._chirp_step_factors = [np.exp(1j * steps * h) for h in heights]
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

    def _time_chirp(self, i: int, j: int, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write, for each slice i..j-1 of the t-grid, the time chirp of the
        first slice of its period of CHIRP_PERIOD slices times its row
        ``steps[i % CHIRP_PERIOD]`` into ``out``, shaped (j - i,) +
        fgrid.shape: with the step chirps as ``steps``,
        exp(i t (|xi - xi0|^2 + tau0)); with ``apply``'s input table, the
        slice's input.  A slice's value depends on its index alone, so every
        split into blocks gives the same bits."""
        for b in range(i // CHIRP_PERIOD, (j - 1) // CHIRP_PERIOD + 1):
            lo, hi = max(i, b * CHIRP_PERIOD), min(j, (b + 1) * CHIRP_PERIOD)
            k, m = divmod(b, CHIRP_PERIOD)
            base = self._chirp_bases[0][k] * self._chirp_periods[0][m]
            for c, periods in zip(self._chirp_bases[1:], self._chirp_periods[1:]):
                base = base * (c[k] * periods[m])
            np.multiply(base, steps[lo - b * CHIRP_PERIOD : hi - b * CHIRP_PERIOD], out=out[lo - i : hi - i])
        return out

    # -- blocks ---------------------------------------------------------------

    def _default_chunk(self) -> int:
        # keep each transform buffer near 2 MB of complex128 (2^17 points), so
        # a block stays in one core's L2 cache; the block boundaries depend
        # only on the grids, never on the thread count
        return max(1, min(128, (1 << 17) // self._czt[0].n_fft ** self.fgrid.d))

    def _buffer_shapes(self, rows: int, n_in: int, n_out: int) -> list:
        """The shape of one transform buffer per axis for a block of ``rows``
        slices: the buffer of axis a is n_fft long on axis a, n_out long on
        the axes before it (already transformed) and n_in long on the axes
        after."""
        d = self.fgrid.d
        n_fft = self._czt[0].n_fft
        return [(rows,) + (n_out,) * (a - 1) + (n_fft,) + (n_in,) * (d - a) for a in range(1, d + 1)]

    # -- forward ------------------------------------------------------------

    def apply(self, samples: np.ndarray, threads: int = 1, consumer=None) -> np.ndarray:
        """Fill ``consumer``, by default a ``_HeldField`` of every row, with
        the field of ``samples``, and return ``consumer.out``.

        Of samples with a reflection (``_time_reflection``: the real one,
        F(-t, x) = conj F(t, -x), or the Hermitian one, F(-t, x) = conj F(t, x))
        only the slices n_t // 2 .. n_t - 1 (t > 0, and t = 0 when n_t is
        odd) are transformed; ``apply`` forms no slice with t < 0.  A
        consumer ``mirrored`` by the samples' reflection derives the rows
        t < 0 itself, and one mirrored by another refuses the samples; any
        other consumer is given every row, those t < 0 made from each
        finished block by one conjugate flip (``_Reflection.flip``), so
        every consumer sees the same bits.  A ``_HeldField`` has each
        finished block of rows i..j-1, and its mirror rows, written straight
        into its views ``rows(i, j)``.  Any other consumer is a stream,
        passed each finished block of rows i..i+k-1, and then its mirror
        rows, as ``consumer(i, rows, scratch)``, rows shaped (k,) + the
        x-shape, on the thread that made it, with that thread's
        ``consumer.scratch(chunk)``, made once per thread for blocks of up
        to ``chunk`` rows and sized by ``consumer.scratch_bytes(chunk)`` for
        the memory guard; the rows are reused once the call returns."""
        if consumer is None:
            consumer = _HeldField(self.stg)
        n, m, d = self._czt[0].n, self._czt[0].m, self.fgrid.d
        n_t = self.stg.t_points
        reflection = _time_reflection(self.fgrid, self.shift, samples)
        mirrored = consumer.mirrored
        if mirrored is not None and mirrored is not reflection:
            raise ValueError(
                f"a consumer mirrored by the {mirrored.value} reflection takes the field of "
                f"{mirrored.value} samples only"
            )
        held = isinstance(consumer, _HeldField)
        # apply makes the rows t < 0 of a consumer that does not derive them
        derive = reflection is not None and mirrored is None
        blocks = _split(n_t // 2 if reflection else 0, n_t, self._default_chunk())
        chunk = blocks[0][1] - blocks[0][0]
        # each thread's transform buffers, the last of which holds a streamed
        # block in its head, and a stream's mirror rows; and the input table,
        # each time step's chirp times the samples times every pre-chirp (the
        # transform of axis a acts along axis a alone, so the pre-chirps of
        # the later axes can ride on its input), which a block's time chirp
        # bases multiply into its input
        shapes = self._buffer_shapes(chunk, n, m)
        used = min(threads, len(blocks))
        per_thread = 16 * sum(math.prod(shape) for shape in shapes)
        if not held:
            per_thread += consumer.scratch_bytes(chunk) + 16 * derive * chunk * m**d
        _refuse_above_budget(
            used * per_thread + 16 * (CHIRP_PERIOD + 1) * n**d,
            f"the block buffers of {used} thread(s){'' if held else ', their stream scratch'} and the input table",
        )
        pre = math.prod(czt.pre.reshape((-1,) + (1,) * (d - 1 - a)) for a, czt in enumerate(self._czt))
        table = math.prod(self._chirp_step_factors)
        table *= np.multiply(samples, pre, out=pre)

        def work(block, buffers):
            i, j = block
            bufs = [buf[: j - i] for buf in buffers[:d]]
            # a held block is finished in its rows of the held field, a
            # streamed one in the head of the last transform buffer
            last = consumer.rows(i, j) if held else None
            self._time_chirp(i, j, table, _head(bufs[0], 1, n))
            for axis, (czt, buf) in enumerate(zip(self._czt, bufs), start=1):
                rows = czt.forward(buf, axis, last if axis == d else _head(bufs[axis], axis + 1, n))
            if not held:
                consumer(i, rows, buffers[d])
            # the mirror rows lo..hi-1, below n_t // 2, of the block's rows
            # from n_t - hi on
            lo, hi = n_t - j, min(n_t - i, n_t // 2)
            if derive and lo < hi:
                out = consumer.rows(lo, hi) if held else buffers[-1][: hi - lo]
                np.conjugate(rows[n_t - hi - i :][reflection.flip(d + 1)], out=out)
                if not held:
                    consumer(lo, out, buffers[d])

        def scratch():
            # a stream's own buffers, and its mirror rows, follow apply's
            buffers = [np.empty(shape, dtype=complex) for shape in shapes]
            if not held:
                buffers.append(consumer.scratch(chunk))
                if derive:
                    buffers.append(np.empty((chunk,) + (m,) * d, dtype=complex))
            return buffers

        _run_blocks(work, blocks, scratch, threads)
        return consumer.out

    # -- adjoint ------------------------------------------------------------

    def apply_adjoint(self, field: np.ndarray) -> np.ndarray:
        """Exact conjugate transpose of ``apply`` on sample vectors."""
        n, m, d = self._czt[0].n, self._czt[0].m, self.fgrid.d
        blocks = _split(0, self.stg.t_points, self._default_chunk())
        chunk = blocks[0][1]
        # the transform buffers, the y rows of a block, the step chirps and
        # the sum
        shapes = self._buffer_shapes(chunk, m, n)
        _refuse_above_budget(
            16 * (sum(math.prod(shape) for shape in shapes) + (chunk + CHIRP_PERIOD + 1) * n**d),
            "the adjoint's block buffers, y rows and step chirps",
        )
        full = [np.empty(shape, dtype=complex) for shape in shapes]
        y_full = np.empty((chunk,) + self.fgrid.shape, dtype=complex)
        steps = math.prod(self._chirp_step_factors)
        acc = np.zeros(self.fgrid.shape, dtype=complex)
        for i, j in blocks:
            bufs = [buf[: j - i] for buf in full]
            y = y_full[: j - i]
            np.copyto(_head(bufs[0], 1, m), field[i:j])
            for axis, (czt, buf) in enumerate(zip(self._czt, bufs), start=1):
                czt.adjoint(buf, axis, y if axis == d else _head(bufs[axis], axis + 1, m))
            # the last transform buffer is free again: its head takes the
            # conjugated time chirp
            chirp = self._time_chirp(i, j, steps, _head(bufs[-1], d, n))
            np.conjugate(chirp, out=chirp)
            acc += np.multiply(chirp, y, out=chirp).sum(axis=0)
        return acc


def extend(
    f: FrequencyProfile,
    shift: ParaboloidShift,
    stg: SpacetimeGrid,
    threads: int = 1,
    consumer=None,
) -> np.ndarray:
    """The samples, shaped ``stg.field_shape``, of the extension of ``f``
    from the paraboloid shifted by ``shift`` on the spacetime grid, or, with
    a ``consumer``, that field passed into it (see
    ``ExtensionOperator.apply``).  The consumer, a ``_HeldField`` by
    default, is made before the operator, so a field too large for memory
    is refused before the operator is built."""
    if consumer is None:
        consumer = _HeldField(stg)
    return ExtensionOperator(f.grid, shift, stg).apply(f.samples, threads=threads, consumer=consumer)


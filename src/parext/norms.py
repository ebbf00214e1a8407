"""Spacetime L^q norms with certified truncation-tail bounds, and the
sharp-constant quotient of a sum of shifted extensions, one evaluator
(``_quotient``) for one paraboloid (``quotient_single``) or two
(``quotient_pair``).

The tail policy combines three ingredients, all computable from the
generating profile:

* energy conservation per slice:  ||F(t,.)||_2 = (2 pi)^{d/2} ||f||_2;
* the dispersive sup bound  ||F(t,.)||_inf <= min(||f||_1,
  pi^{d/2} |t|^{-d/2} m1)  with m1 = (2 pi)^{-d} ||F(0,.)||_1 — the L^1 norm
  of the physical-space profile, evaluated on a periodic 4N-point lattice;
* a Chebyshev bound on the spatial tail via the second moments of x + 2 t xi.

Interpolating L^q between the sup and L^2 bounds gives an integrable tail
whenever d (q - 2) / 2 > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TailCertificationError
from .exponents import Exponents
from .grids import (
    FrequencyProfile,
    SpacetimeGrid,
    _squared_distance,
    _trapezoid_weights,
    lp_norm_frequency,
    profile_gradient_l2sq,
)
from .extension import (
    ParaboloidShift,
    _HeldField,
    _Reflection,
    _refuse_above_budget,
    _run_blocks,
    _split,
    _time_reflection,
    extend,
)


@dataclass
class NormResult:
    """Truncated-domain norm plus certified/estimated error components.

    The reported interval for the true norm is
    [value, (value^q + tail_bound^q)^{1/q} + quadrature_estimate].
    ``tail_bound`` is a rigorous bound on the norm outside the grid, but
    ``quadrature_estimate`` is the Richardson estimate |value - coarse| / 3
    from a stride-2 comparison, not a bound, and it does not see the
    wrap-around aliasing of the frequency Riemann sum: the interval may miss
    the truncated norm (``value`` exceeds the exact truncated norm of the
    width-1 Gaussian by 7.07e-6 on the frozen d = 1 grid, where the estimate
    is 8.1e-10).  The tail bound is finite: non-integrable tails are refused.
    """

    value: float
    tail_bound: float
    quadrature_estimate: float
    q: float
    parts: tuple = ()  # truncated norms of the combinations a caller asked for

    def certified_upper(self) -> float:
        return (self.value**self.q + self.tail_bound**self.q) ** (
            1.0 / self.q
        ) + self.quadrature_estimate

    def certified_error(self) -> float:
        return self.certified_upper() - self.value


@dataclass
class QuotientResult:
    numerator: NormResult
    denominator: float

    @property
    def quotient(self) -> float:
        return self.numerator.value / self.denominator

    def certified_error(self) -> float:
        """Half-width-style error on the quotient inherited from the
        numerator's certified interval (denominator taken as exact)."""
        return self.numerator.certified_error() / self.denominator


# float64 points of |F|^q held at once by each thread of the reduction of
# held fields (2 MB; a combination of parts is formed in the same buffers).
# The scratch is not cut to a short field's n_t rows: on the SEARCH grid its
# 4 MB, once freed, lifts glibc's mmap threshold above the 0.2-0.8 MB
# buffers of each apply and apply_adjoint, which then reuse mapped pages;
# cut to 81 rows, every search iterate took 656 fresh page faults and 1.5
# times as long (test_search_iterates_reuse_freed_pages)
_LQ_BLOCK_POINTS = 1 << 18


def _combine(signs: tuple, parts: list, re: np.ndarray, im: np.ndarray) -> tuple:
    """The real and imaginary parts of the sum of the ``parts`` with the
    ``signs`` 1, -1 or 0, up to its overall sign (which |.| drops), summed
    left to right into the float buffers ``re`` and ``im`` (the bits of the
    complex sum); a lone part gives its own ``.real`` and ``.imag``."""
    (first, acc), *rest = [(s, a) for s, a in zip(signs, parts) if s]
    acc = acc.real, acc.imag
    for s, a in rest:
        op = np.add if s == first else np.subtract
        acc = op(acc[0], a.real, out=re), op(acc[1], a.imag, out=im)
    return acc


class _LqRows:
    """The package's one L^q reduction: trapezoid-weighted sums over the
    space axes of |c|^q, one per t-row, for signed combinations c of sample
    arrays on ``stg``.

    ``terms`` lists (signs, strides) pairs: one sign (1, -1 or 0) per part,
    the parts being the ``held`` arrays followed by the streamed field; and
    the strides (1 or 2) at which that combination is reduced, on every
    ``stride``-th grid point.  A block of rows i.. of the streamed field is
    reduced, with the same rows of the held arrays, by calling the object
    itself on (i, rows, scratch) (the consumer protocol of
    ``ExtensionOperator.apply``), in a thread's buffers from ``scratch``, on
    any thread and starting on any row:
    each block forms each combination once, raises it to |.|^q once and
    reduces every t-row by dot products of its own with the weights, so the
    row sums, ``out``, depend on neither the block split nor the thread
    count.  ``norms`` finishes them with the t-weights.

    With ``mirrored``, a ``_Reflection`` R that every part shares (the real
    reflection R x = -x or the Hermitian one R x = x; see
    ``parext.extension._time_reflection``), so that c(-t, x) = conj c(t, R x)
    and |c|^q has the same values at (-t, x) and (t, R x): the parts hold,
    and the blocks bring, only the rows n_t // 2 .. n_t - 1 (t >= 0), and
    each block's |c|^q also gives the sums of its mirror rows n_t - 1 - r
    below n_t // 2.  Under the real reflection they are reduced again from
    the block read flipped along t and every x axis.  Under the Hermitian one a mirror row
    is the row itself, in the same order, so its sum is copied from that
    row's; when n_t is even, the mirror of a row on the stride-2 grid is
    not on it, and there the block read flipped along t is reduced again.
    Either way a mirror row's sum has the bits the conjugate flip of the
    block would give."""

    def __init__(
        self, stg: SpacetimeGrid, held: tuple, q: float, terms: tuple, mirrored: _Reflection | None = None
    ):
        self.held, self.q, self.terms, self.mirrored = held, q, terms, mirrored
        self._d = stg.d
        strides = {s for _, ss in terms for s in ss}
        n_t, n_x = stg.t_points, stg.x_points_per_axis
        self._n_t = n_t
        self._first = n_t // 2 if mirrored else 0  # the global row of the held arrays' first row
        self._wt = {s: _trapezoid_weights(len(range(0, n_t, s)), stg.t_spacing * s) for s in strides}
        self._wx = {s: _trapezoid_weights(len(range(0, n_x, s)), stg.x_spacing * s) for s in strides}
        sizes = [self._wt[s].size for _, ss in terms for s in ss]
        self.out = np.empty(sum(sizes))
        views = iter(np.split(self.out, np.cumsum(sizes)[:-1]))
        self._rows = [[next(views) for _ in ss] for _, ss in terms]
        self._row_shape = (stg.x_points_per_axis,) * stg.d

    def scratch(self, rows: int) -> tuple:
        """One thread's two float buffers for blocks of up to ``rows`` rows:
        a combination's real and imaginary parts (``_combine``), then |.|^q."""
        powers = np.empty((2, rows) + self._row_shape)
        return powers[0], powers[1]

    def scratch_bytes(self, rows: int) -> int:
        """The bytes ``scratch(rows)`` allocates."""
        return 16 * rows * math.prod(self._row_shape)

    def _power(self, re: np.ndarray, im: np.ndarray, out: np.ndarray, spare: np.ndarray) -> tuple:
        """|c|^q from |c|^2 = re^2 + im^2, re and im possibly ``out`` and
        ``spare`` themselves, by repeated multiplication, left to right, when
        q / 2 is whole, and otherwise as (|c|^2)^(q / 2): (the buffer that
        holds it, the one of ``out`` and ``spare`` left free)."""
        np.multiply(re, re, out=out)
        out += np.multiply(im, im, out=spare)
        half = self.q / 2.0
        if not half.is_integer():
            out **= half
            return out, spare
        if half == 1.0:
            return out, spare
        np.multiply(out, out, out=spare)
        for _ in range(int(half) - 2):
            spare *= out
        return spare, out

    def __call__(self, i: int, rows: np.ndarray, scratch: tuple) -> None:
        """Reduce the streamed ``rows`` i.. and the same rows of the held
        arrays into every term, in a thread's ``scratch``; with
        ``mirrored``, also their mirror rows."""
        n_t, mirror = self._n_t, self.mirrored
        k = rows.shape[0]
        parts = [a[i - self._first : i - self._first + k] for a in self.held] + [rows]
        out_rows, spare_rows = (b[:k] for b in scratch)
        # the mirror rows lo..hi-1, below n_t // 2, are the rows n_t-1-r of
        # the block's rows r from n_t-hi on
        lo, hi = n_t - i - k, min(n_t - i, n_t // 2)
        for (signs, strides), term_rows in zip(self.terms, self._rows):
            power, free = self._power(*_combine(signs, parts, out_rows, spare_rows), out_rows, spare_rows)
            for s, r in zip(strides, term_rows):
                self._reduce(i, power, s, r, free)
                if mirror is None or lo >= hi:
                    continue
                if mirror is _Reflection.HERMITIAN and (n_t - 1) % s == 0:
                    # the mirror rows a s..(b - 1) s on the stride-s grid are
                    # the block's rows (top - a) s down to (top - b + 1) s
                    a, b, top = -(-lo // s), -(-hi // s), (n_t - 1) // s
                    r[a:b] = r[top - b + 1 : top - a + 1][::-1]
                else:
                    self._reduce(lo, power[n_t - hi - i :][mirror.flip(power.ndim)], s, r, free)

    def _reduce(self, first: int, power: np.ndarray, s: int, r: np.ndarray, free: np.ndarray) -> None:
        """Write the x-sums of the rows of ``power``, the |c|^q rows first..,
        that lie on the stride-s grid into their places in ``r``."""
        o = -first % s  # the first row of the block on the stride-s grid
        sub = _contiguous(power[(slice(o, None, s),) + (slice(None, None, s),) * self._d], free)
        for _ in range(self._d):
            sub = np.vecdot(sub, self._wx[s])
        r[(first + o) // s : (first + o) // s + sub.size] = sub

    def norms(self) -> list:
        """The norm of each term at each of its strides, in order."""
        return [
            float((r @ self._wt[s]) ** (1.0 / self.q))
            for (_, strides), term_rows in zip(self.terms, self._rows)
            for s, r in zip(strides, term_rows)
        ]


def _contiguous(a: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``a`` itself when it is C-contiguous, and otherwise (a stride-2 grid,
    a flipped block) its copy in the head of the contiguous buffer ``buf``,
    so that the dot products of its rows keep their summation order."""
    if a.flags.c_contiguous:
        return a
    head = buf.reshape(-1)[: a.size].reshape(a.shape)
    np.copyto(head, a)
    return head


def _truncated_lq(
    stg: SpacetimeGrid,
    fields: tuple,
    q: float,
    combos: tuple | None = None,
    strides: tuple = (1,),
    threads: int = 1,
) -> list:
    """Trapezoid-weighted L^q norms of linear combinations of the sample
    arrays ``fields`` on ``stg``, all held.

    Each combination is one sign per field, 1, -1 or 0: with fields (F, G),
    (1, 1) is F + G and (1, -1) is F - G; the default is the sum of all
    fields.  For each combination, and within it for each stride in
    ``strides`` (1 or 2), the result lists the norm on every ``stride``-th
    grid point.  The t-rows run through ``_LqRows`` in blocks on ``threads``
    threads, so the norms are those of the streamed reduction, bit for bit."""
    if combos is None:
        combos = ((1,) * len(fields),)
    # the last array takes the place of a streamed field
    *held, last = fields
    red = _LqRows(stg, tuple(held), q, tuple((signs, strides) for signs in combos))
    rows = max(1, _LQ_BLOCK_POINTS // stg.x_points_per_axis**stg.d)

    def work(block, scratch):
        i, j = block
        red(i, last[i:j], scratch)

    _run_blocks(work, _split(0, stg.t_points, rows), lambda: red.scratch(rows), threads)
    return red.norms()


def _lq_against(stg: SpacetimeGrid, held, streamed, q: float, terms: tuple, threads: int) -> list:
    """The norms of ``terms`` (see ``_LqRows``) over the extensions of the
    (profile, shift) pairs ``held``, each extended once and held, followed
    by the extension of each pair of ``streamed`` in turn, streamed through
    ``extend``'s t-blocks and never held: one list of norms per streamed
    pair.  When every pair shares one reflection (``_time_reflection``), the
    held fields keep, and the streams bring, only their t >= 0 rows (see
    ``_LqRows``); otherwise every field is held, and streamed, whole."""
    reflections = {_time_reflection(prof.grid, shift, prof.samples) for prof, shift in [*held, *streamed]}
    mirrored = reflections.pop() if len(reflections) == 1 else None
    fields = tuple(extend(prof, shift, stg, threads, _HeldField(stg, mirrored)) for prof, shift in held)
    found = []
    for prof, shift in streamed:
        red = _LqRows(stg, fields, q, terms, mirrored)
        extend(prof, shift, stg, threads=threads, consumer=red)
        found.append(red.norms())
    return found


@dataclass
class _TailIngredients:
    l1: float
    l2: float
    m1: float
    sigma_x: float
    sigma_xi: float


def _tail_ingredients(f: FrequencyProfile, shift: ParaboloidShift) -> _TailIngredients:
    d = f.grid.d
    l1 = lp_norm_frequency(f, 1.0)
    l2 = lp_norm_frequency(f, 2.0)
    if l2 == 0.0:
        return _TailIngredients(0.0, 0.0, 0.0, 0.0, 0.0)
    # m1 = (2 pi)^{-d} L^1 norm of the t = 0 physical-space profile, from the
    # periodic transform lattice of 4N points per axis, made in place so that
    # only the lattice and its |.| are held at once
    n_lat = 4 * f.grid.points_per_axis
    g = np.fft.ifftn(f.samples, s=(n_lat,) * d, axes=tuple(range(d)))
    g *= n_lat**d
    lat_dx = 2.0 * np.pi / (n_lat * f.grid.spacing)
    phys_l1 = float(np.abs(g).sum() * lat_dx**d) * f.grid.cell_volume
    m1 = phys_l1 / (2.0 * np.pi) ** d

    sigma_x = math.sqrt(profile_gradient_l2sq(f)) / l2
    mesh = f.grid.meshgrid()
    r2 = _squared_distance(mesh, shift.xi0_vec())
    sigma_xi = math.sqrt(float((r2 * np.abs(f.samples) ** 2).sum() * f.grid.cell_volume)) / l2
    return _TailIngredients(l1, l2, m1, sigma_x, sigma_xi)


def _sup_bound(ing: _TailIngredients, d: int, t: np.ndarray) -> np.ndarray:
    """min(||f||_1, pi^{d/2} m1 |t|^{-d/2}) at the times ``t``; the
    dispersive bound is infinite at t = 0."""
    c = np.pi ** (d / 2.0) * ing.m1
    disp = np.divide(c, np.abs(t) ** (d / 2.0), out=np.full(t.shape, np.inf), where=t != 0.0)
    return np.minimum(ing.l1, disp)


def _time_tail_mass(ing: _TailIngredients, d: int, q: float, T: float) -> float:
    """Bound on the integral of ||F(t,.)||_q^q over |t| > T."""
    beta = d * (q - 2.0) / 2.0
    energy = (2.0 * np.pi) ** d * ing.l2**2
    c = np.pi ** (d / 2.0) * ing.m1
    # crossover where the dispersive bound drops below the plain L1 bound
    t_c = (c / ing.l1) ** (2.0 / d) if ing.l1 > 0 else 0.0
    mass = 0.0
    if T < t_c:
        mass += ing.l1 ** (q - 2.0) * energy * 2.0 * (t_c - T)
        T_eff = t_c
    else:
        T_eff = T
    mass += c ** (q - 2.0) * energy * 2.0 * T_eff ** (1.0 - beta) / (beta - 1.0)
    return mass


def _space_tail_mass(ing: _TailIngredients, d: int, q: float, T: float, X: float) -> float:
    """Bound on the integral over |t| <= T of the L^q mass at |x|_inf > X.

    The integrand sup(t)^{q-2} * energy * frac(t) is a product of a
    non-increasing and a non-decreasing factor, so each cell of the t-grid is
    bounded by sup at its left end times frac at its right end."""
    energy = (2.0 * np.pi) ** d * ing.l2**2
    t = np.linspace(0.0, T, 4097)
    sup = _sup_bound(ing, d, t)
    frac = np.minimum(((ing.sigma_x + 2.0 * t * ing.sigma_xi) / X) ** 2, 1.0)
    cells = sup[:-1] ** (q - 2.0) * energy * frac[1:] * np.diff(t)
    return float(2.0 * cells.sum())


def lq_norm_spacetime(
    stg: SpacetimeGrid,
    tail_pairs: list,
    q: float,
    threads: int = 1,
    parts: tuple = (),
) -> NormResult:
    """Truncated-grid L^q norm on ``stg`` of the sum of the extensions of the
    (profile, shift) pairs ``tail_pairs``, plus tail certification.

    Every extension but the last is held as a sample array; the last is
    streamed through ``extend``'s t-blocks into the one reduction, so the
    sum is never formed, and the extension of a single pair is never held.
    When every pair shares one reflection R (``_time_reflection``: every
    profile real, or every one Hermitian on the unshifted paraboloid), the
    time reversal |c(-t, x)| = |c(t, R x)| of every signed sum c lets the
    held fields keep, and the stream bring, only their t >= 0 rows (see
    ``_LqRows``); the memory guard sizes those half fields.  Any other set
    of pairs, a real profile next to a Hermitian one included, holds and
    streams every row.  The tail norms of the pairs add by Minkowski.
    ``parts`` lists further signed combinations of the same extensions, one
    sign per pair, whose truncated norms (without tails) the same pass
    reduces into ``NormResult.parts``.
    Non-integrable tails, and a tail lattice (4N points per axis) above the
    memory guard's budget, refuse before anything is extended.
    """
    if q <= 2:
        raise ValueError("q must exceed 2")
    if not tail_pairs:
        raise ValueError("no (profile, shift) pair to extend")
    d = stg.d
    for prof, shift in tail_pairs:
        if prof.grid.d != d or shift.d != d:
            raise ValueError(f"a pair of dimension {prof.grid.d} (shift {shift.d}) on a {d}-d spacetime grid")
    beta = d * (q - 2.0) / 2.0
    if beta <= 1.0:
        raise TailCertificationError(
            f"d (q - 2) / 2 = {beta:.3g} <= 1: the dispersive tail is not integrable"
        )

    # the tail certificate holds, one profile at a time, a complex lattice of
    # 4N points per axis and its |.|, 24 bytes a point
    n_lat = 4 * max(prof.grid.points_per_axis for prof, _ in tail_pairs)
    _refuse_above_budget(24 * n_lat**d, f"the tail lattice of shape {(n_lat,) * d}")

    terms = (((1,) * len(tail_pairs), (1, 2)),) + tuple((signs, (1,)) for signs in parts)
    ((value, coarse, *extra),) = _lq_against(stg, tail_pairs[:-1], tail_pairs[-1:], q, terms, threads)
    quad_est = abs(value - coarse) / 3.0
    T = stg.t_half_width
    X = stg.x_half_width
    tail = 0.0
    for prof, shift in tail_pairs:
        ing = _tail_ingredients(prof, shift)
        mass = _time_tail_mass(ing, d, q, T) + _space_tail_mass(ing, d, q, T, X)
        tail += mass ** (1.0 / q)
    return NormResult(value, tail, quad_est, q, tuple(extra))


def _quotient(pairs: list, e: Exponents, stg: SpacetimeGrid, threads: int, parts: tuple = ()) -> tuple:
    """The L^p norm of the profile of each (profile, shift) pair of ``pairs``,
    and the quotient ||sum_k E_{s_k} f_k||_q / (sum_k ||f_k||_p^p)^{1/p}
    with the certified numerator of ``lq_norm_spacetime``, whose ``parts``
    are the truncated norms of the further combinations ``parts`` (one sign
    per pair) from the same pass.  Refuses before extending exponents of
    another dimension than ``stg``, and pairs whose profiles are all zero."""
    e.check_dimension(stg.d)
    lp = [lp_norm_frequency(prof, e.p) for prof, _ in pairs]
    den = sum(n**e.p for n in lp) ** (1.0 / e.p)
    if den == 0.0:
        raise ValueError("every profile is zero")
    return lp, QuotientResult(lq_norm_spacetime(stg, pairs, e.q, threads, parts), den)


def quotient_single(
    f: FrequencyProfile,
    e: Exponents,
    stg: SpacetimeGrid,
    threads: int = 1,
) -> QuotientResult:
    """||Ef||_q / ||f||_p, the one-part case of ``_quotient``; the field is
    streamed into the reduction and never held."""
    return _quotient([(f, ParaboloidShift.zero(f.grid.d))], e, stg, threads)[1]


def quotient_pair(
    f: FrequencyProfile,
    g: FrequencyProfile,
    shift: ParaboloidShift,
    e: Exponents,
    stg: SpacetimeGrid,
    threads: int = 1,
) -> QuotientResult:
    """||Ef + E_shift g||_q / (||f||_p^p + ||g||_p^p)^{1/p}, the two-part
    case of ``_quotient``, which holds at most one field."""
    return _quotient([(f, ParaboloidShift.zero(f.grid.d)), (g, shift)], e, stg, threads)[1]


def sharp_holder_gap(a: float, b: float, p: float) -> float:
    """Slack 2^{1/p'} (a^p + b^p)^{1/p} - (a + b) of the sharp two-term
    Hoelder inequality; nonnegative, zero exactly at a = b."""
    pc = p / (p - 1.0)
    return 2.0 ** (1.0 / pc) * (a**p + b**p) ** (1.0 / p) - (a + b)

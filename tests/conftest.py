"""Shared oracles and session-scoped fixtures.

The closed-form constants below are derived independently of the package
(Gaussian integrals evaluated by hand, truncated counterparts by scipy
quadrature) and are used as frozen reference values.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from parext.exponents import validate_exponents
from parext.extension import ExtensionOperator, ParaboloidShift
from parext.grids import FrequencyGrid, SpacetimeGrid, gaussian_profile, lp_norm_frequency
from parext.norms import quotient_single
from parext.search import _pair_field, _pair_gradient

# ---------------------------------------------------------------------------
# closed-form Gaussian constants (f(xi) = exp(-|xi|^2), d = 1 unless noted)
# ---------------------------------------------------------------------------

# ||Ef||_6 = (pi^4 sqrt(2 pi / 3))^{1/6},  ||f||_2 = (pi/2)^{1/4}
GAUSS_L6_D1 = (math.pi**4 * math.sqrt(2.0 * math.pi / 3.0)) ** (1.0 / 6.0)
GAUSS_L2_D1 = (math.pi / 2.0) ** 0.25
A2_D1 = GAUSS_L6_D1 / GAUSS_L2_D1  # 2.037784073631496

# d = 2: ||Ef||_4 = (pi^6)^{1/4},  ||f||_2 = (pi/2)^{1/2}
GAUSS_L4_D2 = math.pi**1.5
GAUSS_L2_D2 = math.sqrt(math.pi / 2.0)
A2_D2 = GAUSS_L4_D2 / GAUSS_L2_D2


def gauss_quotient(d: int) -> float:
    """||Ef||_q / ||f||_2 for the width-1 Gaussian in d dimensions at
    q = 2 + 4/d: |Ef|^q = pi^{dq/2} (1+t^2)^{-dq/4} exp(-q |x|^2 / (4 (1+t^2)))
    integrates over x to pi^{dq/2} (4 pi / q)^{d/2} / (1+t^2), and then
    over t to pi times that; ||f||_2 = (pi/2)^{d/4}.  Foschi 2007 proves it
    the sharp constant in d = 1 and 2, and conjectures it in every d."""
    q = 2.0 + 4.0 / d
    lq_q = math.pi ** (d * q / 2.0) * (4.0 * math.pi / q) ** (d / 2.0) * math.pi
    return lq_q ** (1.0 / q) / (math.pi / 2.0) ** (d / 4.0)


def truncated_gauss_l6_d1(T: float, X: float) -> float:
    """||Ef||_{L^6([-T,T] x [-X,X])} for the width-1 Gaussian, d = 1:
    |Ef|^6 = pi^3 (1+t^2)^{-3/2} exp(-3 x^2 / (2 (1+t^2)))."""

    def integrand(t):
        s = 1.0 + t * t
        return (
            math.pi**3
            * s**-1.5
            * math.sqrt(2.0 * math.pi * s / 3.0)
            * special.erf(X * math.sqrt(3.0 / (2.0 * s)))
        )

    val, _ = integrate.quad(integrand, -T, T, limit=400)
    return val ** (1.0 / 6.0)


def truncated_gauss_l4_d2(T: float, X: float) -> float:
    """||Ef||_{L^4} on the truncated window for the width-1 Gaussian, d = 2:
    |Ef|^4 = pi^4 (1+t^2)^{-2} exp(-|x|^2 / (1+t^2))."""

    def integrand(t):
        s = 1.0 + t * t
        return math.pi**5 / s * special.erf(X / math.sqrt(s)) ** 2

    val, _ = integrate.quad(integrand, -T, T, limit=400)
    return val ** (1.0 / 4.0)


def gauss_l6_exact(width: float) -> float:
    """Exact full-space ||Ef||_6 for f = exp(-(xi-c)^2/w^2 + i v xi), d = 1;
    independent of center and phase velocity by symmetry invariance."""
    return A2_D1 * (width**2 * math.pi / 2.0) ** 0.25


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


# ---------------------------------------------------------------------------
# checks of the operator and the search gradient
# ---------------------------------------------------------------------------


def plancherel_slice_defect(f, shift: ParaboloidShift, t_values) -> float:
    """Max relative deviation of the per-slice L^2 norm from
    (2 pi)^{d/2} ||f||_2 over the given time values.

    Each slice is evaluated by ``ExtensionOperator.apply`` on one period of
    the field: N points per axis spaced 2 pi / (N dxi) from -pi / dxi, where
    Parseval makes the discrete L^2 norm exact."""
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


def quotient_gradient(f, g, shift: ParaboloidShift, e, stg: SpacetimeGrid) -> tuple:
    """Euclidean gradient of the pair quotient at (f, g), at p = 2, plus the
    quotient value, through the search's own field and gradient; f and g
    share one frequency grid."""
    ops = (ExtensionOperator(f.grid, ParaboloidShift.zero(f.grid.d), stg), ExtensionOperator(f.grid, shift, stg))
    u = np.stack([f.samples, g.samples])
    grad, Q = _pair_gradient(ops, u, *_pair_field(ops, u, e.q), e.q)
    return grad[0], grad[1], Q


# ---------------------------------------------------------------------------
# frozen acceptance grids
# ---------------------------------------------------------------------------

FROZEN_FGRID_D1 = FrequencyGrid(1, 10.0, 4096)
FROZEN_STG_D1 = SpacetimeGrid(1, 400.0, 220.0, 5121, 4097)

FROZEN_FGRID_D2 = FrequencyGrid(2, 7.0, 128)
FROZEN_STG_D2 = SpacetimeGrid(2, 10.0, 16.0, 129, 97)

# streamed under the memory guard: the whole 129 x 49^3 field would take 243 MB
FROZEN_FGRID_D3 = FrequencyGrid(3, 6.0, 64)
FROZEN_STG_D3 = SpacetimeGrid(3, 8.0, 14.0, 129, 49)

PAIR_FGRID = FrequencyGrid(1, 10.0, 2048)
PAIR_STG = SpacetimeGrid(1, 160.0, 200.0, 2049, 2049)

SEARCH_FGRID = FrequencyGrid(1, 10.0, 256)
SEARCH_STG = SpacetimeGrid(1, 5.0, 15.0, 81, 129)


@pytest.fixture(scope="session")
def exponents_d1():
    return validate_exponents(1, 2.0)


@pytest.fixture(scope="session")
def exponents_d2():
    return validate_exponents(2, 2.0)


@pytest.fixture(scope="session")
def frozen_quotient_d1(exponents_d1):
    """quotient_single of the width-1 Gaussian on the frozen d=1 grid;
    shared between the norm tests and the acceptance gate (~5 s).
    Returns (QuotientResult, wall seconds)."""
    import time

    f = gaussian_profile(FROZEN_FGRID_D1)
    start = time.monotonic()
    res = quotient_single(f, exponents_d1, FROZEN_STG_D1)
    return res, time.monotonic() - start


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)

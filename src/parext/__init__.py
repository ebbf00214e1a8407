"""Numerical laboratory for Fourier extension operators on translated
paraboloids: sharp-constant quotients, symmetry actions, extremizing
sequences and direct search."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    NumericalRefusalError,
    NyquistError,
    ParextError,
    ParextWarning,
    TailCertificationError,
)
from .exponents import Exponents, validate_exponents
from .extension import ExtensionOperator, ParaboloidShift, extend
from .grids import (
    FrequencyGrid,
    FrequencyProfile,
    SpacetimeGrid,
    bump_profile,
    gaussian_profile,
    lp_norm_frequency,
    superpose,
)
from .norms import NormResult, QuotientResult, lq_norm_spacetime, quotient_pair, quotient_single

__all__ = [
    "ConfigError",
    "Exponents",
    "ExtensionOperator",
    "FrequencyGrid",
    "FrequencyProfile",
    "NormResult",
    "NumericalRefusalError",
    "NyquistError",
    "ParaboloidShift",
    "ParextError",
    "ParextWarning",
    "QuotientResult",
    "SpacetimeGrid",
    "TailCertificationError",
    "bump_profile",
    "extend",
    "gaussian_profile",
    "lp_norm_frequency",
    "lq_norm_spacetime",
    "quotient_pair",
    "quotient_single",
    "superpose",
    "validate_exponents",
]

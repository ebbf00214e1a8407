"""Exceptions, which the CLI maps onto exit codes, and the package warning."""


class ParextError(Exception):
    """Base class for all package errors."""


class ConfigError(ParextError):
    """Invalid experiment configuration (exit code 2)."""


class NumericalRefusalError(ParextError):
    """The requested computation would be numerically meaningless
    (exit code 3)."""


class NyquistError(NumericalRefusalError):
    """Frequency spacing too coarse for the requested spatial extent."""


class TailCertificationError(NumericalRefusalError):
    """No certified tail bound exists for the requested exponents."""


class ParextWarning(UserWarning):
    """A result computed outside the conditions its accuracy claims assume."""

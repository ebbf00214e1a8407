"""Dimension and Lebesgue-exponent bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Exponents:
    """Exponent quadruple (d, p, p', q) tied together by the scaling relation
    q = (d+2)/d * p'."""

    d: int
    p: float
    p_conj: float
    q: float

    def __post_init__(self):
        if self.q <= self.p:
            raise ValueError(f"q={self.q} must exceed p={self.p}")

    def check_dimension(self, d: int) -> None:
        """Refuse a grid of dimension ``d`` unless it is this record's."""
        if d != self.d:
            raise ValueError(f"exponents of dimension {self.d} on a {d}-d grid")


def validate_exponents(d: int, p: float) -> Exponents:
    """Build the exponent record for dimension ``d`` and input exponent ``p``.

    Raises ValueError for d < 1 or p <= 1 (the conjugate exponent would be
    undefined or infinite).
    """
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    d = int(d)
    p = float(p)
    if p <= 1.0:
        raise ValueError(f"p must exceed 1 (conjugate exponent infinite at p={p})")
    p_conj = p / (p - 1.0)
    q = (d + 2) * p_conj / d
    return Exponents(d=d, p=p, p_conj=p_conj, q=q)

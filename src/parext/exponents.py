"""Dimension and Lebesgue-exponent bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .grids import _as_dimension


@dataclass(frozen=True)
class Exponents:
    """The dimension d and input exponent p, and the p' and q = (d+2)/d * p'
    they fix.  Refuses (ValueError) a d that is not a whole number >= 1, a p
    that is not finite or not above 1, and q <= p."""

    d: int
    p: float
    p_conj: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self):
        d, p = _as_dimension(self.d), float(self.p)
        if not (math.isfinite(p) and p > 1.0):
            raise ValueError(f"p must exceed 1 and be finite, got {self.p}")
        p_conj = p / (p - 1.0)
        q = (d + 2) * p_conj / d
        if q <= p:
            raise ValueError(f"q={q} must exceed p={p}")
        for name, value in (("d", d), ("p", p), ("p_conj", p_conj), ("q", q)):
            object.__setattr__(self, name, value)

    def check_dimension(self, d: int) -> None:
        """Refuse a grid of dimension ``d`` unless it is this record's."""
        if d != self.d:
            raise ValueError(f"exponents of dimension {self.d} on a {d}-d grid")


def validate_exponents(d: int, p: float) -> Exponents:
    """The exponent record for dimension ``d`` and input exponent ``p``;
    ``Exponents`` refuses what it cannot hold."""
    return Exponents(d, p)

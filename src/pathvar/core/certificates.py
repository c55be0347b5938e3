"""Certified results: one record of a value enclosure and how it was made.

TwoSidedConverged certificates promise width(value) <= the requested
tolerance.  NonShrinkingBracket certificates carry a sound bracket that no
amount of extra sampling is entitled to shrink, which is exactly what a
Lipschitz-bounded sampled graph supports.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional

from ..numerics.dyadic import grid_bounds
from ..numerics.interval import Interval


class CertKind(enum.Enum):
    TWO_SIDED_CONVERGED = "two-sided-converged"
    NON_SHRINKING_BRACKET = "non-shrinking-bracket"


class Certificate:
    """A value enclosure and how it was made, each field named as to_json_dict
    prints it: net_size is None but on a converged length, budget a dict of its own."""

    __slots__ = ("value", "kind", "tolerance", "method", "partition_size", "net_size", "budget")

    def __init__(self, value: Interval, kind: CertKind, tolerance: Fraction, method: str,
                 partition_size: int, net_size: Optional[int] = None, budget=()):
        if kind is CertKind.TWO_SIDED_CONVERGED and value.n_hi - value.n_lo > grid_bounds(tolerance, value.e)[0]:
            raise ValueError(
                f"converged certificate wider ({value.width()}) than its tolerance ({tolerance})"
            )
        self.value, self.kind, self.tolerance, self.method = value, kind, tolerance, method
        self.partition_size, self.net_size, self.budget = partition_size, net_size, dict(budget)

    def to_json_dict(self, digits: int = 12) -> dict:
        return {
            "value": {
                "lo": decimal_down(self.value.lo, digits),
                "hi": decimal_up(self.value.hi, digits),
            },
            "kind": self.kind.value,
            "method": self.method,
            "tolerance": decimal_up(Fraction(self.tolerance), digits),
            "partition_size": self.partition_size,
            "net_size": self.net_size,
            "budget": dict(self.budget),
        }


# -- outward decimal printing ---------------------------------------------------


def _decimal_string(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    s = str(abs(n)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + s
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def decimal_down(q: Fraction, digits: int = 12) -> str:
    """Decimal string with `digits` places, rounded toward minus infinity."""
    scaled = q * 10**digits
    return _decimal_string(scaled.numerator // scaled.denominator, digits)


def decimal_up(q: Fraction, digits: int = 12) -> str:
    scaled = q * 10**digits
    return _decimal_string(-((-scaled.numerator) // scaled.denominator), digits)


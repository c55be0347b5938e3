"""Certified results: a value enclosure plus how it was obtained.

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


class Provenance:
    """How a certificate was made: the oracle, the sizes of its partition and
    of the net walked (None off the net route), and a budget dict of its own."""

    __slots__ = ("oracle", "partition_size", "net_size", "budget")

    def __init__(self, oracle: str, partition_size: int, net_size: Optional[int] = None, budget=()):
        self.oracle, self.partition_size, self.net_size = oracle, partition_size, net_size
        self.budget = dict(budget)


class Certificate:
    __slots__ = ("value", "kind", "tolerance", "provenance")

    def __init__(self, value: Interval, kind: CertKind, tolerance: Fraction, provenance: Provenance):
        if kind is CertKind.TWO_SIDED_CONVERGED and value.n_hi - value.n_lo > grid_bounds(tolerance, value.e)[0]:
            raise ValueError(
                f"converged certificate wider ({value.width()}) than its tolerance ({tolerance})"
            )
        self.value, self.kind, self.tolerance, self.provenance = value, kind, tolerance, provenance

    def to_json_dict(self, digits: int = 12) -> dict:
        return {
            "value": {
                "lo": decimal_down(self.value.lo, digits),
                "hi": decimal_up(self.value.hi, digits),
            },
            "kind": self.kind.value,
            "method": self.provenance.oracle,
            "tolerance": decimal_up(Fraction(self.tolerance), digits),
            "partition_size": self.provenance.partition_size,
            "net_size": self.provenance.net_size,
            "budget": dict(self.provenance.budget),
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


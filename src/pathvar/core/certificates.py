"""Certified results: a value enclosure plus how it was obtained.

TwoSidedConverged certificates promise width(value) <= the requested
tolerance.  NonShrinkingBracket certificates carry a sound bracket that no
amount of extra sampling is entitled to shrink, which is exactly what a
Lipschitz-bounded sampled graph supports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..numerics.interval import Interval


class CertKind(enum.Enum):
    TWO_SIDED_CONVERGED = "two-sided-converged"
    NON_SHRINKING_BRACKET = "non-shrinking-bracket"


@dataclass
class Provenance:
    oracle: str
    partition_size: int
    net_size: Optional[int] = None
    budget: dict = field(default_factory=dict)


@dataclass
class Certificate:
    value: Interval
    kind: CertKind
    tolerance: Fraction
    provenance: Provenance

    def __post_init__(self):
        if self.kind is CertKind.TWO_SIDED_CONVERGED:
            if self.value.width().as_fraction() > self.tolerance:
                raise ValueError(
                    f"converged certificate wider ({self.value.width()}) than its "
                    f"tolerance ({self.tolerance})"
                )

    def to_json_dict(self, digits: int = 12) -> dict:
        return {
            "value": {
                "lo": decimal_down(self.value.lo.as_fraction(), digits),
                "hi": decimal_up(self.value.hi.as_fraction(), digits),
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


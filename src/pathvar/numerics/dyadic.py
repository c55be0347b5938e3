"""Exact dyadic rationals: Fractions on a 2**e grid.

Every exact number in pathvar is a Fraction.  A Dyadic is a Fraction whose
denominator is a power of two; interval endpoints are Dyadics and partition
parameters lie on the same grid.  Arithmetic, comparison, hashing and str
are Fraction's own, so a Dyadic mixes freely with Fractions and ints and
its sums and products come back as plain Fractions.  Division
leaves the grid, so a derived value gets back onto it only through the
directed rounding below (floor_to, ceil_to, sqrt_down, sqrt_up), the only
places that round; that is what keeps every derived interval an honest
enclosure.

The (m, e) constructor and as_fraction() remain only because the benchmark
harness under bench/ builds Dyadic(m, e) and reads certificate endpoints
through as_fraction(); removing them waits for a change to the benchmark.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


def check_dyadic(q: Union[int, Fraction]) -> Union[int, Fraction]:
    """q itself if its denominator is a power of two; ValueError otherwise.
    The one test of what lies on the dyadic grid."""
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"{q} is not a dyadic rational")
    return q


class Dyadic(Fraction):
    """Dyadic(m, e) is m * 2**e for an integer m; Dyadic(q) is q, a Fraction
    or int whose denominator is a power of two.  Anything else raises
    ValueError."""

    __slots__ = ()

    def __new__(cls, m: Union[int, Fraction] = 0, e: int = 0):
        if type(m) is cls and not e:
            return m  # immutable, so shared
        if e:
            m = Fraction(m << e) if e > 0 else Fraction(m, 1 << -e)
        return super().__new__(cls, check_dyadic(m))

    # Fraction's repr, copy and pickle spell a subclass value as
    # cls(numerator, denominator), which Dyadic reads as numerator * 2**denominator
    def __repr__(self):
        return f"Dyadic(Fraction({self.numerator}, {self.denominator}))"

    def __reduce__(self):
        return (Dyadic, (Fraction(self.numerator, self.denominator),))

    def __copy__(self):
        return self  # immutable

    def __deepcopy__(self, memo):
        return self

    def as_fraction(self) -> "Dyadic":
        return self


# -- directed rounding of general rationals ----------------------------------


def _scaled(q: Fraction, exp: int, power: int = 1) -> tuple[int, int]:
    """(num, den) with num / den = q * 2**(-power * exp)."""
    num, den = q.numerator, q.denominator
    if exp <= 0:
        return num << (-power * exp), den
    return num, den << (power * exp)


def floor_to(q: Fraction, exp: int) -> Dyadic:
    """Largest multiple of 2**exp that is <= q."""
    num, den = _scaled(q, exp)
    return Dyadic(num // den, exp)


def ceil_to(q: Fraction, exp: int) -> Dyadic:
    """Smallest multiple of 2**exp that is >= q."""
    num, den = _scaled(q, exp)
    return Dyadic(-((-num) // den), exp)


def sqrt_down(q: Fraction, exp: int) -> Dyadic:
    """Largest multiple of 2**exp whose square is <= q (q >= 0)."""
    if q < 0:
        raise ValueError("sqrt of negative value")
    num, den = _scaled(q, exp, 2)
    return Dyadic(math.isqrt(num // den), exp)


def sqrt_up(q: Fraction, exp: int) -> Dyadic:
    """Smallest multiple of 2**exp whose square is >= q (q >= 0)."""
    if q < 0:
        raise ValueError("sqrt of negative value")
    num, den = _scaled(q, exp, 2)
    n = -((-num) // den)  # ceil(q * 4**-exp)
    k = math.isqrt(n)
    return Dyadic(k + (k * k < n), exp)


# -- tolerances and working precision -----------------------------------------


def eps_fraction(eps) -> Fraction:
    """A positive tolerance (Fraction, int or rational string) as an exact
    Fraction."""
    q = Fraction(eps)
    if q <= 0:
        raise ValueError("tolerance must be positive")
    return q


def floor_log2(q: Fraction) -> int:
    """Largest k with 2**k <= q, for q > 0."""
    n, d = q.numerator, q.denominator
    if n <= 0:
        raise ValueError("log of a nonpositive value")
    k = n.bit_length() - d.bit_length()
    if (n << max(0, -k)) >= (d << max(0, k)):
        return k
    return k - 1


def working_exp(eps: Fraction, margin: int = 6) -> int:
    """Working binary precision: comfortably below both 2**-60 and eps."""
    return min(-60, floor_log2(eps) - margin)

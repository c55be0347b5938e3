"""Intervals with Dyadic endpoints and directed rounding.

An Interval stores its endpoints as Dyadics, Fractions on a 2**e grid, so a
non-dyadic endpoint is rejected when the interval is built.  Every operation
returns an interval that contains the exact result for every choice of reals
inside the operands.  Addition, subtraction, multiplication and absolute
value stay on the grid, so no rounding slack appears there; square roots and
reciprocals take an explicit precision exponent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .dyadic import Dyadic, ceil_to, floor_to, sqrt_down, sqrt_up

Number = Union[Fraction, int]


class DomainError(ValueError):
    """A certified operation was asked to act outside its domain."""


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Number, hi: Number):
        lo, hi = Dyadic(lo), Dyadic(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, x: Number) -> "Interval":
        return cls(x, x)

    @classmethod
    def enclose(cls, q: Fraction, exp: int = -64) -> "Interval":
        """Tightest interval with endpoints on the 2**exp grid containing q."""
        return cls(floor_to(q, exp), ceil_to(q, exp))

    @classmethod
    def enclose_pair(cls, lo: Fraction, hi: Fraction, exp: int = -64) -> "Interval":
        return cls(floor_to(lo, exp), ceil_to(hi, exp))

    # -- views ---------------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Number) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"

    # -- exact arithmetic ----------------------------------------------------

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def _coerce(self, other):
        if isinstance(other, Interval):
            return other
        if isinstance(other, (Fraction, int)):
            return Interval.point(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi))

    # -- rounded operations ----------------------------------------------------

    def sqrt(self, exp: int = -64) -> "Interval":
        """Enclosure of sqrt over the interval; requires hi >= 0.

        A slightly negative lo is clamped to zero so that enclosures of
        nonnegative quantities (squared sums) stay usable after rounding.
        """
        if self.hi < 0:
            raise DomainError(f"sqrt of negative interval {self}")
        return Interval(sqrt_down(max(self.lo, 0), exp), sqrt_up(self.hi, exp))

    def recip(self, exp: int = -64) -> "Interval":
        """Enclosure of 1/x; requires the interval to exclude zero."""
        if self.lo <= 0 <= self.hi:
            raise DomainError(f"reciprocal of interval containing zero: {self}")
        return Interval(floor_to(1 / self.hi, exp), ceil_to(1 / self.lo, exp))


def norm_enclosure(n2: Fraction, exp: int) -> Interval:
    """Enclosure of sqrt(n2) for n2 > 0 with a positive lower end: the grid
    2**exp is refined until it resolves the root, which extremely short
    rays, and coarse grids, need."""
    while sqrt_down(n2, exp) == 0:
        exp = min(2 * exp, -1)
    return Interval(sqrt_down(n2, exp), sqrt_up(n2, exp))

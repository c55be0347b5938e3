"""Intervals on one dyadic grid, with directed rounding (Moore, Interval
Analysis, 1966).

An Interval is two integers over one power of two, [n_lo * 2**e, n_hi * 2**e];
lo and hi are Dyadic views of its ends, built when read.  Every operation
returns an interval that contains the exact result for every choice of reals
inside the operands: sums, differences and products are exact integer
operations, and enclose_pair, round_out and norm_enclosure round outward
onto a grid the caller names.  An end off the dyadic grid, or an
empty pair, is refused when the interval is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .dyadic import Dyadic, check_dyadic, grid_bounds, spell, sqrt_bounds

Number = Union[Fraction, int]


class DomainError(ValueError):
    """A certified operation was asked to act outside its domain."""


class Interval:
    __slots__ = ("n_lo", "n_hi", "e")

    def __init__(self, lo: Number, hi: Number):
        den = max(check_dyadic(lo).denominator, check_dyadic(hi).denominator)  # powers of two
        self.n_lo, self.n_hi = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        self.e = 1 - den.bit_length()
        if self.n_lo > self.n_hi:
            raise ValueError(f"empty interval [{spell(lo)}, {spell(hi)}]")

    # -- constructors ------------------------------------------------------

    @classmethod
    def on_grid(cls, n_lo: int, n_hi: int, e: int) -> "Interval":
        """[n_lo * 2**e, n_hi * 2**e] for integers n_lo <= n_hi."""
        iv = cls.__new__(cls)
        iv.n_lo, iv.n_hi, iv.e = n_lo, n_hi, e
        return iv

    @classmethod
    def enclose_pair(cls, lo: Fraction, hi: Fraction, exp: int = -64) -> "Interval":
        """Tightest interval with endpoints on the 2**exp grid containing [lo, hi]."""
        return cls.on_grid(grid_bounds(lo, exp)[0], grid_bounds(hi, exp)[1], exp)

    def round_out(self, exp: int) -> "Interval":
        """The tightest interval on the 2**exp grid that contains this one."""
        k = exp - self.e
        if k <= 0:
            return Interval.on_grid(self.n_lo << -k, self.n_hi << -k, exp)
        return Interval.on_grid(self.n_lo >> k, -(-self.n_hi >> k), exp)

    # -- views ---------------------------------------------------------------

    @property
    def lo(self) -> Dyadic:
        return Dyadic(self.n_lo, self.e)

    @property
    def hi(self) -> Dyadic:
        return Dyadic(self.n_hi, self.e)

    def width(self) -> Dyadic:
        return Dyadic(self.n_hi - self.n_lo, self.e)

    def mid(self) -> Dyadic:
        return Dyadic(self.n_lo + self.n_hi, self.e - 1)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self):
        return f"[{spell(self.lo)}, {spell(self.hi)}]"

    # -- exact arithmetic ----------------------------------------------------

    def __neg__(self):
        return Interval.on_grid(-self.n_hi, -self.n_lo, self.e)

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        if isinstance(other, (Fraction, int)):
            return Interval(other, other)
        raise TypeError(f"cannot combine an Interval with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        e = min(self.e, o.e)
        s, t = self.e - e, o.e - e
        return Interval.on_grid((self.n_lo << s) + (o.n_lo << t), (self.n_hi << s) + (o.n_hi << t), e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) + -self

    def __mul__(self, other):
        o = self._coerce(other)
        ends = (self.n_lo * o.n_lo, self.n_lo * o.n_hi, self.n_hi * o.n_lo, self.n_hi * o.n_hi)
        return Interval.on_grid(min(ends), max(ends), self.e + o.e)

    __rmul__ = __mul__

    def __abs__(self):
        if self.n_lo >= 0:
            return self
        if self.n_hi <= 0:
            return -self
        return Interval.on_grid(0, max(-self.n_lo, self.n_hi), self.e)


def norm_enclosure(n2: Fraction, exp: int) -> Interval:
    """Enclosure of sqrt(n2) for n2 > 0 with a positive lower end: the grid
    2**exp is refined until it resolves the root, which extremely short
    rays, and coarse grids, need."""
    if n2 <= 0:
        raise DomainError("zero vector has no direction")
    while not (bounds := sqrt_bounds(n2, exp))[0]:
        exp = min(2 * exp, -1)
    return Interval.on_grid(*bounds, exp)

"""Exact dyadic scalars.

A Dyadic is m * 2**e with integer m, e.  Canonical form keeps m odd (or the
value zero with e = 0), so equality is representation equality.  Addition,
multiplication and comparison are exact; division is not closed and is only
provided through directed rounding helpers, which is what keeps every derived
interval an honest enclosure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union["Dyadic", int]


class Dyadic:
    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        if m == 0:
            self.m = 0
            self.e = 0
            return
        # strip trailing zero bits so the mantissa is odd
        s = (m & -m).bit_length() - 1
        self.m = m >> s
        self.e = e + s

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        """Exact conversion; raises ValueError when q is not dyadic."""
        den = q.denominator
        if den & (den - 1):
            raise ValueError(f"{q} is not a dyadic rational")
        return cls(q.numerator, -(den.bit_length() - 1))

    # -- exact views -------------------------------------------------------

    @property
    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def as_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e, 1)
        return Fraction(self.m, 1 << -self.e)

    def __float__(self) -> float:  # diagnostics only; never enters a certificate
        return math.ldexp(self.m, self.e)

    # -- arithmetic (exact) ------------------------------------------------

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.e)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.m), self.e)

    def _coerce(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        e = min(self.e, o.e)
        return Dyadic((self.m << (self.e - e)) + (o.m << (o.e - e)), e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        e = min(self.e, o.e)
        return Dyadic((self.m << (self.e - e)) - (o.m << (o.e - e)), e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Dyadic(self.m * o.m, self.e + o.e)

    __rmul__ = __mul__

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k."""
        if self.m == 0:
            return self
        return Dyadic(self.m, self.e + k)

    def half(self) -> "Dyadic":
        return self.scale2(-1)

    # -- comparisons (exact) -----------------------------------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare Dyadic with {type(other)!r}")
        e = min(self.e, o.e)
        a = self.m << (self.e - e)
        b = o.m << (o.e - e)
        return (a > b) - (a < b)

    def __eq__(self, other):
        if isinstance(other, (Dyadic, int)):
            return self._cmp(other) == 0
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.m, self.e))

    def __bool__(self):
        return self.m != 0

    # -- requantization (directed) ------------------------------------------

    def round_down(self, exp: int) -> "Dyadic":
        """Largest multiple of 2**exp that is <= self."""
        if self.m == 0 or self.e >= exp:
            return self
        return Dyadic(self.m >> (exp - self.e), exp)

    def round_up(self, exp: int) -> "Dyadic":
        if self.m == 0 or self.e >= exp:
            return self
        return Dyadic(-((-self.m) >> (exp - self.e)), exp)

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        return f"Dyadic({self.m}, {self.e})"

    def __str__(self):
        if self.e >= 0:
            return str(self.m << self.e)
        f = -self.e
        if f > 64:
            return f"{self.m}*2^{self.e}"
        digits = abs(self.m) * 5**f
        s = str(digits).rjust(f + 1, "0")
        body = f"{s[:-f]}.{s[-f:]}".rstrip("0").rstrip(".")
        return ("-" if self.m < 0 else "") + body


ZERO = Dyadic(0)
ONE = Dyadic(1)


# -- directed rounding of general rationals ----------------------------------


def floor_to(q: Fraction, exp: int) -> Dyadic:
    """Largest multiple of 2**exp that is <= q."""
    num, den = q.numerator, q.denominator
    if exp <= 0:
        num <<= -exp
    else:
        den <<= exp
    return Dyadic(num // den, exp)


def ceil_to(q: Fraction, exp: int) -> Dyadic:
    num, den = q.numerator, q.denominator
    if exp <= 0:
        num <<= -exp
    else:
        den <<= exp
    return Dyadic(-((-num) // den), exp)


def sqrt_down(q, exp: int) -> Dyadic:
    """Largest multiple of 2**exp whose square is <= q (q >= 0)."""
    q = q.as_fraction() if isinstance(q, Dyadic) else Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative value")
    if q == 0:
        return ZERO
    num, den = q.numerator, q.denominator
    # floor(q * 4**-exp), exp <= 0 in practice but handle both signs
    if exp <= 0:
        n = (num << (-2 * exp)) // den
    else:
        n = num // (den << (2 * exp))
    return Dyadic(math.isqrt(n), exp)


def sqrt_up(q, exp: int) -> Dyadic:
    """Smallest multiple of 2**exp whose square is >= q (q >= 0)."""
    q = q.as_fraction() if isinstance(q, Dyadic) else Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative value")
    if q == 0:
        return ZERO
    num, den = q.numerator, q.denominator
    if exp <= 0:
        scaled_num, scaled_den = num << (-2 * exp), den
    else:
        scaled_num, scaled_den = num, den << (2 * exp)
    n = -((-scaled_num) // scaled_den)  # ceil(q * 4**-exp)
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    return Dyadic(k, exp)


# -- tolerances and working precision -----------------------------------------


def eps_fraction(eps) -> Fraction:
    """A positive tolerance (Dyadic, int, Fraction or rational string) as an
    exact Fraction."""
    q = eps.as_fraction() if isinstance(eps, Dyadic) else Fraction(eps)
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

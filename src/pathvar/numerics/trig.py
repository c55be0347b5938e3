"""Certified enclosures of pi, sin, cos and atan.

Everything is computed from exact rational Taylor partial sums with explicit
remainder bounds, then rounded outward onto a dyadic grid.  The Lagrange
remainder for sin/cos after the k-th retained term is |x|**n / n! with n the
order of the first dropped term, valid for every real x, so the series needs
no alternation argument; large arguments are first reduced by an exact
multiple of an enclosure of 2*pi.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

from .dyadic import ceil_to, floor_to
from .interval import Interval

_TWO_PI_APPROX = Fraction(710, 113)  # only used to pick the reduction multiple

Angle = Union[Interval, Fraction, int]


def _series(first: Fraction, x2: Fraction, ratio, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds s - t, s + t for sum_k (-1)**k t_k, summed while t_k > tol,
    where t_0 = first >= 0 and t_{k+1} = t_k * x2 * a / b for (a, b) =
    ratio(k); t is the first dropped term.  The partial sum and the term are
    integers over one unnormalized denominator, so the only gcds are the two
    that form the bounds."""
    p, q = x2.numerator, x2.denominator
    t, den = first.numerator, first.denominator
    s = 0
    k = 0
    while t * tol.denominator > tol.numerator * den:
        s += -t if k & 1 else t
        a, b = ratio(k)
        t *= p * a
        s *= q * b
        den *= q * b
        k += 1
    return Fraction(s - t, den), Fraction(s + t, den)


def _atan_series(x: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds for atan(x), 0 <= x <= 0.5: alternating series, decreasing terms."""
    return _series(x, x * x, lambda k: (2 * k + 1, 2 * k + 3), tol)


def pi_enclosure(exp: int = -64) -> Interval:
    """Interval containing pi with endpoints on the 2**exp grid."""
    # a multiple of 32 fixes pi's grid across callers and keeps the memo small
    return _pi_on_grid(-(((-exp) + 31) // 32) * 32)


@functools.cache
def _pi_on_grid(exp: int) -> Interval:
    tol = Fraction(1, 1 << (-exp + 8))
    lo1, hi1 = _atan_series(Fraction(1, 5), tol)
    lo2, hi2 = _atan_series(Fraction(1, 239), tol)
    return Interval.enclose_pair(16 * lo1 - 4 * hi2, 16 * hi1 - 4 * lo2, exp)


def _cos_series(m: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    return _series(Fraction(1), m * m, lambda k: (1, (2 * k + 1) * (2 * k + 2)), tol)


def _sin_series(m: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    if m < 0:
        lo, hi = _sin_series(-m, tol)
        return -hi, -lo
    return _series(m, m * m, lambda k: (1, (2 * k + 2) * (2 * k + 3)), tol)


@functools.lru_cache(maxsize=8192)
def _trig_point(mid: Fraction, exp: int, which: str) -> Interval:
    tol = Fraction(1, 1 << (-exp + 3))
    extra = Fraction(0)
    if mid > 4 or mid < -4:
        # reduce by k * 2pi; any k keeps the enclosure sound, but k must come
        # from a 2pi approximation whose error times k stays small, or the
        # residual argument is still huge and the series cannot terminate
        rough = math.floor(mid / _TWO_PI_APPROX + Fraction(1, 2))
        pi_exp = exp - 16 - max(abs(rough).bit_length(), 1)
        two_pi = pi_enclosure(pi_exp) * 2
        k = math.floor(mid / two_pi.mid() + Fraction(1, 2))
        shifted = Interval.enclose_pair(mid, mid, pi_exp) - two_pi * k
        mid = shifted.mid()
        extra = shifted.width() / 2
    den = mid.denominator
    if den & (den - 1) or den.bit_length() > -exp + 24:
        # snap awkward rationals to the dyadic grid; |sin'|, |cos'| <= 1
        grid = Fraction(1, 1 << (-exp + 12))
        snapped = round(mid / grid) * grid
        extra += abs(mid - snapped)
        mid = snapped
    series = _cos_series if which == "cos" else _sin_series
    lo, hi = series(mid, tol)
    lo -= extra
    hi += extra
    return Interval(max(floor_to(lo, exp), -1), min(ceil_to(hi, exp), 1))


def _enclosure(x: Angle, exp: int, which: str) -> Interval:
    """cos or sin at the argument's midpoint, widened by its radius: |cos'|,
    |sin'| <= 1."""
    if not isinstance(x, Interval):
        return _trig_point(Fraction(x), exp, which)
    out = _trig_point(x.mid(), exp, which)
    pad = ceil_to(x.width() / 2, exp)
    return Interval(max(out.lo - pad, -1), min(out.hi + pad, 1))


def cos_enclosure(x: Angle, exp: int = -64) -> Interval:
    return _enclosure(x, exp, "cos")


def sin_enclosure(x: Angle, exp: int = -64) -> Interval:
    return _enclosure(x, exp, "sin")


def atan_enclosure(q: Fraction, exp: int = -64) -> Interval:
    """Interval containing atan(q) for an exact rational q."""
    if q < 0:
        r = atan_enclosure(-q, exp)
        return Interval(-r.hi, -r.lo)
    if q > 1:
        half_pi = pi_enclosure(exp - 4) * Fraction(1, 2)
        inner = atan_enclosure(1 / q, exp - 2)
        return Interval.enclose_pair(half_pi.lo - inner.hi, half_pi.hi - inner.lo, exp)
    tol = Fraction(1, 1 << (-exp + 4))
    if q <= Fraction(1, 2):
        lo, hi = _atan_series(q, tol)
        return Interval.enclose_pair(lo, hi, exp)
    # halve the argument: atan(q) = 2 atan(q / (1 + sqrt(1 + q^2)))
    s = Interval.enclose_pair(1 + q * q, 1 + q * q, exp - 8).sqrt(exp - 8)
    arg_lo = q / (1 + s.hi)
    arg_hi = q / (1 + s.lo)
    lo1, _ = _atan_series(arg_lo, tol)
    _, hi1 = _atan_series(arg_hi, tol)
    return Interval.enclose_pair(2 * lo1, 2 * hi1, exp)

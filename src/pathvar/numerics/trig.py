"""Certified enclosures of pi, sin, cos and atan.

Everything is computed from exact rational Taylor partial sums with explicit
remainder bounds, then rounded outward onto a dyadic grid.  The Lagrange
remainder for sin/cos after the k-th retained term is |x|**n / n! with n the
order of the first dropped term, valid for every real x, so the series needs
no alternation argument; large arguments are first reduced by an exact
multiple of an enclosure of 2*pi.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .dyadic import ceil_to, floor_to
from .interval import Interval

_TWO_PI_APPROX = Fraction(710, 113)  # only used to pick the reduction multiple

Angle = Union[Interval, Fraction, int]


def _atan_series(x: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds for atan(x), 0 <= x <= 0.5: alternating series, decreasing terms."""
    x2 = x * x
    term = x
    s = Fraction(0)
    sign = 1
    k = 0
    while term > tol:
        s += sign * term
        sign = -sign
        term = term * x2 * Fraction(2 * k + 1, 2 * k + 3)
        k += 1
    return s - term, s + term


_pi_cache: dict[int, Interval] = {}


def pi_enclosure(exp: int = -64) -> Interval:
    """Interval containing pi with endpoints on the 2**exp grid."""
    exp = -(((-exp) + 31) // 32) * 32  # quantize requests so the cache stays small
    hit = _pi_cache.get(exp)
    if hit is not None:
        return hit
    tol = Fraction(1, 1 << (-exp + 8))
    lo1, hi1 = _atan_series(Fraction(1, 5), tol)
    lo2, hi2 = _atan_series(Fraction(1, 239), tol)
    lo = 16 * lo1 - 4 * hi2
    hi = 16 * hi1 - 4 * lo2
    out = Interval(floor_to(lo, exp), ceil_to(hi, exp))
    _pi_cache[exp] = out
    return out


def _cos_series(m: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    m2 = m * m
    term = Fraction(1)
    s = Fraction(0)
    sign = 1
    k = 0
    while term > tol:
        s += sign * term
        sign = -sign
        term = term * m2 / ((2 * k + 1) * (2 * k + 2))
        k += 1
    return s - term, s + term


def _sin_series(m: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    if m < 0:
        lo, hi = _sin_series(-m, tol)
        return -hi, -lo
    m2 = m * m
    term = m
    s = Fraction(0)
    sign = 1
    k = 0
    while term > tol:
        s += sign * term
        sign = -sign
        term = term * m2 / ((2 * k + 2) * (2 * k + 3))
        k += 1
    return s - term, s + term


def _split_arg(x: Angle, exp: int) -> tuple[Fraction, Fraction]:
    """Midpoint and radius of the argument as exact rationals."""
    if isinstance(x, Interval):
        return x.mid(), x.width() / 2
    return Fraction(x), Fraction(0)


_trig_cache: dict[tuple, Interval] = {}


def _trig_point(mid: Fraction, exp: int, which: str) -> Interval:
    key = (mid.numerator, mid.denominator, exp, which)
    hit = _trig_cache.get(key)
    if hit is not None:
        return hit
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
        shifted = Interval.enclose(mid, pi_exp) - two_pi * k
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
    out = Interval(max(floor_to(lo, exp), -1), min(ceil_to(hi, exp), 1))
    if len(_trig_cache) > 8192:
        _trig_cache.clear()
    _trig_cache[key] = out
    return out


def cos_enclosure(x: Angle, exp: int = -64) -> Interval:
    mid, rad = _split_arg(x, exp)
    out = _trig_point(mid, exp, "cos")
    if rad:
        # |cos'| <= 1, widen by the argument radius
        pad = ceil_to(rad, exp)
        out = Interval(max(out.lo - pad, -1), min(out.hi + pad, 1))
    return out


def sin_enclosure(x: Angle, exp: int = -64) -> Interval:
    mid, rad = _split_arg(x, exp)
    out = _trig_point(mid, exp, "sin")
    if rad:
        pad = ceil_to(rad, exp)
        out = Interval(max(out.lo - pad, -1), min(out.hi + pad, 1))
    return out


def atan_enclosure(q: Fraction, exp: int = -64) -> Interval:
    """Interval containing atan(q) for an exact rational q."""
    if q < 0:
        r = atan_enclosure(-q, exp)
        return Interval(-r.hi, -r.lo)
    if q > 1:
        half_pi = pi_enclosure(exp - 4) * Fraction(1, 2)
        inner = atan_enclosure(1 / q, exp - 2)
        return Interval(
            floor_to(half_pi.lo - inner.hi, exp), ceil_to(half_pi.hi - inner.lo, exp)
        )
    tol = Fraction(1, 1 << (-exp + 4))
    if q <= Fraction(1, 2):
        lo, hi = _atan_series(q, tol)
        return Interval(floor_to(lo, exp), ceil_to(hi, exp))
    # halve the argument: atan(q) = 2 atan(q / (1 + sqrt(1 + q^2)))
    s = Interval.enclose(1 + q * q, exp - 8).sqrt(exp - 8)
    arg_lo = q / (1 + s.hi)
    arg_hi = q / (1 + s.lo)
    lo1, _ = _atan_series(arg_lo, tol)
    _, hi1 = _atan_series(arg_hi, tol)
    return Interval(floor_to(2 * lo1, exp), ceil_to(2 * hi1, exp))

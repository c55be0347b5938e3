"""Certified enclosures of pi, sin, cos and atan.

Everything is computed from Taylor partial sums on fixed-point integers over
one 2**P, with a counted bound on the rounding of each term and an explicit
remainder bound, kept as an interval on that grid and rounded outward onto
the caller's grid by shifts.  The Lagrange remainder for sin/cos after the
k-th retained term is |x|**n / n! with n the order of the first dropped
term, valid for every real x, so the series needs no alternation argument;
large arguments are first reduced by an exact multiple of an enclosure of
2*pi.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

from .interval import Interval

Angle = Union[Interval, Fraction, int]


def _series(first: Fraction, x2: Fraction, ratio, tol: Fraction) -> Interval:
    """Bounds for sum_k (-1)**k t_k, t_0 = first and t_{k+1} = t_k * x2 * a / b
    for (a, b) = ratio(k), summed while a term may pass tol in size; the
    first dropped term bounds the tail.  Sum and term are integers over one
    2**P, P the bits of 1/tol and guard bits for the term count, and so are
    the ends of the interval returned: each term is rounded down, and err,
    an integer bound on how far it lies below the true term, starts at 1
    and grows to ceil(err * x2 * a / b) + 1 a term (Brent and Zimmermann,
    Modern Computer Arithmetic, 4.4)."""
    p, q = x2.numerator, x2.denominator
    bits = tol.denominator.bit_length()
    P = bits + 2 * bits.bit_length() + 4
    t, err = (first.numerator << P) // first.denominator, 1
    limit = (tol.numerator << P) // tol.denominator
    s = slack = k = 0
    while abs(t) + err > limit:
        s += -t if k & 1 else t
        slack += err
        a, b = ratio(k)
        t = t * p * a // (q * b)
        err = -(-err * p * a // (q * b)) + 1
        k += 1
    slack += abs(t) + err
    return Interval.on_grid(s - slack, s + slack, -P)


def _unit(iv: Interval) -> Interval:
    """iv cut to [-1, 1], for iv.e <= 0."""
    one = 1 << -iv.e
    return Interval.on_grid(max(iv.n_lo, -one), min(iv.n_hi, one), iv.e)


def _atan_series(x: Fraction, tol: Fraction) -> Interval:
    """Bounds for atan(x), |x| <= 1/2: alternating series, decreasing terms."""
    return _series(x, x * x, lambda k: (2 * k + 1, 2 * k + 3), tol)


def pi_enclosure(exp: int = -64) -> Interval:
    """Interval containing pi with endpoints on the 2**exp grid."""
    # a multiple of 32 fixes pi's grid across callers and keeps the memo small
    return _pi_on_grid(-(((-exp) + 31) // 32) * 32)


@functools.cache
def _pi_on_grid(exp: int) -> Interval:
    tol = Fraction(1, 1 << (-exp + 8))
    return (_atan_series(Fraction(1, 5), tol) * 16 - _atan_series(Fraction(1, 239), tol) * 4).round_out(exp)


def _trig_point(mid: Fraction, exp: int, which: str) -> Interval:
    tol = Fraction(1, 1 << (-exp + 3))
    extra = Interval(0, 0)
    if mid > 4 or mid < -4:
        # reduce by k * 2pi; any k keeps the enclosure sound, but the error
        # of 2pi times k must stay small, so pi gets as many more bits as
        # |mid| has, or the residual argument is still huge
        pi_exp = exp - 16 - (abs(mid.numerator).bit_length() - mid.denominator.bit_length())
        two_pi = pi_enclosure(pi_exp) * 2
        k = math.floor(mid / two_pi.mid() + Fraction(1, 2))
        shifted = Interval.enclose_pair(mid, mid, pi_exp) - two_pi * k
        mid, w = shifted.mid(), shifted.n_hi - shifted.n_lo
        extra = Interval.on_grid(-w, w, shifted.e - 1)
    j = int(which == "sin")  # cos sums x**(2k) / (2k)!, sin x**(2k+1) / (2k+1)!
    sums = _series(mid**j, mid * mid, lambda k: (1, (2 * k + 1 + j) * (2 * k + 2 + j)), tol)
    return _unit(sums + extra).round_out(exp)


def _enclosure(x: Angle, exp: int, which: str) -> Interval:
    """cos or sin at the argument's midpoint, widened by its radius: |cos'|,
    |sin'| <= 1."""
    if not isinstance(x, Interval):
        return _trig_point(Fraction(x), exp, which)
    w = x.n_hi - x.n_lo
    return _unit(_trig_point(x.mid(), exp, which) + Interval.on_grid(-w, w, x.e - 1).round_out(exp))


def cos_enclosure(x: Angle, exp: int = -64) -> Interval:
    return _enclosure(x, exp, "cos")


def sin_enclosure(x: Angle, exp: int = -64) -> Interval:
    return _enclosure(x, exp, "sin")


def atan_enclosure(q: Fraction, exp: int = -64) -> Interval:
    """Interval containing atan(q) for an exact rational q."""
    if q < 0:
        return -atan_enclosure(-q, exp)
    if q > 1:
        return (pi_enclosure(exp - 4) * Fraction(1, 2) - atan_enclosure(1 / q, exp - 2)).round_out(exp)
    tol = Fraction(1, 1 << (-exp + 4))
    if q <= Fraction(1, 2):
        return _atan_series(q, tol).round_out(exp)
    # atan(q) = pi/4 + atan((q - 1) / (q + 1)), an argument in (-1/3, 0]
    return (pi_enclosure(exp - 4) * Fraction(1, 4) + _atan_series((q - 1) / (q + 1), tol)).round_out(exp)

"""Certified trig enclosures checked against mpmath at 60 digits, and at
400 digits for the fine grids.

mpmath values are oracles only: each check asserts that the certified
interval contains a reference rational that approximates the true value far
more tightly than the interval width, so a passing test really does witness
containment of the exact value.
"""

from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st

from conftest import contains

from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import Interval
from pathvar.numerics.trig import (
    atan_enclosure,
    cos_enclosure,
    pi_enclosure,
    sin_enclosure,
)

mpmath.mp.dps = 60


def _ref(x) -> Fraction:
    """Rational within 1e-55 of the mpmath value."""
    return Fraction(mpmath.nstr(x, 50, strip_zeros=False))


# frozen to 50 digits; independent of this package
PI_50 = Fraction("3.1415926535897932384626433832795028841971693993751")


def test_pi_enclosure_contains_reference():
    for exp in (-20, -64, -140):
        iv = pi_enclosure(exp)
        assert contains(iv, PI_50)
        assert iv.width() <= Dyadic(1, exp + 4)


def test_pi_enclosure_nested():
    coarse = pi_enclosure(-32)
    fine = pi_enclosure(-96)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_exact_special_points():
    assert contains(cos_enclosure(Fraction(0), -80), Fraction(1))
    assert contains(sin_enclosure(Fraction(0), -80), Fraction(0))
    pi = pi_enclosure(-80)
    half_pi = pi * Fraction(1, 2)
    assert contains(sin_enclosure(half_pi, -64), Fraction(1))
    assert contains(cos_enclosure(half_pi, -64), Fraction(0))
    # cos(pi/3) = 1/2 exactly
    third_pi = Interval.enclose_pair(
        pi.lo / 3, pi.hi / 3, -78
    )
    cos_third = cos_enclosure(third_pi, -64)
    assert contains(cos_third, Fraction(1, 2))
    assert cos_third.width() <= Dyadic(1, -56)


def _fine_ref(fn, q: Fraction) -> Fraction:
    """Rational within a relative 1e-395 of fn(q), from mpmath at 400 digits."""
    with mpmath.workdps(400):
        return Fraction(mpmath.nstr(fn(mpmath.mpf(q.numerator) / q.denominator), 398))


@given(st.fractions(min_value=-8, max_value=8), st.integers(min_value=-70, max_value=-20))
@example(x=Fraction(5, 7), exp=-400)
@example(x=Fraction(-53, 7), exp=-1000)
@settings(max_examples=60, deadline=None)
def test_sin_cos_contain_mpmath_reference(x, exp):
    s = sin_enclosure(x, exp)
    c = cos_enclosure(x, exp)
    assert contains(s, _fine_ref(mpmath.sin, x))
    assert contains(c, _fine_ref(mpmath.cos, x))
    assert s.width() <= Dyadic(1, exp + 6)
    assert c.width() <= Dyadic(1, exp + 6)


@given(st.fractions(min_value=-50, max_value=50), st.integers(min_value=-70, max_value=-20))
@example(q=Fraction(3, 4), exp=-400)
@example(q=Fraction(-50, 3), exp=-1000)
@settings(max_examples=60, deadline=None)
def test_atan_contains_mpmath_reference(q, exp):
    iv = atan_enclosure(q, exp)
    assert contains(iv, _fine_ref(mpmath.atan, q))
    assert iv.width() <= Dyadic(1, exp + 6)


def test_interval_argument_covers_range():
    # over [0, pi/2] the sine enclosure must cover both endpoint values
    half_pi = pi_enclosure(-64) * Fraction(1, 2)
    arg = Interval(Dyadic(0), half_pi.hi)
    s = sin_enclosure(arg, -40)
    assert contains(s, Fraction(0)) and contains(s, Fraction(1))


def test_awkward_rational_arguments_stay_sound():
    # huge prime denominators go into the fixed-point series as they are:
    # each term is one multiply and one divide by the argument's square
    for q in (Fraction(1, 10**30 + 57), Fraction(355, 113), Fraction(10**20 + 9, 3)):
        for enclosure, fn in ((sin_enclosure, mpmath.sin), (cos_enclosure, mpmath.cos)):
            iv = enclosure(q, -48)
            assert contains(iv, _ref(fn(mpmath.mpf(q.numerator) / q.denominator)))


def test_sin_cos_at_three_thousand_bits():
    # at exp = -3,000 the series keeps hundreds of terms over 3,000-odd
    # bits, so the counted bound on their rounding must hold over all of
    # them; the reference has 1,000 digits, about 3,300 bits
    exp = -3000
    for x in (Fraction(5, 7), Fraction(-53, 7), Fraction(1, 10**30 + 57)):
        with mpmath.workdps(1000):
            mx = mpmath.mpf(x.numerator) / x.denominator
            refs = [Fraction(mpmath.nstr(fn(mx), 995)) for fn in (mpmath.sin, mpmath.cos)]
        for enclosure, ref in zip((sin_enclosure, cos_enclosure), refs):
            iv = enclosure(x, exp)
            assert contains(iv, ref)
            assert iv.width() <= Dyadic(1, exp + 6)


def test_monotone_precision_refinement():
    x = Fraction(7, 5)
    widths = [sin_enclosure(x, e).width() for e in (-20, -40, -80)]
    assert widths[0] > widths[1] > widths[2]

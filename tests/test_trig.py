"""Certified trig enclosures checked against mpmath at 60 digits.

mpmath values are oracles only: each check asserts that the certified
interval contains a reference rational that approximates the true value far
more tightly than the interval width, so a passing test really does witness
containment of the exact value.
"""

from fractions import Fraction

import mpmath
from hypothesis import given, settings, strategies as st

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
        assert iv.contains(PI_50)
        assert iv.width() <= Dyadic(1, exp + 4)


def test_pi_enclosure_nested():
    coarse = pi_enclosure(-32)
    fine = pi_enclosure(-96)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_exact_special_points():
    assert cos_enclosure(Fraction(0), -80).contains(Fraction(1))
    assert sin_enclosure(Fraction(0), -80).contains(Fraction(0))
    pi = pi_enclosure(-80)
    half_pi = pi * Fraction(1, 2)
    assert sin_enclosure(half_pi, -64).contains(Fraction(1))
    assert cos_enclosure(half_pi, -64).contains(Fraction(0))
    # cos(pi/3) = 1/2 exactly
    third_pi = Interval.enclose_pair(
        pi.lo / 3, pi.hi / 3, -78
    )
    cos_third = cos_enclosure(third_pi, -64)
    assert cos_third.contains(Fraction(1, 2))
    assert cos_third.width() <= Dyadic(1, -56)


@given(st.fractions(min_value=-8, max_value=8), st.integers(min_value=-70, max_value=-20))
@settings(max_examples=60, deadline=None)
def test_sin_cos_contain_mpmath_reference(x, exp):
    s = sin_enclosure(x, exp)
    c = cos_enclosure(x, exp)
    assert s.contains(_ref(mpmath.sin(x.numerator / mpmath.mpf(x.denominator))))
    assert c.contains(_ref(mpmath.cos(x.numerator / mpmath.mpf(x.denominator))))
    assert s.width() <= Dyadic(1, exp + 6)
    assert c.width() <= Dyadic(1, exp + 6)


@given(st.fractions(min_value=-50, max_value=50), st.integers(min_value=-70, max_value=-20))
@settings(max_examples=60, deadline=None)
def test_atan_contains_mpmath_reference(q, exp):
    iv = atan_enclosure(q, exp)
    assert iv.contains(_ref(mpmath.atan(q.numerator / mpmath.mpf(q.denominator))))
    assert iv.width() <= Dyadic(1, exp + 6)


def test_interval_argument_covers_range():
    # over [0, pi/2] the sine enclosure must cover both endpoint values
    half_pi = pi_enclosure(-64) * Fraction(1, 2)
    arg = Interval(Dyadic(0), half_pi.hi)
    s = sin_enclosure(arg, -40)
    assert s.contains(Fraction(0)) and s.contains(Fraction(1))


def test_awkward_rational_arguments_stay_sound():
    # huge prime denominators exercise the grid-snapping path
    for q in (Fraction(1, 10**30 + 57), Fraction(355, 113), Fraction(10**20 + 9, 3)):
        for enclosure, fn in ((sin_enclosure, mpmath.sin), (cos_enclosure, mpmath.cos)):
            iv = enclosure(q, -48)
            assert iv.contains(_ref(fn(mpmath.mpf(q.numerator) / q.denominator)))


def test_monotone_precision_refinement():
    x = Fraction(7, 5)
    widths = [sin_enclosure(x, e).width() for e in (-20, -40, -80)]
    assert widths[0] > widths[1] > widths[2]

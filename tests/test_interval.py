"""Interval arithmetic soundness.

The load-bearing property is containment: whatever reals you pick inside the
operand intervals, the exact result of the operation lands inside the result
interval.  Hypothesis drives that directly with rational sample points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import DomainError, Interval

mantissas = st.integers(min_value=-(1 << 24), max_value=1 << 24)
exponents = st.integers(min_value=-30, max_value=8)


@st.composite
def intervals(draw):
    a = Dyadic(draw(mantissas), draw(exponents))
    b = Dyadic(draw(mantissas), draw(exponents))
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_with_point(draw):
    iv = draw(intervals())
    # pick an interior rational, not necessarily dyadic
    t = Fraction(draw(st.integers(min_value=0, max_value=1000)), 1000)
    x = iv.lo + t * (iv.hi - iv.lo)
    return iv, x


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(Dyadic(1), Dyadic(0))


def test_non_dyadic_endpoint_rejected():
    with pytest.raises(ValueError):
        Interval(Fraction(1, 3), Fraction(1, 2))


def test_point_and_enclose():
    p = Interval.point(Fraction(3, 4))
    assert p.is_point() and p.lo == Dyadic(3, -2)
    third = Interval.enclose(Fraction(1, 3), -10)
    assert third.contains(Fraction(1, 3))
    assert third.width() <= Dyadic(1, -10)
    with pytest.raises(ValueError):
        Interval.point(Fraction(1, 3))


@given(interval_with_point(), interval_with_point())
def test_arithmetic_containment(ax, by):
    a, x = ax
    b, y = by
    assert (a + b).contains(x + y)
    assert (a - b).contains(x - y)
    assert (a * b).contains(x * y)
    assert (-a).contains(-x)
    assert abs(a).contains(abs(x))


@given(interval_with_point(), st.integers(min_value=-40, max_value=-2))
def test_sqrt_containment(ax, exp):
    a, x = ax
    if a.hi < 0:
        with pytest.raises(DomainError):
            a.sqrt(exp)
        return
    r = a.sqrt(exp)
    if x >= 0:
        assert r.lo ** 2 <= x <= r.hi ** 2


@given(interval_with_point(), st.integers(min_value=-40, max_value=-2))
def test_recip_containment(ax, exp):
    a, x = ax
    if a.lo <= 0 <= a.hi:
        with pytest.raises(DomainError):
            a.recip(exp)
        return
    r = a.recip(exp)
    assert r.contains(1 / x)


def test_recip_is_outward():
    r = Interval.point(3).recip(-8)
    assert r.lo <= Fraction(1, 3) <= r.hi
    assert r.width() <= Dyadic(1, -7)


def test_sqrt_two_digits():
    # sqrt(2) = 1.41421356237309504880...
    r = Interval.point(2).sqrt(-40)
    assert r.contains(Fraction("1.41421356237309504880"))
    assert r.width() <= Dyadic(1, -39)


def test_abs_straddling_zero():
    iv = Interval(Dyadic(-3), Dyadic(1))
    assert abs(iv).lo == 0 and abs(iv).hi == Dyadic(3)


def test_mixed_scalar_operands():
    iv = Interval(Dyadic(1), Dyadic(2))
    assert (iv + 1).lo == Dyadic(2)
    assert (3 - iv).hi == Dyadic(2)
    assert (iv * Dyadic(1, -1)).hi == Dyadic(1)

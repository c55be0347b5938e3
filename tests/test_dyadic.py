"""Exact dyadic scalars: Fractions on a 2**e grid, and directed rounding."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pathvar import Partition, polyline_length, sawtooth
from pathvar.core.certificates import Certificate, CertKind, Provenance
from pathvar.numerics.dyadic import (
    Dyadic,
    ceil_to,
    floor_to,
    sqrt_down,
    sqrt_up,
)

mantissas = st.integers(min_value=-(1 << 40), max_value=1 << 40)
exponents = st.integers(min_value=-60, max_value=40)
dyadics = st.builds(Dyadic, mantissas, exponents)


@given(mantissas, exponents)
def test_constructor_is_m_times_two_to_the_e(m, e):
    assert Dyadic(m, e) == Fraction(m) * Fraction(2) ** e


def test_zero_one_constants():
    # as_fraction() is the value itself: the bench reads endpoints through it
    assert Dyadic(0).as_fraction() == 0
    assert Dyadic(1).as_fraction() == 1


@given(dyadics, dyadics)
def test_add_sub_mul_match_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert Dyadic(a + b) == fa + fb
    assert Dyadic(a - b) == fa - fb
    assert Dyadic(a * b) == fa * fb


@given(dyadics, dyadics)
def test_comparisons_match_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert (a < b) == (fa < fb)
    assert (a == b) == (fa == fb)
    assert (a <= b) == (fa <= fb)


def test_hash_agrees_with_fraction_and_int():
    assert len({Dyadic(1, -1), Fraction(1, 2)}) == 1
    assert len({Dyadic(1), 1}) == 1


def test_compares_with_non_dyadic_fraction():
    assert Dyadic(1, -1) < Fraction(2, 3)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
)
def test_copy_and_pickle_keep_the_value(clone):
    # Fraction rebuilds a copy as cls(numerator, denominator); for Dyadic
    # that would read as numerator * 2**denominator
    for d in (Dyadic(3, -2), Dyadic(-5, -60), Dyadic(7)):
        c = clone(d)
        assert type(c) is Dyadic and c == d
    value = polyline_length(sawtooth(1), Partition.uniform(4))
    cert = Certificate(value, CertKind.TWO_SIDED_CONVERGED, value.width(), Provenance("chords", 5))
    c = clone(cert)
    assert (c.value.lo, c.value.hi) == (value.lo, value.hi)
    assert type(c.value.lo) is Dyadic and type(c.value.hi) is Dyadic


@given(dyadics)
def test_neg_abs_scale(a):
    assert Dyadic(-a) == -Fraction(a)
    assert Dyadic(abs(a)) == abs(Fraction(a))
    assert Dyadic(a * 32) == Fraction(a) * 32
    assert Dyadic(a / 2) * 2 == a


@given(dyadics)
def test_round_trip_fraction(a):
    assert Dyadic(Fraction(a)) == a


def test_from_fraction_rejects_non_dyadic():
    with pytest.raises(ValueError):
        Dyadic(Fraction(1, 3))
    with pytest.raises(ValueError):
        Dyadic(Fraction(5, 6))


@given(st.fractions(min_value=-100, max_value=100), st.integers(min_value=-40, max_value=-1))
def test_directed_rounding_brackets(q, exp):
    lo, hi = floor_to(q, exp), ceil_to(q, exp)
    assert isinstance(lo, Dyadic) and isinstance(hi, Dyadic)
    assert lo <= q <= hi
    grid = Fraction(1, 1 << -exp)
    assert hi - lo <= grid
    if q.denominator & (q.denominator - 1) == 0 and q.denominator <= (1 << -exp):
        assert lo == hi  # already on the grid


@given(st.fractions(min_value=0, max_value=1000), st.integers(min_value=-50, max_value=-4))
def test_sqrt_bounds(q, exp):
    lo, hi = sqrt_down(q, exp), sqrt_up(q, exp)
    assert lo ** 2 <= q <= hi ** 2
    assert hi - lo <= 2 * Fraction(1, 1 << -exp)


def test_sqrt_exact_squares():
    assert sqrt_down(Fraction(4), -20) == sqrt_up(Fraction(4), -20) == Dyadic(2)
    assert sqrt_down(Fraction(9, 4), -10) == Fraction(3, 2)

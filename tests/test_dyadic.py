"""Exact dyadic scalars: Fractions on a 2**e grid, and directed rounding."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from pathvar import Partition, polyline_length, sawtooth
from pathvar.core.certificates import Certificate, CertKind
from pathvar.numerics.dyadic import (
    Dyadic,
    ceil_to,
    grid_bounds,
    root_sums,
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
    cert = Certificate(value, CertKind.TWO_SIDED_CONVERGED, value.width(), "chords", 5)
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
    grid = Fraction(1, 1 << -exp)
    n_lo, n_hi = grid_bounds(q, exp)
    lo, hi = n_lo * grid, ceil_to(q, exp)
    assert isinstance(hi, Dyadic) and hi == n_hi * grid
    assert lo <= q <= hi
    assert hi - lo <= grid
    if q.denominator & (q.denominator - 1) == 0 and q.denominator <= (1 << -exp):
        assert lo == hi  # already on the grid


@given(st.fractions(min_value=0, max_value=1000), st.integers(min_value=-50, max_value=-4))
def test_sqrt_bounds(q, exp):
    lo, hi = sqrt_down(q, exp), sqrt_up(q, exp)
    assert lo ** 2 <= q <= hi ** 2
    assert hi - lo <= 2 * Fraction(1, 1 << -exp)


# perfect squares and zeros among the terms, so that some ceilings are floors
root_terms = st.lists(st.one_of(st.integers(0, 1 << 90), st.integers(0, 1 << 45).map(lambda r: r * r)), max_size=12)


@given(root_terms, st.integers(1, 10**6), st.integers(-40, 40))
@example([0, 1, 4, 49, 2, 3], 1, 0)
@example([0, 9, 10, 16 * 9], 3, -1)  # q**2 = 9 not a power of two, perfect squares over it
@example([25, 7], 32, 7)
@example([0, 36, 144, 145], 3, -2)
def test_root_kernel_meets_the_per_term_bounds(nums, q, shift):
    # sqrt(n) * 2**shift / q as the witness mesh takes it: the terms n *
    # 4**max(shift, 0) over den = (q << max(-shift, 0))**2.  Per term, the
    # floor f = isqrt(num * den) // den satisfies f**2 * den <= num < (f + 1)**2
    # * den, checked on integers by squaring; the ceiling is f unless f**2 *
    # den = num.  root_sums meets it term by term and summed, rooting the
    # terms itself or given their roots isqrt(num), and with the terms
    # counted 1, 2 and 3 times in turn, each count times its bounds
    nums = [n << 2 * max(shift, 0) for n in nums]
    den = (q << max(-shift, 0)) ** 2
    counts = tuple(i % 3 + 1 for i in range(len(nums)))
    lo = hi = clo = chi = 0
    for num, c in zip(nums, counts):
        f = math.isqrt(num * den) // den
        assert f * f * den <= num < (f + 1) * (f + 1) * den
        ends = (f, f + (f * f * den != num))
        assert root_sums([num], den) == root_sums([num], den, [math.isqrt(num)]) == ends
        assert root_sums([num], den, None, (c,)) == (c * ends[0], c * ends[1])
        lo, hi = lo + ends[0], hi + ends[1]
        clo, chi = clo + c * ends[0], chi + c * ends[1]
    assert root_sums(nums, den) == root_sums(iter(nums), den, list(map(math.isqrt, nums))) == (lo, hi)
    assert root_sums(iter(nums), den, None, counts) == (clo, chi)


def test_sqrt_exact_squares():
    assert sqrt_down(Fraction(4), -20) == sqrt_up(Fraction(4), -20) == Dyadic(2)
    assert sqrt_down(Fraction(9, 4), -10) == Fraction(3, 2)

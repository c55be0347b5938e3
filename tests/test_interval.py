"""Interval arithmetic soundness.

The load-bearing property is containment: whatever reals you pick inside the
operand intervals, the exact result of the operation lands inside the result
interval.  Hypothesis drives that directly with rational sample points.  The
integer core is checked against Fractions: exact operations give exactly the
Fraction ends, and rounded ones the Fraction floor and ceiling on their grid.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import contains, is_point

from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import Interval, norm_enclosure

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
    p = Interval(Fraction(3, 4), Fraction(3, 4))
    assert is_point(p) and p.lo == Dyadic(3, -2)
    third = Interval.enclose_pair(Fraction(1, 3), Fraction(1, 3), -10)
    assert contains(third, Fraction(1, 3))
    assert third.width() <= Dyadic(1, -10)
    with pytest.raises(ValueError):
        Interval(Fraction(1, 3), Fraction(1, 3))


@given(interval_with_point(), interval_with_point())
def test_arithmetic_containment(ax, by):
    a, x = ax
    b, y = by
    assert contains(a + b, x + y)
    assert contains(a - b, x - y)
    assert contains(a * b, x * y)
    assert contains(-a, -x)
    assert contains(abs(a), abs(x))


def test_abs_straddling_zero():
    iv = Interval(Dyadic(-3), Dyadic(1))
    assert abs(iv).lo == 0 and abs(iv).hi == Dyadic(3)


def test_mixed_scalar_operands():
    iv = Interval(Dyadic(1), Dyadic(2))
    assert (iv + 1).lo == Dyadic(2)
    assert (3 - iv).hi == Dyadic(2)
    assert (iv * Dyadic(1, -1)).hi == Dyadic(1)


def test_str_and_repr_spell_endpoints_past_the_digit_cap():
    # a certificate at 2**-200000 has endpoints of about 200,000 bits, past
    # Python's 4,300-digit int-string cap: str and repr spell their bit
    # lengths, and a short interval's repr still reads back as itself
    from pathvar import certified_length
    from pathvar.core.paths import SawtoothGraph

    value = certified_length(SawtoothGraph(2), Fraction(1, 2**200000)).value
    assert str(value).startswith("[") and "-bit/" in str(value)
    assert repr(value).startswith("Interval(Dyadic(Fraction(") and "-bit, " in repr(value)
    short = Interval(Fraction(-1, 2), 3)
    assert str(short) == "[-1/2, 3]"
    back = eval(repr(short), {"Interval": Interval, "Dyadic": Dyadic, "Fraction": Fraction})
    assert (back.lo, back.hi) == (short.lo, short.hi)


# -- the integer core against Fractions ------------------------------------------

# m * 2**e with e from positive down to far below the usual 2**-64 grids
grid_exps = st.integers(min_value=-300, max_value=40)
mixed_dyadics = st.builds(
    lambda m, e: Fraction(m) * Fraction(2) ** e, st.integers(-(1 << 90), 1 << 90), grid_exps
)
dyadic_pairs = st.tuples(mixed_dyadics, mixed_dyadics).map(sorted)


def _ends(iv):
    assert isinstance(iv.lo, Dyadic) and isinstance(iv.hi, Dyadic)
    return iv.lo.as_fraction(), iv.hi.as_fraction()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dyadic_pairs, dyadic_pairs, mixed_dyadics)
def test_exact_operations_give_the_fraction_ends(ab, cd, s):
    (a, b), (c, d) = ab, cd
    x, y = Interval(a, b), Interval(c, d)
    products = (a * c, a * d, b * c, b * d)
    assert _ends(x) == (a, b)
    assert _ends(x + y) == (a + c, b + d) and _ends(x + s) == _ends(s + x) == (a + s, b + s)
    assert _ends(x - y) == (a - d, b - c) and _ends(s - x) == (s - b, s - a)
    assert _ends(x * y) == (min(products), max(products))
    assert _ends(x * s) == _ends(s * x) == tuple(sorted((a * s, b * s)))
    assert _ends(-x) == (-b, -a)
    assert _ends(abs(x)) == ((a, b) if a >= 0 else (-b, -a) if b <= 0 else (0, max(-a, b)))
    assert x.width() == b - a and x.mid() == (a + b) / 2 and is_point(x) == (a == b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.tuples(st.fractions(), st.fractions()).map(sorted), grid_exps)
def test_enclose_pair_is_the_tightest_on_its_grid(pair, exp):
    lo, hi = pair
    step = Fraction(2) ** exp
    assert _ends(Interval.enclose_pair(lo, hi, exp)) == (math.floor(lo / step) * step, math.ceil(hi / step) * step)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.fractions(min_value=0, max_value=10**30).filter(bool), st.integers(min_value=-300, max_value=20))
def test_norm_enclosure_ends_are_the_root_floor_and_ceiling(n2, exp):
    iv = norm_enclosure(n2, exp)
    e = iv.e
    assert e <= exp
    # sqrt(n2) / 2**e = sqrt(n2 * 4**-e), whose floor is isqrt of that number's floor
    scaled = n2 / Fraction(4) ** e
    root = math.isqrt(math.floor(scaled))
    assert _ends(iv) == (root * Fraction(2) ** e, (root + (root * root < scaled)) * Fraction(2) ** e)
    assert iv.lo > 0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dyadic_pairs, st.fractions().filter(lambda q: q.denominator & (q.denominator - 1)))
def test_constructor_refuses_empty_and_non_dyadic_ends(ab, off_grid):
    a, b = ab
    if a < b:
        with pytest.raises(ValueError):
            Interval(b, a)
    for ends in ((off_grid, off_grid), sorted((a, off_grid))):
        with pytest.raises(ValueError):
            Interval(*ends)

"""Polynomial arithmetic and Sturm root isolation over [0, 1]."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import DomainError, Interval
from pathvar.numerics.ratpoly import (
    RationalPoly,
    refine_root,
    sturm_chain,
    sturm_isolate,
)

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=16)
polys = st.lists(small_fracs, min_size=1, max_size=6).map(RationalPoly)


def test_degree_and_zero():
    assert RationalPoly([1, 2, 3]).degree == 2
    assert RationalPoly([5, 0, 0]).degree == 0
    assert RationalPoly([]).is_zero()
    assert RationalPoly([0, 0]).is_zero()


@given(polys, polys, small_fracs)
def test_ring_ops_match_pointwise(p, q, t):
    assert (p + q)(t) == p(t) + q(t)
    assert (p - q)(t) == p(t) - q(t)
    assert (p * q)(t) == p(t) * q(t)
    assert p.derivative().degree <= max(p.degree - 1, -1)


@given(polys, small_fracs, small_fracs)
def test_eval_range_encloses_samples(p, a, b):
    if a > b:
        a, b = b, a
    lo, hi = p.eval_range(a, b)
    for t in (a, b, (a + b) / 2, a + (b - a) * Fraction(1, 3)):
        assert lo <= p(t) <= hi


@given(polys, polys)
def test_divmod_identity(p, q):
    if q.is_zero():
        return
    quot, rem = p.divmod(q)
    assert (quot * q + rem).coeffs == p.coeffs
    assert rem.degree < q.degree or rem.is_zero()


def test_quarters_quadratic():
    # t^2 - t + 3/16 = (t - 1/4)(t - 3/4); quadratic formula oracle:
    # roots (1 +- sqrt(1 - 3/4)) / 2 = (1 +- 1/2) / 2
    p = RationalPoly([Fraction(3, 16), -1, 1])
    isos = sturm_isolate(p)
    assert len(isos) == 2
    for iv, root in zip(isos, (Fraction(1, 4), Fraction(3, 4))):
        assert iv.contains(root)
        tight = refine_root(p, iv, Dyadic(1, -30))
        assert tight.contains(root)
        assert tight.width() <= Dyadic(1, -30)


def test_endpoint_roots_are_points():
    # t(t-1)(t-1/2): roots at both endpoints and the middle
    p = RationalPoly([0, Fraction(1, 2), Fraction(-3, 2), 1])
    isos = sturm_isolate(p)
    assert len(isos) == 3
    assert isos[0].is_point() and isos[0].lo == Dyadic(0)
    assert isos[-1].is_point() and isos[-1].lo == Dyadic(1)
    assert isos[1].contains(Fraction(1, 2))


def test_no_roots():
    assert sturm_isolate(RationalPoly([1, 0, 1])) == []  # t^2 + 1
    assert sturm_isolate(RationalPoly([Fraction(1, 100), 1])) == []  # root at -1/100


def test_repeated_roots_counted_once():
    # (t - 1/3)^2 (t - 2/3)
    p = RationalPoly([Fraction(-2, 27), Fraction(5, 9), Fraction(-4, 3), 1])
    p = p * p  # square everything: all roots now have even multiplicity
    isos = sturm_isolate(p)
    assert len(isos) == 2
    assert isos[0].contains(Fraction(1, 3))
    assert isos[1].contains(Fraction(2, 3))


@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_linear_factor_products_isolated_completely(roots):
    p = RationalPoly([1])
    for r in roots:
        p = p * RationalPoly([-r, 1])
    isos = sturm_isolate(p)
    assert len(isos) == len(roots)
    for iv, r in zip(isos, sorted(roots)):
        assert iv.contains(r)
    # disjointness
    for left, right in zip(isos, isos[1:]):
        assert left.hi <= right.lo


def test_sqrt_via_refine_root_matches_isqrt():
    # x^2 - 1/2 on [0,1]: root 1/sqrt(2); oracle via integer sqrt at 2^-40
    import math

    p = RationalPoly([Fraction(-1, 2), 0, 1])
    (iso,) = sturm_isolate(p)
    tight = refine_root(p, iso, Dyadic(1, -40))
    # 1/sqrt(2) = sqrt(2^79) / 2^40 up to one grid step
    lo_oracle = Fraction(math.isqrt(1 << 79), 1 << 40)
    assert abs(tight.lo - lo_oracle) <= Fraction(1, 1 << 39)


def test_square_free_strips_multiplicity():
    p = RationalPoly([-1, 1])  # t - 1
    q = p * p * p
    sf = q.square_free()
    assert sf.degree == 1
    assert sf(Fraction(1)) == 0


def test_sturm_chain_signs_count_roots():
    p = RationalPoly([Fraction(3, 16), -1, 1])
    chain = sturm_chain(p)
    from pathvar.numerics.ratpoly import _variations

    assert _variations(chain, Fraction(0)) - _variations(chain, Fraction(1)) == 2


def test_refine_root_rejects_non_bracketing():
    p = RationalPoly([1, 0, 1])
    with pytest.raises(DomainError):
        refine_root(p, Interval(Dyadic(0), Dyadic(1)), Dyadic(1, -10))


def test_isolate_rejects_zero_poly():
    with pytest.raises(DomainError):
        sturm_isolate(RationalPoly([]))

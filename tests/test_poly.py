"""Polynomial arithmetic and Sturm root isolation over [0, 1]."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import DomainError, Interval
from pathvar.numerics.ratpoly import (
    RationalPoly,
    refine_ints,
    refine_root,
    square_free_chain,
    sturm_chain,
    sturm_count,
    sturm_isolate,
)

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=16)
polys = st.lists(small_fracs, min_size=1, max_size=6).map(RationalPoly)


def holds(iso, r) -> bool:
    """Whether the isolating triple (nl, nh, q) holds the rational r."""
    nl, nh, q = iso
    return nl <= r * q <= nh


def refined(p, iso, eps):
    """refine_ints on an isolating triple, as a triple."""
    nl, nh, q = iso
    return iso if nl == nh else refine_ints(p, nl, nh, q, p.sign_at(nl, q), eps)


def test_degree_and_zero():
    assert RationalPoly([1, 2, 3]).degree == 2
    assert RationalPoly([5, 0, 0]).degree == 0
    assert RationalPoly([]).is_zero()
    assert RationalPoly([0, 0]).is_zero()


@given(polys, polys, small_fracs)
@example(RationalPoly([0]), RationalPoly([1, -2, 3]), Fraction(1, 3))  # a zero operand on either side
@example(RationalPoly([Fraction(5, 7)]), RationalPoly([]), Fraction(-2))
@example(RationalPoly([]), RationalPoly([0, 0]), Fraction(0))
def test_ring_ops_match_pointwise(p, q, t):
    assert (p + q)(t) == p(t) + q(t)
    assert (p - q)(t) == p(t) - q(t)
    assert (p * q)(t) == p(t) * q(t)
    assert (p * q == RationalPoly([])) == (p.is_zero() or q.is_zero())  # the one zero, over 1
    assert p.derivative().degree <= max(p.degree - 1, -1)
    # one canonical integer form: a round trip through the ring or through
    # the Fraction coefficients gives equal fields, so equal hashes
    back = (p + q) - q
    assert back == p and hash(back) == hash(p)
    assert RationalPoly(p.coeffs) == p and hash(RationalPoly(p.coeffs)) == hash(p)


@given(polys, small_fracs, small_fracs)
def test_range_ints_encloses_samples(p, a, b):
    if a > b:
        a, b = b, a
    q = a.denominator * b.denominator
    lo, hi, scale = p.range_ints(a.numerator * b.denominator, b.numerator * a.denominator, q)
    for t in (a, b, (a + b) / 2, a + (b - a) * Fraction(1, 3)):
        assert Fraction(lo, scale) <= p(t) <= Fraction(hi, scale)


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
    for iso, root in zip(isos, (Fraction(1, 4), Fraction(3, 4))):
        assert holds(iso, root)
        nl, nh, q = tight = refined(p, iso, Fraction(1, 1 << 30))
        assert holds(tight, root)
        assert (nh - nl) << 30 <= q


def test_endpoint_roots_are_points():
    # t(t-1)(t-1/2): roots at both endpoints and the middle
    p = RationalPoly([0, Fraction(1, 2), Fraction(-3, 2), 1])
    isos = sturm_isolate(p)
    assert len(isos) == 3
    assert isos[0] == (0, 0, 1) and isos[-1] == (1, 1, 1)
    assert holds(isos[1], Fraction(1, 2))


def test_no_roots():
    assert sturm_isolate(RationalPoly([1, 0, 1])) == []  # t^2 + 1
    assert sturm_isolate(RationalPoly([Fraction(1, 100), 1])) == []  # root at -1/100


def test_repeated_roots_counted_once():
    # (t - 1/3)^2 (t - 2/3)
    p = RationalPoly([Fraction(-2, 27), Fraction(5, 9), Fraction(-4, 3), 1])
    p = p * p  # square everything: all roots now have even multiplicity
    isos = sturm_isolate(p)
    assert len(isos) == 2
    assert holds(isos[0], Fraction(1, 3))
    assert holds(isos[1], Fraction(2, 3))


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
    for iso, r in zip(isos, sorted(roots)):
        assert holds(iso, r)
    # disjointness
    for (_, lh, lq), (rl, _, rq) in zip(isos, isos[1:]):
        assert lh * rq <= rl * lq


def test_sqrt_via_refine_root_matches_isqrt():
    # x^2 - 1/2 on [0,1]: root 1/sqrt(2); oracle via integer sqrt at 2^-40
    import math

    p = RationalPoly([Fraction(-1, 2), 0, 1])
    ((nl, nh, q),) = sturm_isolate(p)
    tight = refine_root(p, Interval(Fraction(nl, q), Fraction(nh, q)), Dyadic(1, -40))
    # 1/sqrt(2) = sqrt(2^79) / 2^40 up to one grid step
    lo_oracle = Fraction(math.isqrt(1 << 79), 1 << 40)
    assert abs(tight.lo - lo_oracle) <= Fraction(1, 1 << 39)


def test_square_free_strips_multiplicity():
    p = RationalPoly([-1, 1])  # t - 1
    q = p * p * p
    chain = square_free_chain(q)
    sf = chain[0]  # the chain is the square-free part's own
    assert chain == sturm_chain(sf)
    assert sf.degree == 1
    assert sf(Fraction(1)) == 0


def test_sturm_chain_signs_count_roots():
    p = RationalPoly([Fraction(3, 16), -1, 1])
    chain = sturm_chain(p)
    # roots 1/4 and 3/4 (quadratic formula): two in (0, 1], one in (0, 1/2]
    assert sturm_count(chain, 0, 1) == 2
    assert sturm_count(chain, 0, 1, 2) == 1
    assert sturm_count(chain, 1, 3, 4) == 1  # (1/4, 3/4] holds 3/4 only


def test_isolation_runs_one_remainder_sequence(monkeypatch):
    # a square-free cubic with no root at 0 or 1: the chain that isolates
    # its roots is the only remainder sequence, so the divisions are the
    # chain's remainders, p mod p' and p' mod that
    roots = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    p = RationalPoly([1])
    for r in roots:
        p = p * RationalPoly([-r, 1])
    remainders = len(sturm_chain(p)) - 2
    assert remainders == 2
    calls = []
    divmod_ = RationalPoly.divmod
    monkeypatch.setattr(RationalPoly, "divmod", lambda a, b: calls.append(b) or divmod_(a, b))
    isos = sturm_isolate(p)
    assert len(calls) == remainders
    assert len(isos) == 3 and all(holds(iso, r) for iso, r in zip(isos, roots))


def test_refine_root_rejects_non_bracketing():
    p = RationalPoly([1, 0, 1])
    with pytest.raises(DomainError):
        refine_root(p, Interval(Dyadic(0), Dyadic(1)), Dyadic(1, -10))


def _halving(r, nl, nh, q, eps):
    """What halving [nl / q, nh / q] around the exact root r gives, found by
    comparing each midpoint with r in Fractions: the first midpoint equal to
    r as a point, else the half holding r once the width is at most eps."""
    lo, hi = Fraction(nl, q), Fraction(nh, q)
    while hi - lo > eps:
        mid, q = (lo + hi) / 2, 2 * q
        if mid == r:
            return mid * q, mid * q, q
        lo, hi = (mid, hi) if mid < r else (lo, mid)
    return lo * q, hi * q, q


@given(
    st.one_of(
        st.fractions(min_value=-8, max_value=8, max_denominator=1 << 20),
        # dyadic roots, which the halving lands on
        st.tuples(st.integers(-(1 << 12), 1 << 12), st.integers(0, 16)).map(lambda m: Fraction(m[0], 1 << m[1])),
    ),
    st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
    st.integers(0, 12),
    st.integers(0, 40),
    st.integers(0, 40),
    st.fractions(min_value=Fraction(1, 10**12), max_value=4, max_denominator=10**12),
)
@example(Fraction(3, 8), Fraction(1), 0, 0, 0, Fraction(1, 1 << 10))  # met at the midpoint of depth 3
@example(Fraction(1), Fraction(-2), 0, 1, 0, Fraction(1, 1 << 10))  # the root ends the bracket
@settings(derandomize=True, max_examples=300, deadline=None)
def test_linear_refinement_lands_where_halving_does(r, slope, k, below, above, eps):
    # a linear p is refined in one step; the triple is the one the halving
    # walk reaches, found here from the exact root
    p, q = RationalPoly([-r * slope, slope]), 1 << k
    nl, nh = math.floor(r * q) - below, math.ceil(r * q) + above
    nl -= Fraction(nl, q) == r
    nh += nh == nl
    assert refine_ints(p, nl, nh, q, p.sign_at(nl, q), eps) == _halving(r, nl, nh, q, eps)


def test_isolate_rejects_zero_poly():
    with pytest.raises(DomainError):
        sturm_isolate(RationalPoly([]))


# -- isolation against chosen roots -------------------------------------------

_BIG = 1 << 200
chosen_roots = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    # dyadic roots, which bisection cuts land on
    st.integers(1, 63).map(lambda j: Fraction(j, 64)),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    # numerators and denominators of more than 200 bits
    st.integers(_BIG, 2 * _BIG).flatmap(
        lambda den: st.integers(0, den).map(lambda num: Fraction(num, den))
    ),
    # roots outside [0, 1], which isolation must not report
    st.fractions(min_value=-2, max_value=3, max_denominator=7),
)


@given(
    st.dictionaries(chosen_roots, st.integers(1, 3), min_size=1, max_size=4),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(-3, 7), Fraction(5, 2)]),
)
@settings(max_examples=80, deadline=None)
def test_isolation_finds_chosen_roots(multiplicities, lead):
    # the oracle is the chosen roots themselves: p = lead * prod (t - r)**m
    p = RationalPoly([lead])
    for r, m in multiplicities.items():
        for _ in range(m):
            p = p * RationalPoly([-r, 1])
    inside = sorted(r for r in multiplicities if 0 <= r <= 1)
    isos = sturm_isolate(p)
    assert len(isos) == len(inside)
    sf = square_free_chain(p)[0]
    for (nl, nh, q), r in zip(isos, inside):
        assert q & (q - 1) == 0  # a power of two
        assert nl <= r * q <= nh
        if nl == nh:
            assert sf.sign_at(nl, q) == 0  # a point is an exact root
        else:
            # the bracket refine_ints relies on: nonzero, opposite signs
            assert sf.sign_at(nl, q) * sf.sign_at(nh, q) == -1
    # the intervals rise strictly
    for (_, lh, lq), (rl, _, rq) in zip(isos, isos[1:]):
        assert lh * rq < rl * lq
    for iso, r in zip(isos, inside):
        nl, nh, q = tight = refined(sf, iso, Fraction(1, 1 << 60))
        assert holds(tight, r)
        assert (nh - nl) << 60 <= q

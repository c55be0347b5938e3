"""Exact rational polynomials, Sturm root isolation, sign-bisection refinement.

A polynomial is ints, integers lowest first with no trailing zero, over one
den > 0 sharing no factor with all of them, so equal polynomials have equal
fields.  Arithmetic and pseudo-division run on integers; one integer Horner,
den * q**d * p(m / q) = sum_i a_i m**i q**(d-i), gives values, signs and
chords, so p(m / q) has the sign of one integer, found with no gcd (Collins
and Akritas, 1976).  Isolation bisects the square-free part at dyadic points,
nudging a cut off a root, so isolating intervals have Dyadic endpoints.
refine_ints halves an interval held as integer ends over one power of two,
which range_ints also reads; refine_root is that bisection on Interval ends.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

from .dyadic import to_fraction
from .interval import DomainError, Interval


class RationalPoly:
    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable):
        cs = [to_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        p = _over([c.numerator * (den // c.denominator) for c in cs], den)
        self.ints, self.den = p.ints, p.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest first."""
        return tuple(Fraction(a, self.den) for a in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def linear_combination(self, a, other: "RationalPoly", b) -> "RationalPoly":
        """a * self + b * other for rationals a and b, on integers."""
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        den = math.lcm(da * self.den, db * other.den)
        sa, sb = na * (den // (da * self.den)), nb * (den // (db * other.den))
        return _over([sa * c + sb * e for c, e in zip_longest(self.ints, other.ints, fillvalue=0)], den)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        return self.linear_combination(1, other, 1)

    def __neg__(self) -> "RationalPoly":
        return _over([-c for c in self.ints], self.den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return _over([])
        out = [0] * (len(self.ints) + len(other.ints) - 1)
        for i, a in enumerate(self.ints):
            if a:
                for j, b in enumerate(other.ints):
                    out[i + j] += a * b
        return _over(out, self.den * other.den)

    def derivative(self) -> "RationalPoly":
        return _over([i * c for i, c in enumerate(self.ints)][1:], self.den)

    def horner(self, m: int, q: int = 1) -> int:
        """den * q**deg * p(m / q), an integer, for integers m and q > 0."""
        acc, qk = 0, 1
        for a in reversed(self.ints):
            acc = acc * m + a * qk
            qk *= q
        return acc

    def __call__(self, t) -> Fraction:
        m, q = Fraction(t).as_integer_ratio()
        return Fraction(self.horner(m, q), self.den * q ** max(self.degree, 0))

    def sign_at(self, m: int, q: int = 1) -> int:
        """The sign of p(m / q), for integers m and q > 0."""
        v = self.horner(m, q)
        return (v > 0) - (v < 0)

    def range_ints(self, ma: int, mb: int, q: int = 1) -> tuple[int, int, int]:
        """Interval-Horner range enclosure of p over [ma / q, mb / q] as integers
        (lo, hi, scale), the bounds being lo / scale and hi / scale: after j
        steps they are integers over den * q**j, and q > 0 keeps every min and
        max, so the bounds depend only on the ratios ma / q and mb / q."""
        if self.is_zero():
            return 0, 0, 1
        lo, hi, qk = self.ints[-1], self.ints[-1], 1
        for c in reversed(self.ints[:-1]):
            qk *= q
            ends = (lo * ma, lo * mb, hi * ma, hi * mb)
            lo, hi = min(ends) + c * qk, max(ends) + c * qk
        return lo, hi, self.den * qk

    def eval_range(self, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
        """range_ints as exact rationals."""
        q = math.lcm(a.denominator, b.denominator)
        lo, hi, scale = self.range_ints(a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q)
        return Fraction(lo, scale), Fraction(hi, scale)

    # -- exact division ------------------------------------------------------

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        """Integer pseudo-division, b**e * self.ints = Q * other.ints + R for b
        the leading integer of other and e the nonzero steps, reduced once."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, div = list(self.ints), other.ints
        dq, lead, scale = len(div) - 1, div[-1], 1
        quot = [0] * max(0, len(rem) - dq)
        for k in reversed(range(len(quot))):
            c = rem[k + dq]
            if not c:
                continue
            rem = [lead * r for r in rem[: k + dq]]
            quot = [lead * x for x in quot]
            quot[k] = c
            scale *= lead
            for i, d in enumerate(div[:-1]):
                rem[k + i] -= c * d
        den = scale * self.den
        return _over([x * other.den for x in quot], den), _over(rem, den)


def _over(ints: list[int], den: int = 1) -> RationalPoly:
    """ints / den for den != 0: no trailing zero, lowest terms, den > 0."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(den, *ints) * (1 if den > 0 else -1)
    p = RationalPoly.__new__(RationalPoly)
    p.ints, p.den = tuple(a // g for a in ints), den // g
    return p


# -- Sturm machinery ----------------------------------------------------------


def sturm_chain(p: RationalPoly) -> list[RationalPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _variations(chain: Sequence[RationalPoly], x: Fraction) -> int:
    signs = [s for s in (p.sign_at(*x.as_integer_ratio()) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_count(chain: Sequence[RationalPoly], a: Fraction, b: Fraction) -> int:
    """Number of distinct roots in (a, b] of the square-free chain head."""
    return _variations(chain, a) - _variations(chain, b)


def _bisect(p: RationalPoly, nl: int, nh: int, q: int, s_lo: int, done: Callable) -> tuple[int, int, int]:
    """Halve [nl / q, nh / q], where p has sign s_lo != 0 at the low end and
    changes sign, until done(nl, nh, q), the denominator doubling each step;
    a root met at a midpoint comes back as ends nl == nh."""
    while not done(nl, nh, q):
        mid, nl, nh, q = nl + nh, 2 * nl, 2 * nh, 2 * q
        s = p.sign_at(mid, q)
        if s == 0:
            return mid, mid, q
        if s == s_lo:
            nl = mid
        else:
            nh = mid
    return nl, nh, q


def ends_of(iv: Interval) -> tuple[int, int, int]:
    """An interval's ends as integers nl / q and nh / q over one denominator."""
    (nl, ql), (nh, qh) = iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()
    q = math.lcm(ql, qh)
    return nl * (q // ql), nh * (q // qh), q


def _clear_of(work: RationalPoly, chain, end: Fraction, step: Fraction) -> Fraction:
    """end + step / 2**j for the least j >= 0 at which that point is no root
    and no root lies between it and end."""
    while True:
        cand = end + step
        if work.sign_at(*cand.as_integer_ratio()) and sturm_count(chain, min(end, cand), max(end, cand)) == 0:
            return cand
        step /= 2


def square_free_chain(p: RationalPoly) -> list[RationalPoly]:
    """The Sturm chain of p / gcd(p, p'), which heads it and has each root of
    p once: p's chain ends in a constant times that gcd."""
    chain = sturm_chain(p)
    return chain if chain[-1].degree == 0 else sturm_chain(p.divmod(chain[-1])[0])


def sturm_isolate(p: RationalPoly, chain: Sequence[RationalPoly] = ()) -> list[Interval]:
    """Disjoint dyadic-endpoint intervals, each holding one distinct real root
    in [0, 1]; a root exactly at 0 or 1 comes back as a point interval.
    chain is square_free_chain(p), built here unless the caller passes it."""
    if p.is_zero():
        raise DomainError("cannot isolate roots of the zero polynomial")
    a, b = Fraction(0), Fraction(1)
    chain = chain or square_free_chain(p)
    work = chain[0]
    ends = [e for e in (a, b) if not work.sign_at(*e.as_integer_ratio())]
    points = [Interval(e, e) for e in ends]
    if ends:  # divide out the roots at the ends, which come back as points
        work = work.divmod(math.prod((RationalPoly([-e, 1]) for e in ends), start=RationalPoly([1])))[0]
        chain = sturm_chain(work)
    if work.degree <= 0:
        return points
    if sturm_count(chain, a, b) == 0:
        return points

    left, right = a, b
    if ends:
        # pull the search window off endpoint roots so intervals stay disjoint
        left = _clear_of(work, chain, a, (b - a) / 2)
        right = _clear_of(work, chain, b, (a - b) / 2)

    interior: list[Interval] = []
    stack = [(left, right, sturm_count(chain, left, right))]
    while stack:
        xl, xh, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            interior.append(Interval(xl, xh))
            continue
        # a bisection point that is not itself a root
        step = (xh - xl) / 2
        cut = xl + step
        while not work.sign_at(*cut.as_integer_ratio()):
            step /= 2
            cut = xl + step
        nl = sturm_count(chain, xl, cut)
        stack.append((xl, cut, nl))
        stack.append((cut, xh, n - nl))
    interior.sort(key=lambda iv: iv.lo)
    for i in range(1, len(interior)):
        iv = interior[i]
        if iv.lo == interior[i - 1].hi:  # pull it off the shared cut
            n0, q0 = iv.lo.as_integer_ratio()
            nl, nh, q = _bisect(work, *ends_of(iv), work.sign_at(n0, q0), lambda nl, nh, q: nl * q0 > n0 * q)
            interior[i] = Interval(Fraction(nl, q), Fraction(nh, q))
    return sorted(points + interior, key=lambda iv: iv.lo)


def refine_ints(p: RationalPoly, nl: int, nh: int, q: int, s_lo: int, eps: Fraction) -> tuple[int, int, int]:
    """Halve [nl / q, nh / q], around a simple root of p, where p has sign
    s_lo != 0 at nl / q, to width <= eps; see _bisect."""
    e_num, e_den = eps.as_integer_ratio()
    return _bisect(p, nl, nh, q, s_lo, lambda nl, nh, q: (nh - nl) * e_den <= e_num * q)


def refine_root(p: RationalPoly, iso: Interval, eps: Fraction) -> Interval:
    """Shrink an isolating interval around a simple root to width <= eps."""
    a, b = iso.lo, iso.hi
    sa, sb = p.sign_at(*a.as_integer_ratio()), p.sign_at(*b.as_integer_ratio())
    if sa == 0:
        return Interval(a, a)
    if sb == 0:
        return Interval(b, b)
    if sa == sb:
        raise DomainError("endpoints do not bracket a sign change")
    nl, nh, q = refine_ints(p, *ends_of(iso), sa, Fraction(eps))
    return Interval(Fraction(nl, q), Fraction(nh, q))

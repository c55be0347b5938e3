"""Exact rational polynomials, Sturm root isolation, sign-bisection refinement.

Coefficients are Fractions in ascending order.  Root isolation works on the
square-free part and bisects at dyadic points (nudging the cut when it
lands on a root), so its isolating intervals are Intervals whose Dyadic
endpoints can serve directly as partition parameters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .interval import DomainError, Interval


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


class RationalPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return RationalPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RationalPoly(out)

    def scale(self, q) -> "RationalPoly":
        q = Fraction(q)
        return RationalPoly([c * q for c in self.coeffs])

    def derivative(self) -> "RationalPoly":
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, t) -> Fraction:
        t = Fraction(t) if not isinstance(t, Fraction) else t
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_range(self, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
        """Interval-Horner range enclosure of p over [a, b], exact rationals."""
        if self.is_zero():
            return Fraction(0), Fraction(0)
        lo = hi = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            p1, p2, p3, p4 = lo * a, lo * b, hi * a, hi * b
            lo = min(p1, p2, p3, p4) + c
            hi = max(p1, p2, p3, p4) + c
        return lo, hi

    # -- exact division ------------------------------------------------------

    def divmod(self, other: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(0, len(rem) - dq)
        while len(rem) - 1 >= dq and rem:
            k = len(rem) - 1 - dq
            f = rem[-1] / lead
            quot[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return RationalPoly(quot), RationalPoly(rem)

    def divide_out_root(self, r: Fraction) -> "RationalPoly":
        q, rem = self.divmod(RationalPoly([-r, 1]))
        if not rem.is_zero():
            raise ValueError(f"{r} is not a root")
        return q

    def monic(self) -> "RationalPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def gcd(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def square_free(self) -> "RationalPoly":
        if self.degree <= 1:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.divmod(g)[0]


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
    signs = [s for s in (_sign(q(x)) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_half_open(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct roots in (a, b] for the square-free chain head."""
    return _variations(chain, a) - _variations(chain, b)


def _pull_off_cut(work: RationalPoly, iv: Interval, cut: Fraction) -> Interval:
    """Shrink [cut, hi] around its single simple root until lo > cut."""
    lo, hi = iv.lo, iv.hi
    slo = _sign(work(lo))
    while not lo > cut:
        mid = (lo + hi) / 2
        sm = _sign(work(mid))
        if sm == 0:
            return Interval(mid, mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def sturm_isolate(
    p: RationalPoly, domain: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1))
) -> list[Interval]:
    """Disjoint dyadic-endpoint intervals, each holding one distinct real root.

    Roots exactly at the domain endpoints come back as point intervals.
    """
    if p.is_zero():
        raise DomainError("cannot isolate roots of the zero polynomial")
    a, b = domain
    if a >= b:
        raise DomainError("empty isolation domain")
    work = p.square_free()
    out: list[Interval] = []
    if work(a) == 0:
        out.append(Interval(a, a))
        work = work.divide_out_root(a)
    if work.degree >= 1 and work(b) == 0:
        out.append(Interval(b, b))
        work = work.divide_out_root(b)
    if work.degree <= 0:
        return out
    chain = sturm_chain(work)
    if _count_half_open(chain, a, b) == 0:
        out.sort(key=lambda iv: iv.lo)
        return out

    left, right = a, b
    if out:
        # pull the search window off endpoint roots so intervals stay disjoint
        g = (b - a) / 2
        while True:
            cand = a + g
            if work(cand) != 0 and _count_half_open(chain, a, cand) == 0:
                left = cand
                break
            g /= 2
        g = (b - a) / 2
        while True:
            cand = b - g
            if work(cand) != 0 and _count_half_open(chain, cand, b) == 0:
                right = cand
                break
            g /= 2

    interior: list[Interval] = []
    stack = [(left, right, _count_half_open(chain, left, right))]
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
        while work(cut) == 0:
            step /= 2
            cut = xl + step
        nl = _count_half_open(chain, xl, cut)
        stack.append((xl, cut, nl))
        stack.append((cut, xh, n - nl))
    interior.sort(key=lambda iv: iv.lo)
    for i in range(1, len(interior)):
        if interior[i].lo == interior[i - 1].hi:
            interior[i] = _pull_off_cut(work, interior[i], interior[i].lo)
    out.extend(interior)
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_root(p: RationalPoly, iso: Interval, eps: Fraction) -> Interval:
    """Shrink an isolating interval around a simple root to width <= eps."""
    a, b = iso.lo, iso.hi
    pa = p(a)
    if pa == 0:
        return Interval(a, a)
    pb = p(b)
    if pb == 0:
        return Interval(b, b)
    if _sign(pa) == _sign(pb):
        raise DomainError("endpoints do not bracket a sign change")
    sa = _sign(pa)
    while (b - a) > eps:
        mid = (a + b) / 2
        pm = p(mid)
        if pm == 0:
            return Interval(mid, mid)
        if _sign(pm) == sa:
            a = mid
        else:
            b = mid
    return Interval(a, b)

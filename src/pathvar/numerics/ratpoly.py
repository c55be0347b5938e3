"""Exact rational polynomials, Sturm root isolation, sign-bisection refinement.

A polynomial is ints, integers lowest first with no trailing zero, over one
den > 0 sharing no factor with all of them, so equal polynomials have equal
fields.  Arithmetic and pseudo-division run on integers; one integer Horner,
den * q**d * p(m / q) = sum_i a_i m**i q**(d-i), gives values, signs and
chords, so p(m / q) has the sign of one integer, found with no gcd (Collins
and Akritas, 1976).  Isolation, run once per polynomial path on its turning
polynomial, bisects the square-free part on integer numerators over powers
of two, nudging a cut off a root, and returns each isolating interval as
such a triple (nl, nh, q); refine_ints halves one, and range_ints reads its
range.  refine_root is that bisection on Interval ends.
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


def _variations(chain: Sequence[RationalPoly], n: int, q: int) -> int:
    signs = [s for s in (p.sign_at(n, q) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_count(chain: Sequence[RationalPoly], nl: int, nh: int, q: int = 1) -> int:
    """Number of distinct roots in (nl / q, nh / q] of the square-free chain
    head, for integers nl <= nh and q > 0."""
    return _variations(chain, nl, q) - _variations(chain, nh, q)


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


def _clear_of(work: RationalPoly, chain, end: int, toward: int) -> tuple[int, int]:
    """(end * q + toward, q) for the least power of two q >= 2 at which that
    point is no root and no root lies between it and end, toward being 1
    or -1."""
    q = 2
    while True:
        n = end * q + toward
        if work.sign_at(n, q) and sturm_count(chain, min(end * q, n), max(end * q, n), q) == 0:
            return n, q
        q *= 2


def square_free_chain(p: RationalPoly) -> list[RationalPoly]:
    """The Sturm chain of p / gcd(p, p'), which heads it and has each root of
    p once: p's chain ends in a constant times that gcd."""
    chain = sturm_chain(p)
    return chain if chain[-1].degree == 0 else sturm_chain(p.divmod(chain[-1])[0])


def sturm_isolate(p: RationalPoly, chain: Sequence[RationalPoly] = ()) -> list[tuple[int, int, int]]:
    """Disjoint intervals [nl / q, nh / q], rising, as triples (nl, nh, q)
    with q a power of two, each holding one distinct real root in [0, 1]; a
    root exactly at 0 or 1 comes back as a point, nl == nh.  chain is
    square_free_chain(p), built here unless the caller passes it."""
    if p.is_zero():
        raise DomainError("cannot isolate roots of the zero polynomial")
    chain = chain or square_free_chain(p)
    work = chain[0]
    ends = [e for e in (0, 1) if not work.sign_at(e)]
    if ends:  # divide out the roots at the ends, which come back as points
        work = work.divmod(math.prod((_over([-e, 1]) for e in ends), start=_over([1])))[0]
        chain = sturm_chain(work)
    interior: list[tuple[int, int, int]] = []
    if work.degree > 0 and sturm_count(chain, 0, 1):
        left, right, q = 0, 1, 1
        if ends:
            # pull the search window off endpoint roots so intervals stay disjoint
            (left, ql), (right, qr) = _clear_of(work, chain, 0, 1), _clear_of(work, chain, 1, -1)
            q = max(ql, qr)
            left, right = left * (q // ql), right * (q // qr)
        # depth first, the left half popped first, so intervals come out rising
        stack = [(left, right, q, sturm_count(chain, left, right, q))]
        while stack:
            nl, nh, q, n = stack.pop()
            if n == 1:
                interior.append((nl, nh, q))
            elif n > 1:
                # the first nl + (nh - nl) / 2**j that is not itself a root
                w, scale = nh - nl, 2
                while not work.sign_at(nl * scale + w, q * scale):
                    scale *= 2
                nl, nh, cut, q = nl * scale, nh * scale, nl * scale + w, q * scale
                n_left = sturm_count(chain, nl, cut, q)
                stack += [(cut, nh, q, n - n_left), (nl, cut, q, n_left)]
    for i in range(1, len(interior)):
        (_, ph, pq), (nl, nh, q) = interior[i - 1], interior[i]
        if nl * pq == ph * q:  # pull it off the cut it shares with its neighbour
            interior[i] = _bisect(work, nl, nh, q, work.sign_at(nl, q), lambda m, _, r: m * q > nl * r)
    return [(0, 0, 1)] * (0 in ends) + interior + [(1, 1, 1)] * (1 in ends)


def refine_ints(p: RationalPoly, nl: int, nh: int, q: int, s_lo: int, eps: Fraction) -> tuple[int, int, int]:
    """Halve [nl / q, nh / q], around a simple root of p, where p has sign
    s_lo != 0 at nl / q, to width <= eps; see _bisect.  A linear p skips the
    walk: j halvings meet eps, and its root, x of the way up, lies in cell
    ceil(x * 2**j) - 1 unless x * 2**d is odd for a d <= j, a midpoint met."""
    e_num, e_den = eps.as_integer_ratio()
    if p.degree != 1 or not s_lo:
        return _bisect(p, nl, nh, q, s_lo, lambda nl, nh, q: (nh - nl) * e_den <= e_num * q)
    (c0, c1), w = p.ints, nh - nl
    num, den = -(c0 * q + c1 * nl) * c1, c1 * c1 * w  # x = num / den in (0, 1]
    j = ((w * e_den - 1) // (e_num * q)).bit_length()  # 2**j >= w / (eps * q)
    cell, rem = divmod(num << j, den)
    if rem or num == den:  # inside the cell, or at its top
        cell -= not rem
        return (nl << j) + cell * w, (nl << j) + (cell + 1) * w, q << j
    d = j + 1 - (cell & -cell).bit_length()
    m = (nl << d) + (cell >> (j - d)) * w
    return m, m, q << d


def widen_point(nl: int, nh: int, q: int) -> tuple[int, int, int]:
    """An isolating triple, or, where bisection met its root at nl / q, the one
    of width 1 / (2 q) centred there: the halved bracket reached 1 / q off it."""
    return (nl, nh, q) if nl != nh else (4 * nl - 1, 4 * nl + 1, 4 * q)


def refine_root(p: RationalPoly, iso: Interval, eps: Fraction) -> Interval:
    """Shrink an isolating interval around a simple root to width <= eps."""
    iso = iso.round_out(min(iso.e, 0))
    nl, nh, q = iso.n_lo, iso.n_hi, 1 << -iso.e
    sa, sb = p.sign_at(nl, q), p.sign_at(nh, q)
    if sa == 0 or sb == 0:
        n = nl if sa == 0 else nh
        return Interval.on_grid(n, n, iso.e)
    if sa == sb:
        raise DomainError("endpoints do not bracket a sign change")
    nl, nh, q = refine_ints(p, nl, nh, q, sa, Fraction(eps))
    return Interval.on_grid(nl, nh, 1 - q.bit_length())

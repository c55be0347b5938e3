"""Shared generators for randomized certification trials.

Random polylines place vertices on a dyadic coordinate grid and random
partitions pick dyadic parameters, so chords, variations, and lengths all
stay inside exact rational arithmetic and certified violations are real
violations, never rounding artifacts.  Direction pools are built once per
session: angle directions cache their trig enclosures per instance, so
reusing pool members keeps the big trial loops fast.

pair_min_oracle is the independent check on the closed-form two-direction
constant: a branch-and-bound search for min over theta of
|cos theta| + |cos(theta+gamma)| over rational lines, from one cosine and one
sine enclosure of gamma and interval arithmetic.
"""

import random
from fractions import Fraction

import pytest

from pathvar import Direction, Partition, Polyline
from pathvar.numerics.dyadic import Dyadic, floor_log2
from pathvar.numerics.interval import DomainError, Interval
from pathvar.numerics.trig import cos_enclosure, pi_enclosure, sin_enclosure


def dyadic_coord(rng: random.Random, level: int = 6, span: int = 2) -> Fraction:
    return Fraction(rng.randint(-(span << level), span << level), 1 << level)


def random_polyline(
    rng: random.Random, max_vertices: int = 8, level: int = 6, span: int = 2
) -> Polyline:
    m = rng.randint(2, max_vertices)
    return Polyline(
        tuple(
            (dyadic_coord(rng, level, span), dyadic_coord(rng, level, span))
            for _ in range(m)
        )
    )


def random_partition(rng: random.Random, max_interior: int = 6, level: int = 7) -> Partition:
    count = rng.randint(0, max_interior)
    interior = sorted({rng.randint(1, (1 << level) - 1) for _ in range(count)})
    params = [Dyadic(0)] + [Dyadic(j, -level) for j in interior] + [Dyadic(1)]
    return Partition(params)


def refine_partition(rng: random.Random, base: Partition, extra: int = 3, level: int = 9) -> Partition:
    new = set(base)
    params = list(base)
    for _ in range(extra):
        j = rng.randint(1, (1 << level) - 1)
        d = Dyadic(j, -level)
        if d not in new:
            new.add(d)
            params.append(d)
    return Partition(sorted(params))


def _build_angle_pool(size: int) -> list[Direction]:
    return [Direction.from_theta_pi(Fraction(j, size)) for j in range(size)]


_ANGLE_POOL = None
_RAY_POOL = None


def angle_pool() -> list[Direction]:
    global _ANGLE_POOL
    if _ANGLE_POOL is None:
        _ANGLE_POOL = _build_angle_pool(64)
    return _ANGLE_POOL


def ray_pool() -> list[Direction]:
    global _RAY_POOL
    if _RAY_POOL is None:
        _RAY_POOL = [
            Direction.from_vector(*v)
            for v in [(1, 0), (0, 1), (1, 1), (1, -1), (3, 4), (4, -3), (5, 12), (2, 1), (7, -24)]
        ]
    return _RAY_POOL


# -- branch-and-bound oracle for min |cos t| + |cos(t+gamma)| ---------------------


def _certified_min(f, cells: list, tol: Fraction) -> Interval:
    """Enclosure of the min of f over the union of (kind, interval) cells,
    for an inclusion-isotone interval extension f: bisect every cell whose
    lower bound can still win."""
    out_lo = out_hi = None
    for _ in range(200):
        evals = [(kind, c, f(kind, c)) for kind, c in cells]
        out_hi = min(fv.hi for _, _, fv in evals)
        out_lo = min(fv.lo for _, _, fv in evals)
        if out_hi - out_lo <= tol:
            break
        cells = []
        for kind, c, fv in evals:
            if fv.lo <= out_hi:
                m = c.mid()
                cells += [(kind, Interval(c.lo, m)), (kind, Interval(m, c.hi))]
    return Interval(out_lo, out_hi)


def _sign(iv: Interval) -> int:
    return 1 if iv.lo > 0 else (-1 if iv.hi < 0 else 0)


def _inv_norm(s: Interval, exp: int) -> Interval:
    """Enclosure of 1 / sqrt(1 + s**2)."""
    a = abs(s)
    return (1 + a * a).sqrt(exp).recip(exp)


def _line_sum_range(kind: int, cell: Interval, cg: Interval, sg: Interval, exp: int) -> Interval:
    """Range enclosure over s in the cell of (|a| + |a cg - b sg|) / |(a, b)|
    at (a, b) = (1, s) for kind 0 and (s, 1) for kind 1, which is
    |cos t| + |cos(t+gamma)| at the angle t of (a, b) when (cg, sg) encloses
    (cos gamma, sin gamma).  Where both terms keep their sign the numerator
    is linear, p + q*s, so f' = (q - p*s) / (1 + s**2)**1.5 and a mean-value
    form about the midpoint tightens quadratically; cells on a kink keep the
    direct interval image."""
    one = Interval.point(1)
    a, b = (one, cell) if kind == 0 else (cell, one)
    t2 = a * cg - b * sg
    inv = _inv_norm(cell, exp)
    direct = (abs(a) + abs(t2)) * inv
    s1, s2 = _sign(a), _sign(t2)
    if s1 == 0 or s2 == 0 or cell.is_point():
        return direct
    p, q = s1 + s2 * cg, -s2 * sg
    if kind == 1:
        p, q = q, p
    m = Interval.point(cell.mid())
    at_mid = (p + q * m) * _inv_norm(m, exp)
    slope = (q - p * cell) * inv * inv * inv
    rad = cell.width() / 2
    mv = at_mid + slope * Interval(-rad, rad)
    lo = max(direct.lo, mv.lo)
    hi = min(direct.hi, mv.hi)
    return Interval(lo, hi) if lo <= hi else direct


def pair_min_oracle(gamma: Interval, tol: Fraction = Fraction(1, 1 << 16)) -> Interval:
    """Certified enclosure of min over theta of |cos theta| + |cos(theta+gamma)|
    for gamma strictly inside (0, pi), by branch and bound over the lines
    (1, s) and (s, 1), s in [-1, 1], which between them meet every angle
    mod pi.  One cosine and one sine of gamma are the only trig."""
    pi = pi_enclosure(-64)
    if not (gamma.lo > 0 and gamma.hi < pi.lo):
        raise DomainError("separation angle must lie strictly inside (0, pi)")
    exp = min(-48, floor_log2(tol) - 8)
    cg, sg = cos_enclosure(gamma, exp), sin_enclosure(gamma, exp)
    span = Interval(Dyadic(-1), Dyadic(1))
    work_tol = tol
    for _ in range(8):
        c = _certified_min(
            lambda kind, cell: _line_sum_range(kind, cell, cg, sg, exp),
            [(0, span), (1, span)],
            work_tol,
        )
        if c.lo > 0:
            return c
        work_tol /= 16
    raise DomainError("could not certify a positive two-direction minimum")


@pytest.fixture
def rng():
    return random.Random(0x5EED)

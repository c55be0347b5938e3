"""Directions and certified directional variation.

A Direction is a line through the origin, kept exact as a rational ray
(wx, wy), whose scale exact norm division handles, or an angle
(x, times_pi), a rational multiple of pi or rational radians, so enclosures
can be recomputed at any precision.  Every direction the library makes
itself (net nodes, the axes) is an exact rational ray; trig runs only for a
direction a caller gives as an angle, in Direction.components, through one
functools memo that equal directions share.

The variation of a path along direction w over a partition P is
v_{w,P} = sum_i |<w_unit, delta_i>| over its exact chords delta_i, runs of
integer pairs over a common denominator (see pathvar.core.chords), computed
by one kernel, chord_variation, on one unit grid as chord_length.  The sum
is the support function of the zonotope sum_i [-delta_i, delta_i], so from
the second read of a chord set on, a run whose den is a power of two, every
term then on the grid, is answered from its sector view (chords sorted by
direction, prefix sums) in one binary search; a run off the grid rounds each
term, which one rounded sum would not repeat.  An angle without an exact ray
snaps to an integer ray within a certified gap (the kernel takes any
rational ray within it), and a sampled graph, known only at its samples,
rejects partition points between them.  The |cos(theta - theta_i)| * l_i
form over chord angles is kept as a cross-check in the test suite.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate, chain, compress, pairwise, repeat
from operator import itemgetter
from typing import Optional

from .core.chords import chord_deltas_exact
from .core.partitions import Partition
from .core.paths import Chords, PathSpec, Run, numerators_over
from .numerics.dyadic import floor_log2, grid_sums, spell, to_fraction
from .numerics.interval import DomainError, Interval, norm_enclosure
from .numerics.trig import cos_enclosure, pi_enclosure, sin_enclosure


def scale_interval(iv: Interval, q: Fraction, exp: int) -> Interval:
    """Outward enclosure of q * iv for an exact rational q."""
    return Interval.enclose_pair(*sorted((iv.lo * q, iv.hi * q)), exp)


class Direction:
    """A line through the origin: an exact rational ray, q * pi, or x
    radians, read by the constructor (a ray's ints kept, any other number by
    to_fraction).  Only the two angle kinds take a sine or cosine, in
    components, and rational_approx snaps them to exact rays."""

    __slots__ = ("_ray", "_angle")

    def __init__(self, ray=None, angle=None):
        if (ray is None) == (angle is None):
            raise TypeError("a Direction needs a ray or an angle, and not both")
        match ray if angle is None else angle:
            case (wx, wy) if angle is None:  # ints kept as they are, as in a net node's ray
                wx = wx if type(wx) is int else to_fraction(wx)
                wy = wy if type(wy) is int else to_fraction(wy)
                if wx == wy == 0:
                    raise DomainError("zero vector has no direction")
                ray = (wx, wy)
            case (x, times_pi):
                if type(times_pi) is not bool:
                    raise TypeError("an angle's times_pi must be a bool")
                angle = (to_fraction(x), times_pi)
            case _:
                raise ValueError("a Direction's ray or angle must be a pair")
        self._ray = ray  # (wx, wy)
        self._angle = angle  # (x, times_pi): x * pi when times_pi, else x radians

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vector(cls, wx, wy) -> "Direction":
        """Direction of an exact rational vector; the vector's scale is
        divided out exactly, so any nonzero rational vector is admissible."""
        return cls(ray=(wx, wy))

    @classmethod
    def from_theta_pi(cls, q) -> "Direction":
        """Direction at angle q * pi."""
        q = to_fraction(q) % 1
        if q == 0:
            return cls.from_vector(1, 0)
        if q == Fraction(1, 2):
            return cls.from_vector(0, 1)
        return cls(angle=(q, True))

    @classmethod
    def from_radians(cls, x) -> "Direction":
        x = to_fraction(x)
        if x == 0:
            return cls.from_vector(1, 0)
        return cls(angle=(x, False))

    # -- exact views -------------------------------------------------------

    def exact_ray(self) -> Optional[tuple[Fraction, Fraction]]:
        """(wx, wy) when the direction is an exact rational ray."""
        return self._ray

    def components(self, exp: int = -64) -> tuple[Interval, Interval]:
        """Enclosures of a unit vector (cos theta, sin theta) of the line.

        Either of the line's two unit vectors may come back (a radian angle
        is not reduced mod pi): chord_variation, the critical points of a
        polynomial oracle and sampled_bracket take absolute values or need
        only the line."""
        return _components(self._ray, self._angle, exp)

    def rational_approx(self, max_gap: Fraction) -> tuple[int | Fraction, int | Fraction, Fraction]:
        """Exact rational ray within angle max_gap of this direction.

        Returns (wx, wy, certified angle gap bound); an exact ray comes back
        as it is.  An angle snaps to the integer ray through its components'
        midpoints, n_lo + n_hi of each less their common power of two, with
        gap four times the wider width; chord_variation takes any rational
        ray within the gap.  The grids run -56, -88, -120, ...; every angle
        enclosure is at least one grid step wide (the value is irrational or
        the argument is padded), so the gap passes only on a grid at most
        floor_log2(max_gap) - 2, and the walk starts at the first of those."""
        ray = self.exact_ray()
        if ray is not None:
            return (*ray, Fraction(0))
        num, den = max_gap.as_integer_ratio()
        exp = -56 + 32 * min(0, (floor_log2(max_gap) + 54) // 32)
        while True:
            cx, cy = self.components(exp)
            w = max(cx.n_hi - cx.n_lo, cy.n_hi - cy.n_lo)
            if (w * den) << 2 <= num << -exp:  # 4 * w * 2**exp <= max_gap
                a, b = cx.n_lo + cx.n_hi, cy.n_lo + cy.n_hi
                k = ((a | b) & -(a | b)).bit_length() - 1
                return a >> k, b >> k, Fraction(w, 1 << (-2 - exp))
            exp -= 32

    def describe(self) -> str:
        if self._ray is not None:
            wx, wy = self._ray
            return f"vector({spell(wx)},{spell(wy)})"
        x, times_pi = self._angle
        return f"{spell(x)}*pi" if times_pi else f"radians({spell(x)})"


@functools.lru_cache(maxsize=8192)
def _components(ray, angle, exp: int) -> tuple[Interval, Interval]:
    """Direction.components, shared by equal directions."""
    if ray is not None:
        wx, wy = ray
        n = norm_enclosure(wx * wx + wy * wy, exp - 8)
        return tuple(Interval.enclose_pair(*sorted((w / n.lo, w / n.hi)), exp) for w in (wx, wy))
    x, times_pi = angle
    th = scale_interval(pi_enclosure(exp - 8), x, exp - 4) if times_pi else x
    return (cos_enclosure(th, exp), sin_enclosure(th, exp))


# -- variation over a partition --------------------------------------------------


def _sector_view(run: Run) -> tuple[list[int], list[int], int]:
    """The prefix sums (px, py) of the generators of a run's period, its
    chords turned into the upper half-plane, sorted by direction and summed
    where parallel, and the period's mass sum_i |dx_i| + |dy_i|.  The float
    key -x / (|x| + y), in [-1, 1] at any size and rounded monotonely, sorts
    first; exact cross products check it, and sort again if it erred."""
    gens = [(x, y) if (y or x) > 0 else (-x, -y) for x, y in zip(run.dx, run.dy) if x or y]
    for key in (lambda g: -g[0] / (abs(g[0]) + g[1]), functools.cmp_to_key(lambda g, h: g[1] * h[0] - g[0] * h[1])):
        gens.sort(key=key)
        turns = [x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in pairwise(gens)]  # 0 between parallel chords
        if min(turns, default=0) >= 0:
            break
    px, py = (list(compress(accumulate(map(itemgetter(i), gens), initial=0), chain((1,), turns, (1,)))) for i in (0, 1))
    return px, py, sum(map(abs, run.dx)) + sum(map(abs, run.dy))


def _sector_sum(view, a: int, b: int) -> int:
    """sum_i |a dx_i + b dy_i| over a run's period, from its view: the k
    generators that turn before n, the normal of (a, b) in the upper
    half-plane, give a gx + b gy one sign and the rest the other or 0, so the
    sum is |<(a, b), 2 P_k - T>|, P_k the k-th prefix sum and T the last."""
    px, py, _ = view
    nx, ny = (-b, a) if (a or -b) > 0 else (b, -a)
    lo, hi = 0, len(px) - 1
    while lo < hi:
        mid = (lo + hi) >> 1
        if (px[mid + 1] - px[mid]) * ny > (py[mid + 1] - py[mid]) * nx:  # generator mid turns before n
            lo = mid + 1
        else:
            hi = mid
    return abs(a * (2 * px[lo] - px[-1]) + b * (2 * py[lo] - py[-1]))


def chord_variation(chords: Chords, d: Direction, precision: int = -60) -> Interval:
    """Certified enclosure of sum_i |<u, delta_i>| for the unit vector u of d
    and exact chords delta_i.

    The ray (wx, wy) is scaled to integers (a, b) = L * (wx, wy), each
    |a dx_i + b dy_i| / den is rounded down and up onto one unit grid 2**-s,
    s = 3 - precision plus the bits of the chord count, so the two integer
    sums are under 2**(precision-3) apart whatever the runs, and they are
    divided by the root of the integer a**2 + b**2 >= 1.
    Along an exact ray the enclosure is at most 2**precision wide: the two
    bounds of that quotient are rounded out to the 2**(precision-1) grid
    and straddle at most one of its points.  An angle without an exact ray
    is snapped to a rational ray within gap g <= 2**(precision-4) / max(1,
    mass), mass the upper grid sum of every |dx_i| and |dy_i|, and the
    snapped sum is widened by g * mass on each side; rounding on the
    2**(precision-3) grid keeps that enclosure at most 2**precision wide.
    A first read marks the chords; a later one builds and then reads a view
    of each run whose den is a power of two, which gives the exact sums, and
    so the same integers, where den divides 2**s (grid_sums' exact case).
    """
    s = max(0, max(1, len(chords)).bit_length() + 3 - precision)
    views = chords.sectors
    if views is False:  # the second read builds a view of each run whose den is a power of two
        views = chords.sectors = tuple(_sector_view(r) if not r.den & (r.den - 1) else None for r in chords.runs)
    chords.sectors = views or False  # the first read only marks the chords as read

    def total(values, lookup) -> tuple[int, int]:  # a view answers a run whose den divides 2**s
        return chords.total(((lookup(v) << s) // r.den,) * 2 if v and r.den.bit_length() <= s + 1
                            else grid_sums(values(r), r.den, s) for r, v in zip(chords.runs, views or repeat(None)))

    if (ray := d.exact_ray()) is not None:
        wx, wy = ray
        (sn, sd), grid = (0, 1), precision - 1
    else:
        _, mass = total(lambda r: map(abs, r.dx + r.dy), itemgetter(2))
        # mass counts steps of 2**-s, and s >= 4 - precision keeps both shifts nonnegative
        wx, wy, gap = d.rational_approx(Fraction(1 << (s + precision - 4), max(mass, 1 << s)))
        (sn, sd), grid = (gap.numerator * mass, gap.denominator << (s + precision - 3)), precision - 3
    a, b = numerators_over((wx, wy), math.lcm(wx.denominator, wy.denominator))
    lo, hi = total(lambda r: (abs(a * x + b * y) for x, y in zip(r.dx, r.dy)), lambda v: _sector_sum(v, a, b))
    # hi / 2**s < 2**(bits+1), bits = hi.bit_length() - s - 1, so a root enclosure
    # e wide moves the quotient by at most e * 2**(bits+1), as root >= 1
    n = norm_enclosure(a * a + b * b, grid - max(4, hi.bit_length() - s + 3))
    # in grid steps lo / 2**s / n.hi is (lo << v) / d_lo, hi's likewise; sn / sd widens both
    t = s + n.e + grid
    u, v = max(t, 0), max(-t, 0)
    d_lo, d_hi = n.n_hi << u, n.n_lo << u
    n_lo = max(0, ((lo << v) * sd - sn * d_lo) // (d_lo * sd))
    n_hi = -((-(hi << v) * sd - sn * d_hi) // (d_hi * sd))
    return Interval.on_grid(n_lo, n_hi, grid)


def directional_variation_on_partition(
    path: PathSpec,
    partition: Partition,
    d: Direction,
    precision: int = -60,
) -> Interval:
    """Certified enclosure of v_{d,P}; DomainError where the path is not
    exactly known at a partition point."""
    return chord_variation(chord_deltas_exact(path, partition), d, precision)


# -- two-direction length bound ---------------------------------------------------


def two_direction_length_bound(gamma: Interval, tol: Fraction = Fraction(1, 1 << 16)) -> Interval:
    """Enclosure of r(gamma) = 1 / sin(gamma); tol sets the working precision.

    l_P <= r(gamma) * (v_{theta,P} + v_{theta+gamma,P}) holds for every theta
    and partition, because min over theta of |cos theta| + |cos(theta+gamma)|
    is sin(gamma).  Proof: between consecutive kinks (zeros of either cosine)
    each term is concave in theta, so the sum is too and its minimum sits at
    a kink, theta = pi/2 or theta + gamma = pi/2 (mod pi).  The value at the
    first is |cos(pi/2 + gamma)| = sin(gamma), at the second
    |cos(pi/2 - gamma)| = sin(gamma).  gamma must lie strictly inside (0, pi).
    """
    pi = pi_enclosure(-64)
    if not (gamma.lo > 0 and gamma.hi < pi.lo):
        raise DomainError("separation angle must lie strictly inside (0, pi)")
    exp = min(-48, floor_log2(tol) - 8)
    s = sin_enclosure(gamma, exp)
    if s.n_lo <= 0:
        raise DomainError(f"sine enclosure {s} of the separation angle reaches 0")
    return Interval.enclose_pair(1 / s.hi, 1 / s.lo, exp)


def length_upper_bound(path: PathSpec, oracle) -> Interval:
    """Interval containing v_0 + v_{pi/2} plus the oracles' slack (1/256 a
    call); its hi certifiably dominates every inscribed length of the path.
    This is the two-direction bound at gamma = pi/2, where r(pi/2) = 1."""
    eps_call = Fraction(1, 256)
    _, v0 = oracle.achieve_variation(Direction.from_vector(1, 0), eps_call)
    _, v1 = oracle.achieve_variation(Direction.from_vector(0, 1), eps_call)
    return v0 + v1 + Interval(0, 2 * eps_call)

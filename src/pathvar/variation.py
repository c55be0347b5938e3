"""Directions and certified directional variation.

A Direction is a line through the origin.  Three descriptions are kept exact
so enclosures can be recomputed at any precision: an exact rational ray
(scale handled by exact norm division), a rational multiple of pi, or a
rational radian value.  Every direction the library makes itself (net
nodes, the axes) is an exact rational ray; trig runs only for a direction
a caller gives as an angle, once, in Direction.components.

The variation of a path along direction w over a partition P is
v_{w,P} = sum_i |<w_unit, delta_i>| over its exact rational chords delta_i,
computed by one kernel, chord_variation.  An angle without an exact ray
becomes a snapped rational ray with a certified gap, and a sampled graph,
known only at its samples, rejects partition points between them.  The
|cos(theta - theta_i)| * l_i form over chord angles is kept as a
cross-check in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core.chords import chord_deltas_exact
from .core.partitions import Partition
from .core.paths import PathSpec
from .numerics.dyadic import ceil_to, floor_log2, floor_to
from .numerics.interval import DomainError, Interval, norm_enclosure
from .numerics.trig import cos_enclosure, pi_enclosure, sin_enclosure


def scale_interval(iv: Interval, q: Fraction, exp: int) -> Interval:
    """Outward enclosure of q * iv for an exact rational q."""
    a = iv.lo * q
    b = iv.hi * q
    if b < a:
        a, b = b, a
    return Interval(floor_to(a, exp), ceil_to(b, exp))


class Direction:
    """A line through the origin: an exact rational ray, q * pi, or x
    radians.  Only the two angle kinds take a sine or cosine, in
    components, and rational_approx snaps them to exact rays."""

    __slots__ = ("_kind", "_ray", "_pi_frac", "_radians", "_cache")

    def __init__(self, kind, ray=None, pi_frac=None, radians=None):
        self._kind = kind
        self._ray = ray
        self._pi_frac = pi_frac
        self._radians = radians
        self._cache: dict = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vector(cls, wx, wy) -> "Direction":
        """Direction of an exact rational vector; the vector's scale is
        divided out exactly, so any nonzero rational vector is admissible."""
        wx, wy = Fraction(wx), Fraction(wy)
        n2 = wx * wx + wy * wy
        if n2 == 0:
            raise DomainError("zero vector has no direction")
        return cls("ray", ray=(wx, wy, n2))

    @classmethod
    def from_theta_pi(cls, q) -> "Direction":
        """Direction at angle q * pi."""
        q = Fraction(q) % 1
        if q == 0:
            return cls.from_vector(1, 0)
        if q == Fraction(1, 2):
            return cls.from_vector(0, 1)
        return cls("pi_frac", pi_frac=q)

    @classmethod
    def from_radians(cls, x) -> "Direction":
        x = Fraction(x)
        if x == 0:
            return cls.from_vector(1, 0)
        return cls("radians", radians=x)

    # -- exact views -------------------------------------------------------

    def exact_ray(self) -> Optional[tuple[Fraction, Fraction, Fraction]]:
        """(wx, wy, |w|^2) when the direction is an exact rational ray."""
        return self._ray if self._kind == "ray" else None

    def components(self, exp: int = -64) -> tuple[Interval, Interval]:
        """Enclosures of a unit vector (cos theta, sin theta) of the line.

        Either of the line's two unit vectors may come back (a radian angle
        is not reduced mod pi): chord_variation, the critical points of a
        polynomial oracle and sampled_bracket take absolute values or need
        only the line."""
        key = ("comp", exp)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self._kind == "ray":
            wx, wy, n2 = self._ray
            n = norm_enclosure(n2, exp - 8)
            cx = (min(wx / n.lo, wx / n.hi), max(wx / n.lo, wx / n.hi))
            cy = (min(wy / n.lo, wy / n.hi), max(wy / n.lo, wy / n.hi))
            out = (
                Interval(floor_to(cx[0], exp), ceil_to(cx[1], exp)),
                Interval(floor_to(cy[0], exp), ceil_to(cy[1], exp)),
            )
        else:
            th = self._radians
            if self._kind == "pi_frac":
                th = scale_interval(pi_enclosure(exp - 8), self._pi_frac, exp - 4)
            out = (cos_enclosure(th, exp), sin_enclosure(th, exp))
        self._cache[key] = out
        return out

    def rational_approx(self, max_gap: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        """Exact rational ray within angle max_gap of this direction.

        Returns (wx, wy, certified angle gap bound)."""
        ray = self.exact_ray()
        if ray is not None:
            return ray[0], ray[1], Fraction(0)
        exp = -56
        while True:
            cx, cy = self.components(exp)
            gap = 4 * max(cx.width(), cy.width())
            if gap <= max_gap:
                return cx.mid(), cy.mid(), gap
            exp -= 32

    def describe(self) -> str:
        if self._kind == "ray":
            wx, wy, _ = self._ray
            return f"vector({wx},{wy})"
        if self._kind == "pi_frac":
            return f"{self._pi_frac}*pi"
        return f"radians({self._radians})"


# -- variation over a partition --------------------------------------------------


def chord_variation(
    chords: list[tuple[Fraction, Fraction]], d: Direction, precision: int = -60
) -> Interval:
    """Certified enclosure of sum_i |<u, delta_i>| for the unit vector u of d
    and exact chords delta_i.

    An angle without an exact ray is snapped to a rational ray within gap
    g <= 2**(precision-4) / max(1, mass), mass = sum_i (|dx_i| + |dy_i|), and
    the snapped sum is widened by g * mass on each side; rounding on the
    2**(precision-3) grid keeps that enclosure at most 2**precision wide.
    """
    ray = d.exact_ray()
    if ray is not None:
        wx, wy, n2 = ray
        slack, grid = Fraction(0), precision
    else:
        mass = sum(abs(dx) + abs(dy) for dx, dy in chords)
        wx, wy, gap = d.rational_approx(Fraction(2) ** (precision - 4) / max(1, mass))
        n2 = wx * wx + wy * wy
        slack, grid = gap * mass, precision - 3
    s = sum(abs(wx * dx + wy * dy) for dx, dy in chords)
    if n2 == 1:
        lo = hi = s
    else:
        # an error e in the root moves s / root by about e * s / |w|**2, so a
        # ray shorter than 1 needs -floor_log2(|w|**2) more bits
        bits = s.numerator.bit_length() - s.denominator.bit_length()
        root_exp = grid - max(4, bits + 4 - min(0, floor_log2(n2)))
        n = norm_enclosure(n2, root_exp)
        lo, hi = s / n.hi, s / n.lo
    return Interval.enclose_pair(max(0, lo - slack), hi + slack, grid)


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
    return sin_enclosure(gamma, exp).recip(exp)


def length_upper_bound(path: PathSpec, oracle, eps_call: Fraction = Fraction(1, 256)) -> Interval:
    """Interval containing v_0 + v_{pi/2} plus the oracles' slack; its hi
    certifiably dominates every inscribed length of the path.  This is the
    two-direction bound at gamma = pi/2, where r(pi/2) = 1 exactly."""
    _, v0 = oracle.achieve_variation(Direction.from_vector(1, 0), eps_call)
    _, v1 = oracle.achieve_variation(Direction.from_vector(0, 1), eps_call)
    return v0 + v1 + Interval(0, 2 * eps_call)

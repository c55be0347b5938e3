"""Oracles that achieve variation and length tolerances with explicit
partitions.  An oracle is any object with the methods of its role, and
this docstring is the one statement of each role:

- A variation oracle has path, method (the route it names, which
  certified_variation reports), variation_partition(d, eps) -> P with
  v_d(path) <= v_{d,P} + eps, and achieve_variation(d, eps) -> (P, an
  Interval enclosing v_{d,P}), the one achieve_variation function below,
  bound in every class.  Direction-net averaging needs only the partitions.
- A path oracle, the variation oracle of an exact path (PolylineOracle and
  PolynomialVariationOracle, from variation_oracle_for), adds
  uniform_witness(eps) -> (P, defect), a Fraction at most eps bounding
  l(path) - l_P (0 on a vertex partition, a sum of per-cell Wirtinger
  bounds on a polynomial's mesh), and witness_length(eps, precision) ->
  (P, defect, an Interval enclosing l_P at the precision), which
  certified_length reads in place of a net walk.
- A length oracle (pathvar.rectify's CroftonLengthOracle, or a caller's)
  has path, the path it answers for, uniform_witness(eps) as above and
  achieve_length(eps) -> (P, an Interval enclosing l_P).

pathvar.rectify's RefinementGainOracle is a variation oracle with no
witness: it rides on a length oracle and takes its partitions from that
oracle's uniform_witness.

PolynomialVariationOracle works on integers from the ray to the partition
and builds no Sturm chain per direction w: the path's turning cells split
[0, 1] into pieces that hold one root of r' = <w, alpha'> at most, found by
r''s signs at their ends, and those pieces, with the cells where r' may
vanish, are halved until 2 and 4 times the ranges of r = <w, alpha> over
them sum to at most eps |w|.

Enclosures come from the exact chord kernels chord_length and
chord_variation, over chords that pathvar.core.chords builds as runs of
integer pairs over a common denominator; chord_variation snaps an angle to a
rational ray with a certified gap.  Sampled graphs are known only at their
samples and admit no convergent oracle (features can hide between samples
at any resolution); they get honest non-shrinking brackets instead, whose
lower ends are the kernels applied to the sample chords.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, lshift, mul, rshift
from typing import Optional

from .core.certificates import Certificate, CertKind
from .core.chords import chord_deltas_exact, chord_length, chords_through, length_exp, polyline_length
from .core.partitions import Partition
from .core.paths import (
    SAWTOOTH_VERTEX_CAP,
    PathSpec,
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
)
from .numerics.dyadic import ceil_to, eps_fraction, root_sums, spell, sqrt_up, working_exp
from .numerics.interval import DomainError, Interval
from .numerics.ratpoly import refine_ints, widen_point
from .numerics.trig import pi_enclosure
from .variation import Direction, chord_variation, directional_variation_on_partition


def achieve_variation(oracle, d: Direction, eps) -> tuple[Partition, Interval]:
    """The one achieve_variation, bound as a method in every variation
    oracle class: oracle.variation_partition(d, eps) and an enclosure of its
    v_{d,P} at working_exp(eps)."""
    eps_fr = eps_fraction(eps)
    part = oracle.variation_partition(d, eps_fr)
    return part, directional_variation_on_partition(oracle.path, part, d, working_exp(eps_fr))


# -- piecewise-linear paths -------------------------------------------------------


class PolylineOracle:
    """Vertex partition attains every directional variation and the length
    with defect zero, independent of the requested tolerance."""

    method = "vertex-partition"

    def __init__(self, path: Polyline):
        if not isinstance(path, Polyline):
            raise TypeError("PolylineOracle expects a Polyline")
        self.path = path
        self.partition = path.vertex_partition

    def variation_partition(self, d: Direction, eps) -> Partition:
        return self.partition

    achieve_variation = achieve_variation

    def achieve_length(self, eps) -> tuple[Partition, Interval]:
        return self.witness_length(eps, working_exp(eps_fraction(eps)))[::2]

    def uniform_witness(self, eps) -> tuple[Partition, Fraction]:
        return self.witness_length(eps, None)[:2]

    def witness_length(self, eps, precision: Optional[int]) -> tuple[Partition, Fraction, Optional[Interval]]:
        eps_fraction(eps)  # the vertex partition needs no tolerance, but a bad one is refused
        length = None if precision is None else polyline_length(self.path, self.partition, precision)
        return self.partition, Fraction(0), length


# -- polynomial paths -------------------------------------------------------------


# Critical-point refinement shrinks isolating intervals to 2**-ISOLATION_FLOOR_BITS
# at most; interval Horner bounds shrink linearly, so eps 2**-n needs about 2**-n.
ISOLATION_FLOOR_BITS = 8192


class PolynomialVariationOracle:
    """Partitions at the certified critical points of the projected ordinate.

    For direction w the projection r = <w, alpha> is a rational polynomial,
    monotone between consecutive roots of r', so the variation defect lives
    in the intervals that hold them: at most twice the range of r over a
    piece's one root, four times over a turning cell's three.  Directions
    without an exact rational ray are snapped to one first; the induced
    error is charged against the tolerance via the direction-Lipschitz bound.
    """

    method = "critical-point-partition"

    def __init__(self, path: PolynomialPath):
        if not isinstance(path, PolynomialPath):
            raise TypeError("PolynomialVariationOracle expects a PolynomialPath")
        self.path = path

    def variation_partition(self, d: Direction, eps) -> Partition:
        ray = d.exact_ray()
        if ray is not None:  # on integers: w times both its denominators
            (nx, dx), (ny, dy) = ray[0].as_integer_ratio(), ray[1].as_integer_ratio()
            return self._critical_partition(nx * dy, ny * dx, eps)
        en, ed = eps_fraction(eps).as_integer_ratio()
        # M = max(1, speed bound) = mn / md, and the snap budget is min(eps / 16M, 2**-45)
        mn, md = max(self.path.speed_bound, 1).as_integer_ratio()
        gap_budget = Fraction(en * md, 16 * ed * mn) if en * md << 41 <= ed * mn else Fraction(1, 1 << 45)
        wx, wy, gap = d.rational_approx(gap_budget)
        gn, gd = gap.as_integer_ratio()
        # two angle switches (to the snapped ray and back) cost 2M each;
        # gap <= eps/(16M), so eps_core = eps - 4 M gap >= 3*eps/4
        eps_core = Fraction(en * md * gd - 4 * mn * gn * ed, ed * md * gd)
        return self._critical_partition(wx, wy, eps_core)

    achieve_variation = achieve_variation

    def _critical_partition(self, wx: int, wy: int, eps_core) -> Partition:
        """The partition for the integer ray (wx, wy) within the tolerance
        eps_core, which is read only where the partition depends on it."""
        xp, yp, turn, ends, ((ax, ay), (bx, by)) = self.path.turning
        # with no cell [0, 1] is one piece, where r' has one root at most: none when
        # its end signs are one strict sign, and then r is monotone
        if len(ends) == 2 and (wx * ax + wy * ay) * (wx * bx + wy * by) > 0:
            return Partition.trivial()
        rp = xp.linear_combination(wx, yp, wy)
        if rp.is_zero():  # r is constant
            return Partition.trivial()
        # (nl, nh, q, sign of r' at nl / q), q a power of 2; a point when exact
        roots = [iv for (_, a, qa), (b, _, qb) in zip(ends, ends[1:]) for iv in _piece_root(rp, a, qa, b, qb)]
        cells, r, bits = ends[1:-1], None, 0
        while True:
            # a boundary cell holds 3 roots of r' at most, and none where r' keeps its sign
            cells = [c for c, (lo, hi, _) in ((c, rp.range_ints(*c)) for c in cells) if lo <= 0 <= hi]
            if not roots and not cells:  # r is monotone
                return Partition.trivial()
            if r is None:  # r, and total <= eps_core * |w| as total**2 * den <= num on integers
                r = self.path.x.linear_combination(wx, self.path.y, wy)
                en, ed = eps_fraction(eps_core).as_integer_ratio()
                num, den = en * en * (wx * wx + wy * wy), ed * ed
            ranges = [(2, r.range_ints(*iv[:3])) for iv in roots] + [(4, r.range_ints(*c)) for c in cells]
            scale = math.lcm(*(s for _, (_, _, s) in ranges))
            total = sum(k * (hi - lo) * (scale // s) for k, (lo, hi, s) in ranges)  # over scale
            if total * total * den <= num * scale * scale:
                grid = max(iv[2] for iv in roots + cells)
                nums = {0, grid, *(n * (grid // q) for nl, nh, q, *_ in roots + cells for n in (nl, nh))}
                return Partition.on_grid(sorted(nums), grid.bit_length() - 1)
            bits += 8
            if bits > ISOLATION_FLOOR_BITS:
                raise ResourceError(f"critical-point refinement did not reach the target above "
                                    f"the isolation width floor of 2**-{ISOLATION_FLOOR_BITS}")
            width = Fraction(1, 1 << bits)
            roots = [iv if iv[0] == iv[1] else (*refine_ints(rp, *iv, width), iv[3]) for iv in roots]
            # a cusp's zero of r' proves nothing, so a cell keeps a positive width
            new = [widen_point(*refine_ints(turn, nl, nh, q, turn.sign_at(nl, q), width)) for nl, nh, q in cells]
            # the slivers cut off lie between roots of T, so each holds one root of r' at most
            roots += [iv for (nl, nh, q), (cl, ch, cq) in zip(cells, new)
                      for iv in _piece_root(rp, nl, q, cl, cq) + _piece_root(rp, ch, cq, nh, q)]
            cells = new

    def uniform_witness(self, eps) -> tuple[Partition, Fraction]:
        return self.witness_length(eps, None)[:2]

    def witness_length(self, eps, precision: Optional[int]) -> tuple[Partition, Fraction, Optional[Interval]]:
        """The first uniform 2**k mesh P whose certified length defect
        l - l_P is at most eps, that defect (0 on a segment), and l_P as
        polyline_length(path, P, precision) encloses it, None if no precision.

        The defect is a sum over cells.  On a cell of width h with chord c,
        alpha' = m + e with mean m = c/h, so by Cauchy-Schwarz and
        sqrt(a**2 + x) <= a + x/(2a), arc - |c| <= integral |e|**2 / (2|m|);
        Wirtinger's inequality (Hardy, Littlewood and Polya, Inequalities,
        7.7) bounds that integral by (h/pi)**2 * h * B2**2.  So arc - |c| <=
        h**4 * B2**2 / (2 pi**2 |c|), or h * S when c = 0 (B2 = bend_bound,
        S = speed_bound).  As |c| <= h * S, the sum is at least h**2 * B2**2
        / (2 pi**2 S): no mesh that this rules out is built, and one past
        the point cap is refused before any chord is."""
        eps_fr = eps_fraction(eps)
        pi = pi_enclosure(-64)
        c = self.path.bend_bound**2 / (2 * Fraction(pi.n_lo, 1 << -pi.e) ** 2)  # a cell's bound is c * h**4 / |chord|
        (cn, cd), (sn, sd) = c.as_integer_ratio(), (eps_fr * self.path.speed_bound).as_integer_ratio()
        k = 0
        while True:
            if (1 << k) + 1 > SAWTOOTH_VERTEX_CAP:
                raise ResourceError(f"uniform witness mesh exceeds the point cap of {SAWTOOTH_VERTEX_CAP} points")
            if cn * sd <= sn * cd << 2 * k:  # c * h**2 <= eps * S; a segment's c = 0 takes the one cell
                part = Partition.uniform(1 << k)
                defect, length = self._mesh(part, c, eps_fr, precision)
                if defect <= eps_fr:
                    return part, defect, length
            k += 1

    def _mesh(self, part: Partition, c: Fraction, eps: Fraction, precision) -> tuple[Fraction, Optional[Interval]]:
        """The mesh's defect sum_i c * h**4 / |chord_i|, the reciprocals
        rounded up on one 2**-g grid, plus h * S for each zero chord, and if
        that is at most eps, l_P on chord_length's grid 2**e.  One isqrt a
        chord serves both sums: for squared norms s_i over D**2, D = 2**j * q
        with q odd, and u = max(-e - j, 0), R_i = isqrt(s_i * 4**u) gives the
        defect's isqrt(s_i) as R_i >> u and the length's floor of
        sqrt(s_i) / D / 2**e as R_i // (q << max(e + j, 0)) (see root_sums)."""
        run = chord_deltas_exact(self.path, part).runs[0]
        norms, d = list(map(add, map(mul, run.dx, run.dx), map(mul, run.dy, run.dy))), run.den
        del run  # the chords go before their roots are taken
        e = None if precision is None else length_exp(len(norms), precision)
        j = (d & -d).bit_length() - 1
        u = 0 if e is None else max(-e - j, 0)
        roots = list(map(math.isqrt, map(lshift, norms, repeat(2 * u))))
        # 8 bits past the largest root: each reciprocal rounds up by 2**-8 of itself at most
        g = (max(roots) >> u).bit_length() + 8
        recips = -sum(map(floordiv, repeat(-1 << g), filter(None, map(rshift, roots, repeat(u)))))
        h = Fraction(1, 1 << part.k)
        defect = c * h**4 * Fraction(d * recips, 1 << g) + roots.count(0) * h * self.path.speed_bound
        if defect > eps or e is None:
            return defect, None
        q = d >> j << max(e + j, 0)
        return defect, Interval.on_grid(*root_sums(map(lshift, norms, repeat(2 * u)), q * q, roots), e)


def _piece_root(rp, a: int, qa: int, b: int, qb: int) -> list[tuple[int, int, int, int]]:
    """The root of r' on [a / qa, b / qb], between roots of T, which holds one at most:
    a point where r' vanishes at an end, the piece where its end signs differ, else none."""
    sa, sb = rp.sign_at(a, qa), rp.sign_at(b, qb)
    if sa == 0 or sb == 0:
        return [(a, a, qa, 0)] if sa == 0 else [(b, b, qb, 0)]
    q = max(qa, qb)
    return [] if sa == sb else [(a * (q // qa), b * (q // qb), q, sa)]


# -- sampled graphs: honest brackets only ------------------------------------------

# brackets are rounded out on the 2**-60 grid
_BRACKET_EXP = -60


def _bracket(path: SampledGraph, lo, hi, **budget) -> Certificate:
    """The sample bracket [lo, max(lo, hi)]; its budget names the Lipschitz
    constant first."""
    value = Interval(lo, max(lo, hi))
    return Certificate(value, CertKind.NON_SHRINKING_BRACKET, value.width(), "sampled-graph-bracket",
                       len(path.samples), budget={"lipschitz": spell(path.lipschitz), **budget})


def sampled_bracket(path: SampledGraph, d: Direction) -> Certificate:
    """Non-shrinking bracket for the directional variation of any graph
    consistent with the samples and the declared Lipschitz constant."""
    lo = chord_variation(chords_through(path.samples), d, _BRACKET_EXP).lo
    # total variation of the abscissa is 1, of the ordinate at most L
    cx, cy = d.components(_BRACKET_EXP)
    hi = ceil_to(abs(cx).hi + abs(cy).hi * path.lipschitz, _BRACKET_EXP)
    return _bracket(path, lo, hi, direction=d.describe())


def sampled_length_bracket(path: SampledGraph) -> Certificate:
    """Non-shrinking length bracket: inscribed sample length from below,
    integral of the worst-case slope from above."""
    lo = chord_length(chords_through(path.samples), _BRACKET_EXP).lo
    return _bracket(path, lo, sqrt_up(1 + path.lipschitz ** 2, _BRACKET_EXP))


# -- dispatch ----------------------------------------------------------------------


def variation_oracle_for(path: PathSpec):
    if isinstance(path, Polyline):
        return PolylineOracle(path)
    if isinstance(path, PolynomialPath):
        return PolynomialVariationOracle(path)
    if isinstance(path, SampledGraph):
        raise DomainError("sampled graphs admit no convergent variation oracle; "
                          "use sampled_bracket for an honest non-shrinking bracket")
    raise TypeError(f"unknown path kind {type(path)!r}")

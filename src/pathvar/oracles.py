"""Oracles that achieve variation and length tolerances with explicit
partitions.

A variation oracle answers variation_partition(d, eps) with a partition P
such that v_d(path) <= v_{d,P} + eps, and achieve_variation(d, eps) with
that same partition and an enclosure of v_{d,P}: one partition call plus
one directional_variation_on_partition, in the one achieve_variation
function that every oracle class binds.  Direction-net averaging needs only
the partitions, so it calls variation_partition alone.  It also answers
uniform_witness(eps): one partition whose variation defect is at most eps
simultaneously for every direction, returned with the defect it certifies
(0 for a vertex partition); direction-net averaging uses it to skip the
net.  A length oracle answers achieve_length(eps) with a partition P and an
enclosure of l_P such that l(path) <= l_P + eps.  Each oracle class names
its route in `method`, which certified_variation reports as the
certificate's method.  Here live PolylineOracle and
PolynomialVariationOracle, one per exact path kind; the third variation
oracle, pathvar.rectify's RefinementGainOracle, rides on a length oracle.

Enclosures come from the exact chord kernels chord_length and
chord_variation, over chords that pathvar.core.chords builds as runs of
integer pairs over a common denominator; chord_variation snaps an angle to a
rational ray with a certified gap.  Sampled graphs are known only at their
samples and admit no convergent oracle (features can hide between samples
at any resolution); they get honest non-shrinking brackets instead, whose
lower ends are the kernels applied to the sample chords.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Protocol

from .core.certificates import Certificate, CertKind, Provenance
from .core.chords import chord_length, chords_through, polyline_length
from .core.partitions import Partition
from .core.paths import (
    SAWTOOTH_VERTEX_CAP,
    PathSpec,
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
)
from .numerics.dyadic import ceil_to, eps_fraction, sqrt_up, working_exp
from .numerics.interval import Interval
from .numerics.ratpoly import RationalPoly, refine_root, sturm_isolate
from .variation import Direction, chord_variation, directional_variation_on_partition


class OracleUnavailable(RuntimeError):
    """No convergent oracle exists for this path description."""


class VariationOracle(Protocol):
    method: str

    def variation_partition(self, d: Direction, eps) -> Partition:
        """A partition P with v_d(path) <= v_{d,P} + eps."""

    def achieve_variation(self, d: Direction, eps) -> tuple[Partition, Interval]:
        """variation_partition(d, eps) and an enclosure of its v_{d,P}."""

    def uniform_witness(self, eps) -> tuple[Partition, Fraction]:
        """One partition good to eps in every direction, and its defect."""


class LengthOracle(Protocol):
    def achieve_length(self, eps) -> tuple[Partition, Interval]: ...


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
        eps_fr = eps_fraction(eps)
        return self.partition, polyline_length(self.path, self.partition, working_exp(eps_fr))

    def uniform_witness(self, eps) -> tuple[Partition, Fraction]:
        return self.partition, Fraction(0)


# -- polynomial paths -------------------------------------------------------------


# Critical-point refinement shrinks isolating intervals to 2**-ISOLATION_FLOOR_BITS
# at most; interval Horner bounds shrink linearly, so eps 2**-n needs about 2**-n.
ISOLATION_FLOOR_BITS = 8192


class PolynomialVariationOracle:
    """Partitions at the certified critical points of the projected ordinate.

    For direction w the projection r = <w, alpha> is a rational polynomial;
    between consecutive roots of r' the projection is monotone, so the only
    variation defect lives inside the isolating intervals, where it is
    bounded by twice the exact range of r.  Directions without an exact
    rational ray are snapped to one first; the induced error is charged
    against the tolerance via the direction-Lipschitz bound.
    """

    method = "critical-point-partition"

    def __init__(self, path: PolynomialPath):
        if not isinstance(path, PolynomialPath):
            raise TypeError("PolynomialVariationOracle expects a PolynomialPath")
        self.path = path

    # sup-norm bounds from exact coefficient ranges over [0, 1]
    @functools.cached_property
    def speed_bound(self) -> Fraction:
        return _sup_norm_bound(self.path.x.derivative(), self.path.y.derivative())

    @functools.cached_property
    def bend_bound(self) -> Fraction:
        xp, yp = self.path.x.derivative(), self.path.y.derivative()
        return _sup_norm_bound(xp.derivative(), yp.derivative())

    def variation_partition(self, d: Direction, eps) -> Partition:
        eps_fr = eps_fraction(eps)
        ray = d.exact_ray()
        if ray is not None:
            wx, wy, n2 = ray
            eps_core = eps_fr
        else:
            m = max(Fraction(1), self.speed_bound)
            gap_budget = min(eps_fr / (16 * m), Fraction(1, 1 << 45))
            wx, wy, gap = d.rational_approx(gap_budget)
            n2 = wx * wx + wy * wy
            # two angle switches (to the snapped ray and back) cost 2M each;
            # gap <= eps/(16M), so eps_core >= 3*eps/4
            eps_core = eps_fr - 4 * m * gap
        return self._critical_partition(wx, wy, n2, eps_core)

    achieve_variation = achieve_variation

    def _critical_partition(self, wx: Fraction, wy: Fraction, n2: Fraction, eps_core: Fraction) -> Partition:
        r = RationalPoly([wx]) * self.path.x + RationalPoly([wy]) * self.path.y
        rp = r.derivative()
        if rp.degree < 1:
            return Partition.trivial()
        sf = rp.square_free()
        isos = sturm_isolate(sf)
        bits = 0
        while True:
            total = Fraction(0)
            for iv in isos:
                if iv.is_point():
                    continue
                lo, hi = r.eval_range(iv.lo, iv.hi)
                total += 2 * (hi - lo)
            if total * total <= eps_core * eps_core * n2:  # total <= eps_core * |w|
                params = {Fraction(0), Fraction(1)}
                for iv in isos:
                    params.add(iv.lo)
                    params.add(iv.hi)
                return Partition(sorted(params))
            bits += 8
            if bits > ISOLATION_FLOOR_BITS:
                raise ResourceError(f"critical-point refinement did not reach the target above "
                                    f"the isolation width floor of 2**-{ISOLATION_FLOOR_BITS}")
            isos = [iv if iv.is_point() else refine_root(sf, iv, Fraction(1, 1 << bits)) for iv in isos]

    def uniform_witness(self, eps) -> tuple[Partition, Fraction]:
        """Uniform mesh whose defect is below eps for every direction, with
        eps as the defect it certifies.

        On a cell of width h the projected derivative <w, alpha'> either
        keeps its sign (no defect) or has a root, where it is bounded by
        B2 * h; at most deg-1 cells of the second kind exist, each
        contributing at most 2 * B2 * h**2.
        """
        eps_fr = eps_fraction(eps)
        deg = max(self.path.x.degree, self.path.y.degree)
        if deg <= 1:
            return Partition.trivial(), eps_fr
        c = 2 * (deg - 1) * max(self.bend_bound, Fraction(1, 1 << 30))
        k = 0
        while Fraction(1 << (2 * k)) * eps_fr < c:
            k += 1
            if (1 << k) + 1 > SAWTOOTH_VERTEX_CAP:
                raise ResourceError(
                    f"uniform witness mesh exceeds the point cap of {SAWTOOTH_VERTEX_CAP} points"
                )
        return Partition.uniform(1 << k), eps_fr


def _sup_norm_bound(px: RationalPoly, py: RationalPoly) -> Fraction:
    ax, ay = (max(map(abs, p.eval_range(Fraction(0), Fraction(1)))) for p in (px, py))
    return sqrt_up(ax * ax + ay * ay, -32)


# -- sampled graphs: honest brackets only ------------------------------------------

# brackets are rounded out on the 2**-60 grid
_BRACKET_EXP = -60


def _bracket(path: SampledGraph, lo, hi, **budget) -> Certificate:
    """The sample bracket [lo, max(lo, hi)]; its budget names the Lipschitz
    constant first."""
    value = Interval(lo, max(lo, hi))
    return Certificate(
        value,
        CertKind.NON_SHRINKING_BRACKET,
        value.width(),
        Provenance(
            "sampled-graph-bracket",
            len(path.samples),
            budget={"lipschitz": str(path.lipschitz), **budget},
        ),
    )


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


def variation_oracle_for(path: PathSpec) -> VariationOracle:
    if isinstance(path, Polyline):
        return PolylineOracle(path)
    if isinstance(path, PolynomialPath):
        return PolynomialVariationOracle(path)
    if isinstance(path, SampledGraph):
        raise OracleUnavailable(
            "sampled graphs admit no convergent variation oracle; "
            "use sampled_bracket for an honest non-shrinking bracket"
        )
    raise TypeError(f"unknown path kind {type(path)!r}")

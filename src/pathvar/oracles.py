"""Oracles that achieve variation and length tolerances with explicit
partitions.

A variation oracle answers achieve_variation(d, eps) with a partition P and
an enclosure of v_{d,P} such that v_d(path) <= v_{d,P} + eps.  A length
oracle answers achieve_length(eps) with a partition P and an enclosure of
l_P such that l(path) <= l_P + eps.  Oracles may additionally offer
uniform_witness(eps): one partition whose variation defect is at most eps
simultaneously for every direction; direction-net averaging exploits this
to avoid touching each net node separately.  Each oracle class names its
route in `method`, which certified_variation reports as the certificate's
method.

Enclosures come from the exact chord kernels chord_length and
chord_variation, which snap an angle to a rational ray with a certified
gap.  Sampled graphs are known only at their samples and admit no
convergent oracle (features can hide between samples at any resolution);
they get honest non-shrinking brackets instead, whose lower ends are the
kernels applied to the sample chords.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Protocol

from .core.certificates import Certificate, CertKind, Provenance
from .core.chords import chord_length, polyline_length
from .core.partitions import Partition
from .core.paths import (
    PathSpec,
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    as_polyline,
    canonical_partition,
)
from .numerics.dyadic import ceil_to, eps_fraction, sqrt_up, working_exp
from .numerics.interval import Interval, norm_enclosure
from .numerics.ratpoly import RationalPoly, refine_root, sturm_isolate
from .variation import Direction, chord_variation, directional_variation_on_partition


class OracleUnavailable(RuntimeError):
    """No convergent oracle exists for this path description."""


class VariationOracle(Protocol):
    method: str

    def achieve_variation(self, d: Direction, eps) -> tuple[Partition, Interval]: ...


class LengthOracle(Protocol):
    def achieve_length(self, eps) -> tuple[Partition, Interval]: ...


# -- piecewise-linear paths -------------------------------------------------------


class PolylineOracle:
    """Vertex partition attains every directional variation and the length
    with defect zero, independent of the requested tolerance."""

    method = "vertex-partition"

    def __init__(self, path: Polyline):
        if not isinstance(path, Polyline):
            raise TypeError("PolylineOracle expects a Polyline")
        self.path = path
        self.partition = canonical_partition(path)

    def achieve_variation(self, d: Direction, eps) -> tuple[Partition, Interval]:
        eps_fr = eps_fraction(eps)
        v = directional_variation_on_partition(
            self.path, self.partition, d, working_exp(eps_fr)
        )
        return self.partition, v

    def achieve_length(self, eps) -> tuple[Partition, Interval]:
        eps_fr = eps_fraction(eps)
        return self.partition, polyline_length(self.path, self.partition, working_exp(eps_fr))

    def uniform_witness(self, eps) -> Partition:
        return self.partition


# -- polynomial paths -------------------------------------------------------------


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
        self._speed: Optional[Fraction] = None
        self._bend: Optional[Fraction] = None

    # sup-norm bounds from exact coefficient ranges over [0, 1]
    def speed_bound(self) -> Fraction:
        if self._speed is None:
            self._speed = _sup_norm_bound(self.path.x.derivative(), self.path.y.derivative())
        return self._speed

    def bend_bound(self) -> Fraction:
        if self._bend is None:
            xpp = self.path.x.derivative().derivative()
            ypp = self.path.y.derivative().derivative()
            self._bend = _sup_norm_bound(xpp, ypp)
        return self._bend

    def achieve_variation(self, d: Direction, eps) -> tuple[Partition, Interval]:
        eps_fr = eps_fraction(eps)
        ray = d.exact_ray()
        if ray is not None:
            wx, wy, n2 = ray
            eps_core = eps_fr
        else:
            m = max(Fraction(1), self.speed_bound())
            gap_budget = min(eps_fr / (16 * m), Fraction(1, 1 << 45))
            wx, wy, gap = d.rational_approx(gap_budget)
            n2 = wx * wx + wy * wy
            # two angle switches (to the snapped ray and back) cost 2M each;
            # gap <= eps/(16M), so eps_core >= 3*eps/4
            eps_core = eps_fr - 4 * m * gap
        partition = self._critical_partition(wx, wy, n2, eps_core)
        v = directional_variation_on_partition(self.path, partition, d, working_exp(eps_fr))
        return partition, v

    def _critical_partition(self, wx: Fraction, wy: Fraction, n2: Fraction, eps_core: Fraction) -> Partition:
        r = self.path.x.scale(wx) + self.path.y.scale(wy)
        rp = r.derivative()
        if rp.degree < 1:
            return Partition.trivial()
        target = eps_core * norm_enclosure(n2, -32).lo
        sf = rp.square_free()
        isos = sturm_isolate(sf)
        shrink = Fraction(1, 256)
        for _ in range(64):
            total = Fraction(0)
            for iv in isos:
                if iv.is_point():
                    continue
                lo, hi = r.eval_range(iv.lo, iv.hi)
                total += 2 * (hi - lo)
            if total <= target:
                params = {Fraction(0), Fraction(1)}
                for iv in isos:
                    params.add(iv.lo)
                    params.add(iv.hi)
                return Partition(sorted(params))
            isos = [
                iv if iv.is_point() else refine_root(sf, iv, shrink) for iv in isos
            ]
            shrink /= 256
        raise ResourceError("critical-point refinement did not reach the target")

    def uniform_witness(self, eps) -> Partition:
        """Uniform mesh whose defect is below eps for every direction.

        On a cell of width h the projected derivative <w, alpha'> either
        keeps its sign (no defect) or has a root, where it is bounded by
        B2 * h; at most deg-1 cells of the second kind exist, each
        contributing at most 2 * B2 * h**2.
        """
        eps_fr = eps_fraction(eps)
        deg = max(self.path.x.degree, self.path.y.degree)
        if deg <= 1:
            return Partition.trivial()
        c = 2 * (deg - 1) * max(self.bend_bound(), Fraction(1, 1 << 30))
        k = 0
        while Fraction(1 << (2 * k)) * eps_fr < c:
            k += 1
            if k > 26:
                raise ResourceError("uniform witness mesh exceeds the cell cap")
        return Partition.uniform(1 << k)


def _sup_norm_bound(px: RationalPoly, py: RationalPoly) -> Fraction:
    def amp(p: RationalPoly) -> Fraction:
        if p.is_zero():
            return Fraction(0)
        lo, hi = p.eval_range(Fraction(0), Fraction(1))
        return max(abs(lo), abs(hi))

    ax, ay = amp(px), amp(py)
    s2 = ax * ax + ay * ay
    if s2 == 0:
        return Fraction(0)
    return sqrt_up(s2, -32)


# -- sampled graphs: honest brackets only ------------------------------------------


def _sample_chords(path: SampledGraph) -> list[tuple[Fraction, Fraction]]:
    ss = path.samples
    return [(t1 - t0, y1 - y0) for (t0, y0), (t1, y1) in zip(ss, ss[1:])]


def sampled_bracket(path: SampledGraph, d: Direction, precision: int = -60) -> Certificate:
    """Non-shrinking bracket for the directional variation of any graph
    consistent with the samples and the declared Lipschitz constant."""
    lo = chord_variation(_sample_chords(path), d, precision).lo
    # total variation of the abscissa is 1, of the ordinate at most L
    cx, cy = d.components(precision)
    hi = ceil_to(abs(cx).hi + abs(cy).hi * path.lipschitz, precision)
    if hi < lo:
        hi = lo
    value = Interval(lo, hi)
    return Certificate(
        value,
        CertKind.NON_SHRINKING_BRACKET,
        value.width(),
        Provenance(
            "sampled-graph-bracket",
            len(path.samples),
            budget={"lipschitz": str(path.lipschitz), "direction": d.describe()},
        ),
    )


def sampled_length_bracket(path: SampledGraph, precision: int = -60) -> Certificate:
    """Non-shrinking length bracket: inscribed sample length from below,
    integral of the worst-case slope from above."""
    lo = chord_length(_sample_chords(path), precision).lo
    hi = sqrt_up(1 + path.lipschitz ** 2, precision)
    value = Interval(lo, hi if hi > lo else lo)
    return Certificate(
        value,
        CertKind.NON_SHRINKING_BRACKET,
        value.width(),
        Provenance(
            "sampled-graph-bracket",
            len(path.samples),
            budget={"lipschitz": str(path.lipschitz)},
        ),
    )


# -- dispatch ----------------------------------------------------------------------


def variation_oracle_for(path: PathSpec) -> VariationOracle:
    if isinstance(path, Polyline):
        return PolylineOracle(path)
    if isinstance(path, (SawtoothGraph, SawtoothMixture)):
        return PolylineOracle(as_polyline(path))
    if isinstance(path, PolynomialPath):
        return PolynomialVariationOracle(path)
    if isinstance(path, SampledGraph):
        raise OracleUnavailable(
            "sampled graphs admit no convergent variation oracle; "
            "use sampled_bracket for an honest non-shrinking bracket"
        )
    raise TypeError(f"unknown path kind {type(path)!r}")

"""Chord decompositions over a partition: deltas and inscribed length.

A chord is alpha(x_{i+1}) - alpha(x_i) for consecutive partition parameters.
Deltas are exact rationals whenever the path kind evaluates exactly; lengths
are certified square-root enclosures.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..numerics.dyadic import Dyadic, sqrt_down, sqrt_up
from ..numerics.interval import Interval
from .partitions import Partition
from .paths import PathSpec, eval_path, eval_rational


def chord_deltas_exact(
    path: PathSpec, partition: Partition
) -> Optional[list[tuple[Fraction, Fraction]]]:
    """Exact chord vectors, or None when some endpoint is not exactly known."""
    points = []
    for p in partition:
        v = eval_rational(path, p.as_fraction())
        if v is None:
            return None
        points.append(v)
    return [
        (x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(points, points[1:])
    ]


def chord_deltas(
    path: PathSpec, partition: Partition, precision: int = -64
) -> list[tuple[Interval, Interval]]:
    points = [eval_path(path, p, precision - 2) for p in partition]
    return [
        (x1 - x0, y1 - y0)
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    ]


def polyline_length(
    path: PathSpec, partition: Partition, precision: int = -60
) -> Interval:
    """Certified enclosure of the inscribed length over the partition."""
    exact = chord_deltas_exact(path, partition)
    if exact is not None:
        per_chord = precision - max(1, len(exact)).bit_length() - 1
        lo = Dyadic(0)
        hi = Dyadic(0)
        for fx, fy in exact:
            d2 = fx * fx + fy * fy
            lo = lo + sqrt_down(d2, per_chord)
            hi = hi + sqrt_up(d2, per_chord)
        return Interval(lo, hi)
    deltas = chord_deltas(path, partition, precision)
    per_chord = precision - max(1, len(deltas)).bit_length() - 1
    lo = Dyadic(0)
    hi = Dyadic(0)
    for dx, dy in deltas:
        ax, ay = abs(dx), abs(dy)
        s2 = ax * ax + ay * ay
        s = s2.sqrt(per_chord)
        lo = lo + s.lo
        hi = hi + s.hi
    return Interval(lo, hi)

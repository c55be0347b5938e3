"""Chord decompositions over a partition: exact deltas and inscribed length.

A chord is alpha(x_{i+1}) - alpha(x_i) for consecutive partition parameters.
Chords are always exact rationals: every path kind evaluates exactly at a
rational parameter, except a sampled graph, which is known only at its
samples, so a partition point strictly between samples is rejected rather
than enclosed.  Lengths are sums of certified square-root bounds.
"""

from __future__ import annotations

from fractions import Fraction

from ..numerics.dyadic import ZERO, sqrt_down, sqrt_up
from ..numerics.interval import DomainError, Interval
from .partitions import Partition
from .paths import PathSpec, eval_rational


def chord_deltas_exact(path: PathSpec, partition: Partition) -> list[tuple[Fraction, Fraction]]:
    """Exact chord vectors; DomainError when some endpoint is not exactly
    known (a sampled graph between its samples)."""
    points = []
    for p in partition:
        v = eval_rational(path, p.as_fraction())
        if v is None:
            raise DomainError(f"path is known only at its samples, not at {p}")
        points.append(v)
    return [
        (x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(points, points[1:])
    ]


def chord_length(chords: list[tuple[Fraction, Fraction]], precision: int = -60) -> Interval:
    """Certified enclosure of sum_i |delta_i| for exact chords delta_i."""
    per_chord = precision - max(1, len(chords)).bit_length() - 1
    lo = hi = ZERO
    for dx, dy in chords:
        d2 = dx * dx + dy * dy
        lo = lo + sqrt_down(d2, per_chord)
        hi = hi + sqrt_up(d2, per_chord)
    return Interval(lo, hi)


def polyline_length(
    path: PathSpec, partition: Partition, precision: int = -60
) -> Interval:
    """Certified enclosure of the inscribed length over the partition."""
    return chord_length(chord_deltas_exact(path, partition), precision)

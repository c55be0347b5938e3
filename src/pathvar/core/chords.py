"""Chord decompositions over a partition: exact deltas and inscribed length.

A chord is alpha(x_{i+1}) - alpha(x_i) for consecutive partition parameters.
Chords are exact: a decomposition is a few runs of consecutive chords, each
run a tuple of integer pairs over one common denominator taken `repeat`
times in a row; the kernels round each term onto one unit grid, add the
integers (Chords.total) and divide once.  chord_deltas_exact picks them:

- a polyline on its vertex partition: its cached vertex_chords (see
  pathvar.core.paths), built once per path, a sawtooth's from integers;
- a polynomial path on a partition of the 2**k grid: one integer polynomial
  in the grid numerators, by exact forward differences on the uniform
  partition (Knuth, TAOCP vol. 2, 4.6.4), deg additions per point, and by
  RationalPoly.horner at each point of any other;
- any other path and partition: each point evaluated once with
  eval_rational, and the chords through the points (chords_through).

A sampled graph is known only at its samples, so a partition point strictly
between samples is rejected rather than enclosed.  Lengths are sums of
certified integer square-root bounds.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import sub

from ..numerics.dyadic import root_sums
from ..numerics.interval import DomainError, Interval
from .partitions import Partition
from .paths import Chords, PathSpec, Polyline, PolynomialPath, Run, chords_through, eval_rational


def _unit_steps(row: list[int], count: int) -> tuple[int, ...]:
    """P(j + 1) - P(j) for j = 0..count-1, for the integer polynomial P whose
    values at j = 0..len(row)-1 are row, len(row) - 1 at least its degree.
    Each level of the forward-difference table at 0 is accumulated from the
    level above it, which is one integer addition per point and level."""
    table = []  # table[i] = (i+1)-th forward difference of P at 0
    while len(row) > 1:
        row = list(map(sub, row[1:], row))
        table.append(row[0])
    if not table:
        return (0,) * count
    level = (table[-1],) * count  # the top difference is constant
    for start in reversed(table[:-1]):
        level = tuple(accumulate(islice(level, count - 1), initial=start))
    return level


def _polynomial_chords(path: PolynomialPath, partition: Partition) -> Chords:
    """Chords over the partition nums[i] / cells, cells = 2**k.  With deg the
    larger degree and D = lcm(x.den, y.den), X(j) = D * cells**deg * x(j / cells)
    is x.horner(j, cells) times D / x.den * cells**(deg - x.degree), an integer
    polynomial in j, and so is Y: stepped by forward differences from its
    first values over the whole grid, evaluated at the numerators elsewhere."""
    x, y = path.x, path.y
    deg = max(x.degree, y.degree, 0)
    den = math.lcm(x.den, y.den)
    cells = 1 << partition.k
    uniform = len(partition) == cells + 1  # 2**k + 1 distinct points are all of the grid

    def steps(p) -> tuple[int, ...]:
        scale = den // p.den * cells ** (deg - p.degree)
        js = range(p.degree + 1) if uniform else partition.nums
        values = [scale * p.horner(j, cells) for j in js]
        return _unit_steps(values, cells) if uniform else tuple(map(sub, values[1:], values))

    return Chords((Run(steps(x), steps(y), den * cells**deg),))


def chord_deltas_exact(path: PathSpec, partition: Partition) -> Chords:
    """Exact chords over the partition; DomainError when some endpoint is not
    exactly known (a sampled graph between its samples)."""
    if isinstance(path, Polyline) and partition == path.vertex_partition:
        return path.vertex_chords
    if isinstance(path, PolynomialPath):
        return _polynomial_chords(path, partition)
    points = []
    for p in partition.params:
        v = eval_rational(path, p)
        if v is None:
            raise DomainError(f"path is known only at its samples, not at {p}")
        points.append(v)
    return chords_through(points)


def length_exp(count: int, precision: int) -> int:
    """The precision less the bits that a count of chords needs."""
    return precision - max(1, count).bit_length() - 1


def chord_length(chords: Chords, precision: int = -60) -> Interval:
    """Certified enclosure of sum_i |delta_i| for exact chords delta_i.

    Each chord's root bounds are multiples of unit = 2**e, e = length_exp:
    the integer bounds of sqrt((dx**2 + dy**2) / den**2) / unit, summed over
    the chords and taken as the integer ends of an interval on that grid."""
    e = length_exp(len(chords), precision)
    up, down = (1 << -2 * e, 1) if e < 0 else (1, 1 << 2 * e)  # unit**-2 = up / down
    lo, hi = chords.total(root_sums(
        ((dx * dx + dy * dy) * up for dx, dy in zip(run.dx, run.dy)), run.den * run.den * down
    ) for run in chords.runs)
    return Interval.on_grid(lo, hi, e)


def polyline_length(
    path: PathSpec, partition: Partition, precision: int = -60
) -> Interval:
    """Certified enclosure of the inscribed length over the partition."""
    return chord_length(chord_deltas_exact(path, partition), precision)

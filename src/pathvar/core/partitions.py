"""Parameter partitions of [0, 1] with exact dyadic sample points."""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Sequence

from ..numerics.dyadic import check_dyadic


class Partition:
    """Parameters 0 = t_0 < ... < t_m = 1 on one dyadic grid: t_i is
    nums[i] / 2**k for integers nums rising strictly from 0 to 2**k, with k
    the least exponent that holds them.  A whole grid, all 2**k + 1 points,
    is held as range(2**k + 1) and any other set as a tuple, so equal point
    sets compare and hash equal.

    Duplicates are collapsed on construction; merging two partitions is exact
    set union, which is what makes refinement arguments decidable.
    """

    __slots__ = ("nums", "k")

    def __init__(self, params: Iterable[Fraction]):
        seen: list[Fraction] = []
        prev = None
        for p in params:
            check_dyadic(p)
            if prev is None or p > prev:
                seen.append(p)
            elif p < prev:
                raise ValueError("partition parameters must be nondecreasing")
            prev = p
        if not seen or seen[0] != 0 or seen[-1] != 1:
            raise ValueError("partition must start at 0 and end at 1")
        # the largest denominator is the grid
        den = max(p.denominator for p in seen)
        grid = Partition.on_grid([p.numerator * (den // p.denominator) for p in seen], den.bit_length() - 1)
        self.nums, self.k = grid.nums, grid.k

    @classmethod
    def on_grid(cls, nums: Sequence[int], k: int) -> "Partition":
        """The partition nums[i] / 2**k, for integers that rise strictly from
        0 to 2**k (not checked), with k reduced to the least exponent; a
        whole grid's odd point 1 ends that at once, so no range is copied."""
        shift = 0
        while shift < k and all(n >> shift & 1 == 0 for n in nums):
            shift += 1
        part = cls.__new__(cls)
        part.k = k - shift
        part.nums = range(len(nums)) if len(nums) == (1 << part.k) + 1 else tuple(n >> shift for n in nums)
        return part

    @property
    def params(self) -> tuple[Fraction, ...]:
        """The points as Fractions, built afresh on each read."""
        den = 1 << self.k
        return tuple(Fraction(n, den) for n in self.nums)

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        return iter(self.params)

    def __eq__(self, other):
        return other is self or isinstance(other, Partition) and self.k == other.k and self.nums == other.nums

    def __hash__(self):
        return hash((self.k, self.nums))

    def __repr__(self):
        return f"Partition([{', '.join(str(p) for p in self.params)}])"

    @classmethod
    @functools.cache  # one shared {0, 1}: nothing assigns to a partition once built
    def trivial(cls) -> "Partition":
        return cls.on_grid((0, 1), 0)

    @classmethod
    def uniform(cls, cells: int) -> "Partition":
        """Uniform partition; the cell count must be a power of two so the
        sample points stay dyadic."""
        if cells < 1 or cells & (cells - 1):
            raise ValueError("uniform partitions need a power-of-two cell count")
        return cls.on_grid(range(cells + 1), cells.bit_length() - 1)


def merge_partitions(*parts: Partition) -> Partition:
    """Exact sorted union of the point sets on the finest of their grids; the
    order of the arguments never changes the result."""
    k = max(p.k for p in parts)
    points = set().union(*([n << (k - p.k) for n in p.nums] for p in parts))
    return Partition.on_grid(sorted(points), k)

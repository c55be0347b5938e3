"""Parameter partitions of [0, 1] with exact dyadic sample points."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from ..numerics.dyadic import Dyadic, ONE, ZERO


class Partition:
    """Nondecreasing dyadic parameters from 0 to 1.

    Duplicates are collapsed on construction; merging two partitions is exact
    set union, which is what makes refinement arguments decidable.
    """

    __slots__ = ("params",)

    def __init__(self, params: Iterable[Dyadic]):
        seen: list[Dyadic] = []
        prev = None
        for p in params:
            if not isinstance(p, Dyadic):
                raise TypeError("partition parameters must be Dyadic")
            if prev is not None and p < prev:
                raise ValueError("partition parameters must be nondecreasing")
            if prev is None or p > prev:
                seen.append(p)
            prev = p
        if not seen or seen[0] != ZERO or seen[-1] != ONE:
            raise ValueError("partition must start at 0 and end at 1")
        self.params = tuple(seen)

    def __len__(self):
        return len(self.params)

    def __iter__(self):
        return iter(self.params)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def __repr__(self):
        return f"Partition([{', '.join(str(p) for p in self.params)}])"

    @classmethod
    def trivial(cls) -> "Partition":
        return cls([ZERO, ONE])

    @classmethod
    def uniform(cls, cells: int) -> "Partition":
        """Uniform partition; the cell count must be a power of two so the
        sample points stay dyadic."""
        if cells < 1 or cells & (cells - 1):
            raise ValueError("uniform partitions need a power-of-two cell count")
        k = cells.bit_length() - 1
        return cls([Dyadic(j, -k) for j in range(cells + 1)])

    @classmethod
    def from_fractions(cls, qs: Iterable[Fraction]) -> "Partition":
        return cls([Dyadic.from_fraction(q) for q in qs])


def merge_partitions(*parts: Partition) -> Partition:
    """Exact sorted union of the parameter sets; the order of the arguments
    never changes the result."""
    return Partition(sorted(set().union(*(p.params for p in parts))))

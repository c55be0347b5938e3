"""Partitions on one integer grid, checked against Python's own sets of
Fractions, whole grids held as ranges, and polyline evaluation on the
vertex grid against a linear search over the vertex parameters."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pathvar.core.partitions import Partition, merge_partitions
from pathvar.core.paths import Polyline, SawtoothGraph, eval_rational
from pathvar.rectify import certified_length

F = Fraction

# dyadic points of (0, 1) on grids up to 2**-12, so that many draws share
# a grid and some do not
inner_points = st.builds(
    lambda j, e: F(j % (1 << e) or 1, 1 << e), st.integers(1, 1 << 12), st.integers(1, 12)
)
point_sets = st.lists(inner_points, max_size=30).map(lambda ps: {F(0), F(1), *ps})


def _least_grid(points) -> int:
    # the largest denominator among dyadic points is the least common grid
    return max(p.denominator for p in points).bit_length() - 1


@given(point_sets, st.randoms(use_true_random=False))
def test_construction_collapses_to_the_sorted_set(points, rnd):
    # duplicates allowed, order nondecreasing
    listed = sorted(list(points) + rnd.sample(sorted(points), rnd.randrange(len(points))))
    part = Partition(listed)
    assert list(part.params) == sorted(points)
    assert len(part) == len(points)
    assert part.k == _least_grid(points)
    assert [F(n, 1 << part.k) for n in part.nums] == sorted(points)


@given(point_sets, point_sets, point_sets)
def test_merge_is_set_union(a, b, c):
    merged = merge_partitions(Partition(sorted(a)), Partition(sorted(b)), Partition(sorted(c)))
    assert list(merged.params) == sorted(a | b | c)
    assert merged.k == _least_grid(a | b | c)
    assert merged == merge_partitions(Partition(sorted(c)), Partition(sorted(a)), Partition(sorted(b)))


@given(point_sets, st.integers(0, 8))
def test_equal_point_sets_compare_equal_across_constructors(points, extra):
    # the integer constructor, handed a grid finer than it needs, reduces to
    # the least one
    k = _least_grid(points) + extra
    nums = [p.numerator * ((1 << k) // p.denominator) for p in sorted(points)]
    on_grid = Partition.on_grid(nums, k)
    fractions = Partition(sorted(points))
    assert on_grid == fractions and hash(on_grid) == hash(fractions)
    assert on_grid.k == fractions.k == _least_grid(points)


@pytest.mark.parametrize("k", range(8))
def test_uniform_and_trivial_match_their_fractions(k):
    cells = 1 << k
    uniform = Partition.uniform(cells)
    assert uniform == Partition([F(j, cells) for j in range(cells + 1)])
    assert uniform == Partition.on_grid([j << 3 for j in range(cells + 1)], k + 3)
    assert uniform.k == k
    assert Partition.trivial() == Partition([0, 1]) == Partition.uniform(1)
    assert merge_partitions(Partition.trivial(), uniform) == uniform


def test_trivial_partition_is_one_shared_instance():
    # nothing assigns to a partition once built, so every caller may share
    # the one {0, 1}: a walk's monotone nodes build and hash no copies
    assert Partition.trivial() is Partition.trivial()
    assert Partition.trivial().nums == range(2) and Partition.trivial().k == 0


@pytest.mark.parametrize("k", (1, 2, 5, 11))
def test_a_whole_grid_is_one_range_six_ways(k):
    cells = 1 << k
    points = [F(j, cells) for j in range(cells + 1)]
    evens = Partition(points[::2])
    odds = Partition([F(0), *points[1::2], F(1)])
    ways = (
        Partition(points),
        Partition.on_grid(tuple(range(cells + 1)), k),
        Partition.uniform(cells),
        merge_partitions(evens, odds),
        Polyline(tuple((p, p * p) for p in points)).vertex_partition,
        SawtoothGraph(k - 1).vertex_partition,  # 2**k cells
    )
    for part in ways:
        assert isinstance(part.nums, range) and part.k == k
        assert part == ways[0] and hash(part) == hash(ways[0])
        assert list(part.params) == points


@pytest.mark.parametrize("k", (2, 5, 11))
def test_a_grid_short_of_one_point_is_a_tuple(k):
    cells = 1 << k
    kept = [j for j in range(cells + 1) if j != cells // 2]
    part = Partition.on_grid(kept, k)
    assert isinstance(part.nums, tuple) and part.k == k and part.nums == tuple(kept)
    assert part == Partition([F(j, cells) for j in kept]) != Partition.uniform(cells)
    assert merge_partitions(part, Partition.trivial()) == part


def _peak_bytes(call) -> int:
    """The most memory that tracemalloc sees held during call, past what
    was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_whole_grids_take_no_memory_per_point():
    # a tuple of 2**20 + 1 integers holds 8 MiB of pointers alone, and a
    # sawtooth at n = 20 has 2**21 + 1 vertices
    assert _peak_bytes(lambda: Partition.uniform(1 << 20)) < 1 << 10
    assert _peak_bytes(lambda: certified_length(SawtoothGraph(20), 1e-9)) < 4 << 20


@pytest.mark.parametrize(
    "params, message",
    [
        ([F(0), F(1, 3), F(1)], "1/3 is not a dyadic rational"),
        ([F(0), F(1, 2), F(1, 4), F(1)], "partition parameters must be nondecreasing"),
        ([F(1, 4), F(1)], "partition must start at 0 and end at 1"),
        ([F(0), F(1, 2)], "partition must start at 0 and end at 1"),
        ([], "partition must start at 0 and end at 1"),
    ],
)
def test_rejections_keep_their_messages(params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Partition(params)


@pytest.mark.parametrize("cells", (0, 3, 6, -4))
def test_uniform_rejects_other_cell_counts(cells):
    with pytest.raises(ValueError, match="^uniform partitions need a power-of-two cell count$"):
        Partition.uniform(cells)


# -- polyline evaluation on the vertex grid ------------------------------------------


def _linear_search(vertices, t):
    """The vertex parameters are j / 2**L for j < m - 1 and 1 for the last
    vertex, with 2**L the least power of two that is at least m - 1; find the
    segment by scanning them in order and interpolate."""
    m = len(vertices)
    if m == 1:
        return vertices[0]
    level = 0
    while (1 << level) < m - 1:
        level += 1
    ts = [F(j, 1 << level) for j in range(m - 1)] + [F(1)]
    j = 0
    while j < m - 2 and ts[j + 1] <= t:
        j += 1
    lam = (t - ts[j]) / (ts[j + 1] - ts[j])
    (x0, y0), (x1, y1) = vertices[j], vertices[j + 1]
    return (x0 + lam * (x1 - x0), y0 + lam * (y1 - y0))


coords = st.builds(F, st.integers(-50, 50), st.integers(1, 9))
params = st.one_of(
    st.builds(lambda j, e: F(j % ((1 << e) + 1), 1 << e), st.integers(0, 1 << 10), st.integers(0, 10)),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


@pytest.mark.parametrize("m", (1, 2, 6, 9))
@given(data=st.data())
def test_eval_rational_matches_linear_search(m, data):
    vertices = tuple(data.draw(st.tuples(coords, coords)) for _ in range(m))
    for t in (F(0), F(1), data.draw(params)):
        assert eval_rational(Polyline(vertices), t) == _linear_search(vertices, t)

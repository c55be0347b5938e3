"""Partitions on one integer grid, checked against Python's own sets of
Fractions, and polyline evaluation on the vertex grid against a linear
search over the vertex parameters."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pathvar.core.partitions import Partition, merge_partitions
from pathvar.core.paths import Polyline, eval_rational

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

"""Path kinds: exact evaluation, vertex partitions, JSON wire format."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pathvar.core.chords import polyline_length
from pathvar.core.partitions import Partition, merge_partitions
from pathvar.core.paths import (
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    as_polyline,
    eval_rational,
    path_from_json,
    path_to_json,
)
from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import DomainError
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.variation import Direction, directional_variation_on_partition

F = Fraction


def test_sawtooth_values_scale_one():
    s = SawtoothGraph(1)
    assert eval_rational(s, F(0)) == (0, 0)
    assert eval_rational(s, F(1, 4)) == (F(1, 4), F(1, 4))
    assert eval_rational(s, F(1, 2)) == (F(1, 2), 0)
    assert eval_rational(s, F(1, 8)) == (F(1, 8), F(1, 8))
    assert eval_rational(s, F(1)) == (1, 0)


@given(st.integers(min_value=0, max_value=10), st.fractions(min_value=0, max_value=1))
def test_sawtooth_peak_height(n, t):
    _, y = eval_rational(SawtoothGraph(n), t)
    assert 0 <= y <= F(1, 1 << (n + 1))
    # peaks are attained at odd multiples of 2**-(n+1)
    peak_t = F(1, 1 << (n + 1))
    assert eval_rational(SawtoothGraph(n), peak_t)[1] == peak_t


def test_sawtooth_polyline_vertices():
    pl = as_polyline(SawtoothGraph(1))
    assert pl.vertices == (
        (F(0), F(0)),
        (F(1, 4), F(1, 4)),
        (F(1, 2), F(0)),
        (F(3, 4), F(1, 4)),
        (F(1), F(0)),
    )
    assert len(as_polyline(SawtoothGraph(2)).vertices) == 9


def test_sawtooth_vertex_cap():
    # describing a fine sawtooth builds nothing; reading its corners does
    s = SawtoothGraph(40)
    assert repr(s) == "SawtoothGraph(n=40)"
    assert path_to_json(s) == '{"kind": "sawtooth", "n": 40}'
    assert as_polyline(s) is s
    with pytest.raises(ResourceError):
        s.vertices


def test_mixture_rules():
    assert SawtoothMixture((0, 0, 1)).active_scale() == 3
    assert SawtoothMixture(()).active_scale() is None
    with pytest.raises(ValueError):
        SawtoothMixture((1, 1))
    with pytest.raises(ValueError):
        SawtoothMixture((0, 2))
    # a scale or a bit is an int: a float scale once ended in a TypeError
    # from the corner shift, and a boolean was read as 0 or 1
    for bad in (2.5, True, -1):
        with pytest.raises(ValueError):
            SawtoothGraph(bad)
    with pytest.raises(ValueError):
        SawtoothMixture((True,))
    flat = as_polyline(SawtoothMixture(()))
    assert flat.vertices == ((F(0), F(0)), (F(1), F(0)))
    assert SawtoothMixture((0, 1)).vertices == SawtoothGraph(2).vertices


def test_constructors_refuse_booleans():
    # a boolean is not a coordinate, a Lipschitz constant or a coefficient,
    # though Fraction(True) would read it as 1
    for build in (
        lambda: Polyline(((0, 0), (True, 0))),
        lambda: SampledGraph(((0, 0), (1, 0)), True),
        lambda: RationalPoly([True]),
    ):
        with pytest.raises(ValueError):
            build()


def test_vertex_partition_non_power_of_two_count():
    # 6 vertices -> level 3: params j/8 for j < 5, then a long last cell to 1
    pl = Polyline(tuple((F(j), F(0)) for j in range(6)))
    assert pl.vertex_partition == Partition([F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(1)])
    assert eval_rational(pl, F(1)) == (F(5), F(0))
    assert eval_rational(pl, F(3, 4)) == (F(4) + F(1, 2), F(0))  # halfway along the last cell


def test_polyline_interpolation_is_exact():
    pl = Polyline(((F(0), F(0)), (F(1), F(2))))
    assert eval_rational(pl, F(1, 3)) == (F(1, 3), F(2, 3))


def test_polynomial_evaluation():
    p = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))
    assert eval_rational(p, F(2, 3)) == (F(2, 3), F(4, 9))


def test_sampled_graph_known_only_at_samples():
    g = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    assert eval_rational(g, F(1, 2)) == (F(1, 2), F(1, 4))
    assert eval_rational(g, F(1, 3)) is None


def test_sampled_graph_chords_need_sample_points():
    g = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    # on the sample partition the chords are exact: 2 * sqrt(1/4 + 1/16)
    rt5_half = F("1.1180339887498948482045868343656381177203091798058")
    assert polyline_length(g, Partition.uniform(2), -60).contains(rt5_half)
    v = directional_variation_on_partition(g, Partition.uniform(2), Direction.from_vector(0, 1))
    assert v.is_point() and v.lo == F(1, 2)
    # 1/4 falls between samples, where the graph is not known
    with pytest.raises(DomainError):
        polyline_length(g, Partition.uniform(4), -60)
    for d in (Direction.from_vector(0, 1), Direction.from_theta_pi(F(1, 3))):
        with pytest.raises(DomainError):
            directional_variation_on_partition(g, Partition.uniform(4), d)


def test_sampled_graph_validation():
    with pytest.raises(ValueError):
        SampledGraph(((F(0), F(0)), (F(1), F(2))), F(1))  # violates Lipschitz
    with pytest.raises(ValueError):
        SampledGraph(((F(0), F(0)), (F(1, 2), F(0))), F(1))  # must end at 1
    with pytest.raises(ValueError):
        SampledGraph(((F(0), F(0)), (F(0), F(0)), (F(1), F(0))), F(1))


def test_canonical_partitions():
    # a polyline's canonical partition is its vertex partition
    assert SawtoothGraph(2).vertex_partition == Partition.uniform(8)
    pl = Polyline(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))))
    assert pl.vertex_partition == Partition.uniform(2)
    assert Polyline(((F(1), F(2)),)).vertex_partition == Partition.trivial()


def test_partition_merge_and_refines():
    a = Partition.uniform(2)
    b = Partition.uniform(4)
    assert set(a.params) <= set(b.params)
    assert not set(b.params) <= set(a.params)
    m = merge_partitions(a, Partition([Dyadic(0), Dyadic(3, -2), Dyadic(1)]))
    assert [p for p in m] == [0, F(1, 2), F(3, 4), 1]


def test_json_round_trip_all_kinds():
    paths = [
        Polyline(((F(0), F(0)), (F(1, 3), F(2)), (F(1), F(0)))),
        PolynomialPath(RationalPoly([0, 1]), RationalPoly([F(1, 7), 0, 2])),
        SampledGraph(((F(0), F(1)), (F(1), F(1, 2))), F(1)),
        SawtoothGraph(4),
        SawtoothMixture((0, 1, 0)),
    ]
    for p in paths:
        assert path_from_json(path_to_json(p)) == p


def test_json_reads_decimals_and_ratios_exactly():
    p = path_from_json('{"kind": "polyline", "vertices": [[0, 0], ["1/3", 0.1], [1, 1]]}')
    assert p.vertices[1] == (F(1, 3), F(1, 10))  # 0.1 is the decimal, not the float


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        path_from_json('{"kind": "circle"}')
    with pytest.raises(ValueError):
        path_from_json('{"kind": "sawtooth", "n": "three"}')
    with pytest.raises(ValueError):
        path_from_json('{"kind": "polyline", "vertices": [[true, 0], [1, 1]]}')


def test_sawtooth_aliasing_on_coarse_partition():
    # sampling f_3 on the 2-cell uniform grid sees only zeros: length 1
    pl = as_polyline(SawtoothGraph(3))
    iv = polyline_length(pl, Partition.uniform(2), -60)
    assert iv.contains(F(1)) and iv.width() <= Dyadic(1, -50)


def test_polyline_length_unit_square_loop():
    sq = Polyline(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(0), F(0))))
    iv = polyline_length(sq, sq.vertex_partition, -60)
    assert iv.contains(F(4)) and iv.width() <= Dyadic(1, -50)

"""The chord builder and the two integer chord kernels.

Chords are runs of integer pairs over a common denominator.  The kernels
are checked against 80-digit mpmath sums taken straight from the Fraction
vertices, and every builder route against differences of eval_rational,
the independent Fraction evaluation of the path.
"""

import copy
import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import contains

from pathvar.core import chords
from pathvar.core.chords import chord_deltas_exact, chord_length
from pathvar.core.partitions import Partition
from pathvar.core.paths import (
    RUN_BITS,
    SAWTOOTH_VERTEX_CAP,
    Chords,
    Polyline,
    PolynomialPath,
    ResourceError,
    Run,
    SawtoothGraph,
    SawtoothMixture,
    chords_through,
    eval_rational,
    numerators_over,
    path_to_json,
)
from pathvar.counterexamples import sawtooth, tilt
from pathvar.numerics.interval import Interval
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.oracles import PolynomialVariationOracle
from pathvar.rectify import Verdict, certified_length, certified_variation, variation_order_decide
from pathvar.variation import Direction, chord_variation

F = Fraction

DPS = 80
SLACK = mpmath.mpf(10) ** -70  # far above mpmath's own error at 80 digits
RT2 = F("1.4142135623730950488016887242096980785696718753769")

# coordinates with the non-dyadic denominators 3, 5, 7 and 10
coords = st.builds(F, st.integers(-40, 40), st.sampled_from((3, 5, 7, 10)))
polylines = st.lists(st.tuples(coords, coords), min_size=2, max_size=12).map(
    lambda vs: Polyline(tuple(vs))
)
precisions = st.integers(-90, -20)
rays = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda w: w != (0, 0))
angles = st.one_of(
    st.tuples(st.just("pi"), st.builds(F, st.integers(1, 23), st.integers(2, 24))),
    st.tuples(st.just("rad"), st.builds(F, st.integers(-40, 40), st.integers(1, 10))),
)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_deltas(path: Polyline):
    vs = path.vertices
    return [(_mp(x1 - x0), _mp(y1 - y0)) for (x0, y0), (x1, y1) in zip(vs, vs[1:])]


def _encloses(iv, ref) -> bool:
    return _mp(iv.lo) - SLACK <= ref <= _mp(iv.hi) + SLACK


# -- kernels against mpmath ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polylines, precisions)
def test_chord_length_encloses_mpmath_hypot_sum(path, prec):
    ch = chord_deltas_exact(path, path.vertex_partition)
    iv = chord_length(ch, prec)
    with mpmath.workdps(DPS):
        ref = sum(mpmath.hypot(dx, dy) for dx, dy in _mp_deltas(path))
        assert _encloses(iv, ref)
    assert iv.width() <= F(2) ** prec


@settings(max_examples=60, deadline=None)
@given(polylines, rays, precisions)
def test_chord_variation_encloses_mpmath_sum_along_rays(path, w, prec):
    ch = chord_deltas_exact(path, path.vertex_partition)
    iv = chord_variation(ch, Direction.from_vector(*w), prec)
    with mpmath.workdps(DPS):
        norm = mpmath.hypot(*w)
        ref = sum(abs(w[0] * dx + w[1] * dy) for dx, dy in _mp_deltas(path)) / norm
        assert _encloses(iv, ref)
    # both quotient bounds are rounded out to the 2**(prec-1) grid and
    # straddle at most one of its points, so every ray stays within 2**prec
    assert iv.width() <= F(2) ** prec


@settings(max_examples=60, deadline=None)
@given(polylines, angles, precisions)
def test_chord_variation_encloses_mpmath_sum_along_angles(path, angle, prec):
    kind, q = angle
    d = Direction.from_theta_pi(q) if kind == "pi" else Direction.from_radians(q)
    ch = chord_deltas_exact(path, path.vertex_partition)
    iv = chord_variation(ch, d, prec)
    with mpmath.workdps(DPS):
        theta = mpmath.pi * _mp(q) if kind == "pi" else _mp(q)
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        ref = sum(abs(c * dx + s * dy) for dx, dy in _mp_deltas(path))
        assert _encloses(iv, ref)
    assert iv.width() <= F(2) ** prec


# -- builder routes against eval_rational ----------------------------------------------


def _as_fractions(ch):
    # each run unrolled: its period taken run.repeat times
    return [
        (F(dx, run.den), F(dy, run.den))
        for run in ch.runs
        for _ in range(run.repeat)
        for dx, dy in zip(run.dx, run.dy)
    ]


def _eval_differences(path, partition):
    pts = [eval_rational(path, p) for p in partition]
    return [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]


coeffs = st.builds(F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 5, 7, 10, 12)))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(coeffs, min_size=1, max_size=6),
    st.lists(coeffs, min_size=1, max_size=6),
    st.integers(0, 10),
)
def test_forward_differences_match_horner(xc, yc, k):
    # degrees 0..5 each, drawn apart, so x and y usually differ in degree
    path = PolynomialPath(RationalPoly(xc), RationalPoly(yc))
    part = Partition.uniform(1 << k)
    assert _as_fractions(chord_deltas_exact(path, part)) == _eval_differences(path, part)


@pytest.mark.parametrize("k", range(11))
def test_forward_differences_degree_five_against_line(k):
    # x of degree 5 with non-dyadic coefficients, y of degree 1
    path = PolynomialPath(
        RationalPoly([F(1, 3), F(-2, 7), F(5, 6), F(-1, 10), F(3, 5), F(-4, 9)]),
        RationalPoly([F(2, 5), F(7, 3)]),
    )
    part = Partition.uniform(1 << k)
    assert _as_fractions(chord_deltas_exact(path, part)) == _eval_differences(path, part)


dyadic_partitions = st.lists(st.integers(1, 255), max_size=20).map(
    lambda js: Partition([F(0)] + sorted(F(j, 256) for j in set(js)) + [F(1)])
)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 9), dyadic_partitions)
def test_sawtooth_chords_match_evaluation(n, part):
    # the teeth are a polyline, so the reference is the closed form
    # f_n(t) = 2**-n * min_k |2**n t - k| rather than the polyline's own
    # interpolation; a mixture with bit n set is the scale-n sawtooth, and
    # with none set the flat segment
    def f(m, t):
        if m is None:
            return F(0)
        u = t * 2**m
        return min(u - math.floor(u), math.ceil(u) - u) / 2**m

    ts = list(part)
    mixture = SawtoothMixture((0,) * (n - 1) + (1,) if n else (0, 0))
    for path, m in ((SawtoothGraph(n), n), (mixture, n or None)):
        ys = [f(m, t) for t in ts]
        expected = [(t1 - t0, y1 - y0) for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:])]
        assert _as_fractions(chord_deltas_exact(path, part)) == expected


def test_other_partitions_evaluate_each_point():
    path = Polyline(((F(0), F(0)), (F(1, 3), F(2, 7)), (F(1), F(5, 3))))
    part = Partition([F(0), F(1, 8), F(5, 16), F(1, 2), F(1)])
    assert _as_fractions(chord_deltas_exact(path, part)) == _eval_differences(path, part)
    # a non-uniform partition of a polynomial path
    poly = PolynomialPath(RationalPoly([0, F(1, 3)]), RationalPoly([F(1, 5), 0, F(2, 7)]))
    assert _as_fractions(chord_deltas_exact(poly, part)) == _eval_differences(poly, part)


# -- runs ------------------------------------------------------------------------------

# 40-bit denominators, almost always coprime in pairs, so that one common
# denominator for a whole polyline would grow about 80 bits a vertex
wide_coords = st.builds(F, st.integers(-(2**41), 2**41), st.integers(2**40, 2**41))
wide_polylines = st.lists(st.tuples(wide_coords, wide_coords), min_size=2, max_size=24).map(
    lambda vs: Polyline(tuple(vs))
)


def _prime_polyline(count: int) -> Polyline:
    """Vertices whose coordinates have distinct prime denominators from 1009
    on: one common denominator would grow about 20 bits a vertex, so the
    chords split into many runs."""
    odd = range(1009, 1009 + 40 * count, 2)
    primes = [p for p in odd if all(p % k for k in range(3, math.isqrt(p) + 1, 2))][:count]
    return Polyline(tuple((F(i, primes[i]), F(i % 3, primes[-1 - i])) for i in range(count)))


def _one_run(points) -> Chords:
    den = math.lcm(*(c.denominator for p in points for c in p))
    xs = numerators_over((x for x, _ in points), den)
    ys = numerators_over((y for _, y in points), den)
    steps = [b - a for a, b in zip(xs, xs[1:])], [b - a for a, b in zip(ys, ys[1:])]
    return Chords((Run(*steps, den),))


def test_shared_denominators_make_one_run():
    zigzag = Polyline(((F(0), F(0)), (F(1, 3), F(2, 5)), (F(5, 7), F(1, 10)), (F(1), F(1))))
    for path in (zigzag, sawtooth(6), tilt(sawtooth(4))):
        ch = chord_deltas_exact(path, path.vertex_partition)
        assert len(ch.runs) == 1 and len(ch) == len(path.vertices) - 1


@settings(max_examples=40, deadline=None)
@given(wide_polylines, rays, angles, precisions)
@example(_prime_polyline(1000), (3, 4), ("pi", F(1, 3)), -60)
def test_runs_change_no_enclosure(path, w, angle, prec):
    # splitting the chords into runs leaves every enclosure bit-identical to
    # the one over a single common denominator, however many runs there are
    # and in whatever order the kernels add their run sums
    ch = chords_through(path.vertices)
    assert _as_fractions(ch) == _eval_differences(path, path.vertex_partition)
    for run in ch.runs:
        assert len(run.dx) == 1 or run.den.bit_length() <= RUN_BITS
    whole = _one_run(path.vertices)
    kind, q = angle
    theta = Direction.from_theta_pi(q) if kind == "pi" else Direction.from_radians(q)
    ends = lambda iv: (iv.lo, iv.hi)  # noqa: E731
    assert ends(chord_length(ch, prec)) == ends(chord_length(whole, prec))
    for d in (Direction.from_vector(*w), theta):
        assert ends(chord_variation(ch, d, prec)) == ends(chord_variation(whole, d, prec))
    with mpmath.workdps(DPS):
        assert _encloses(chord_length(ch, prec), sum(mpmath.hypot(*c) for c in _mp_deltas(path)))
        # each variation encloses its sum of |cos t dx + sin t dy| as well
        norm = mpmath.hypot(*w)
        t = mpmath.pi * _mp(q) if kind == "pi" else _mp(q)
        for d, (c, s) in (
            (Direction.from_vector(*w), (w[0] / norm, w[1] / norm)),
            (theta, (mpmath.cos(t), mpmath.sin(t))),
        ):
            ref = sum(abs(c * dx + s * dy) for dx, dy in _mp_deltas(path))
            assert _encloses(chord_variation(ch, d, prec), ref)


def test_variation_builds_no_fraction_a_run(monkeypatch):
    # every chord is rounded onto one integer grid and the grid sums are
    # divided once, so the Fractions the kernel builds do not grow with the
    # number of runs
    import pathvar.variation as variation

    built = []

    def counting(*args):
        built.append(args)
        return F(*args)

    counts = []
    directions = (Direction.from_vector(3, 4), Direction.from_theta_pi(F(1, 3)))
    for path in (_prime_polyline(300), _prime_polyline(3000)):
        ch = chord_deltas_exact(path, path.vertex_partition)
        built.clear()
        monkeypatch.setattr(variation, "Fraction", counting)
        for d in directions:
            chord_variation(ch, d, -60)
        monkeypatch.undo()
        counts.append((len(ch.runs), len(built)))
    (few, built_few), (many, built_many) = counts
    assert many > 5 * few and built_many == built_few


def test_angle_queries_read_no_dyadic_view(monkeypatch):
    # an angle is snapped and its gap and slack charged on integers: once
    # the trig memo holds its components (trig's argument reduction still
    # reads views), an angle query reads no Dyadic view of any Interval
    parabola = PolynomialVariationOracle(PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1])))
    polyline = _prime_polyline(300)
    queries = (
        lambda: parabola.achieve_variation(Direction.from_theta_pi(F(1, 3)), F(1, 10**9)),
        lambda: certified_variation(polyline, Direction.from_radians(F(5, 3)), F(1, 10**9)),
    )
    for query in queries:
        query()
    reads = []

    def counted(name, view):
        return lambda iv: reads.append(name) or view(iv)

    for name in ("lo", "hi"):
        monkeypatch.setattr(Interval, name, property(counted(name, getattr(Interval, name).fget)))
    for name in ("width", "mid"):
        monkeypatch.setattr(Interval, name, counted(name, getattr(Interval, name)))
    for query in queries:
        query()
    assert reads == []
    Interval.on_grid(1, 3, 0).mid()
    assert reads == ["mid"]  # the wrappers count


def test_distinct_prime_denominators_stay_short():
    # vertex denominators 1009, 1013, ...: one common denominator for the
    # polyline would be about 3,300 bits long, each run's is at most RUN_BITS
    path = _prime_polyline(300)
    verts = path.vertices
    ch = chord_deltas_exact(path, path.vertex_partition)
    assert len(ch) == 299 and len(ch.runs) > 10
    assert all(run.den.bit_length() <= RUN_BITS for run in ch.runs)
    assert _as_fractions(ch) == [(b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:])]


# -- the exact routes evaluate nothing -------------------------------------------------


def test_exact_routes_are_evaluation_free(monkeypatch):
    # vertex partitions, a sawtooth's and a mixture's teeth among them, and
    # uniform polynomial partitions build their chords from integers alone,
    # without evaluating a point, forming a partition point as a Fraction or
    # reading a polynomial's Fraction coefficients
    def refuse(*args, **kwargs):
        raise AssertionError("chord endpoint evaluated")

    monkeypatch.setattr(chords, "eval_rational", refuse)
    monkeypatch.setattr(RationalPoly, "__call__", refuse)
    monkeypatch.setattr(RationalPoly, "coeffs", property(refuse))
    monkeypatch.setattr(Partition, "params", property(refuse))
    eps = F(1, 10**9)
    zigzag = Polyline(((F(0), F(0)), (F(1, 3), F(1, 3)), (F(2, 3), F(0)), (F(1), F(1, 3))))
    for path in (zigzag, tilt(sawtooth(3)), sawtooth(5), SawtoothMixture((0, 0, 0, 1))):
        assert certified_length(path, eps).value.width() <= eps
        vertical = certified_variation(path, Direction.from_vector(0, 1), eps)
        angled = certified_variation(path, Direction.from_theta_pi(F(1, 3)), eps)
        assert vertical.value.width() <= eps and angled.value.width() <= eps
        verdict = variation_order_decide(path, Direction.from_vector(0, 1), F(1, 2), F(3, 5))
        assert verdict is Verdict.GREATER_THAN_A
    assert contains(certified_length(SawtoothGraph(5), eps).value, RT2)
    parabola = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))
    cert = certified_length(parabola, F(1, 10**6))
    assert contains(cert.value, F("1.478942857544597433827906019433914435071697430595"))


# -- vertex chords, built once per path ------------------------------------------------


def _fill(path):
    eps = F(1, 10**9)
    return (
        certified_length(path, eps),
        certified_variation(path, Direction.from_vector(2, -3), eps),
        certified_variation(path, Direction.from_theta_pi(F(2, 7)), eps),
    )


def _ends(certs):
    return [(c.value.lo, c.value.hi) for c in certs]


def test_vertex_chords_are_cached_and_immutable():
    zigzag = Polyline(((F(0), F(0)), (F(1, 3), F(2, 5)), (F(5, 7), F(1, 10)), (F(1), F(1))))
    for path, twin in (
        (zigzag, Polyline(zigzag.vertices)),
        (SawtoothGraph(5), SawtoothGraph(5)),
        (SawtoothMixture((0, 1)), SawtoothMixture((0, 1))),
        (SawtoothMixture(()), SawtoothMixture(())),
    ):
        seen = (repr(path), hash(path), path_to_json(path))
        certs = _fill(path)
        ch = chord_deltas_exact(path, path.vertex_partition)
        assert chord_deltas_exact(path, path.vertex_partition) is ch
        assert isinstance(ch.runs, tuple)
        assert all(type(run.dx) is tuple and type(run.dy) is tuple for run in ch.runs)
        # the caches live beside the fields: equality, hashing, repr and
        # the JSON spelling see the description alone
        assert (repr(path), hash(path), path_to_json(path)) == seen
        assert path == twin and hash(path) == hash(twin)
        for clone in (copy.copy(path), copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
            assert clone == path and hash(clone) == hash(path)
            assert _ends(_fill(clone)) == _ends(certs)


def _teeth():
    yield from (SawtoothGraph(n) for n in range(11))
    yield from (SawtoothMixture(tuple(int(i == j) for i in range(10))) for j in range(10))
    yield SawtoothMixture((0,) * 10)


@pytest.mark.parametrize("path", list(_teeth()), ids=repr)
def test_sawtooth_period_run_matches_its_corners(path, monkeypatch):
    # the one integer run of a sawtooth or a mixture, built from the scale
    # alone, against differences of eval_rational at the vertex parameters,
    # and its certificates against those of the plain polyline through the
    # same corners, whose chords chords_through builds from the Fractions;
    # the angle is snapped within the same gap, which the chords' mass sets
    asked = []
    snap = Direction.rational_approx
    monkeypatch.setattr(Direction, "rational_approx", lambda d, gap: asked.append(gap) or snap(d, gap))
    certs = _fill(path)
    (run,) = chord_deltas_exact(path, path.vertex_partition).runs
    assert "vertices" not in path.__dict__  # no corner was built
    assert _as_fractions(Chords((run,))) == _eval_differences(path, path.vertex_partition)
    plain = Polyline(path.vertices)
    assert len(chords_through(plain.vertices).runs) == 1
    teeth_asked = asked[:]
    del asked[:]
    assert _ends(certs) == _ends(_fill(plain)) and asked == teeth_asked != []


def test_teeth_past_the_cap_build_nothing():
    # the vertex cap is checked from the scale alone, before any shift, on
    # every route that sizes the teeth
    for path in (SawtoothGraph(10**11), SawtoothMixture((0,) * 10**5 + (1,))):
        for read in (
            lambda: path.vertices,
            lambda: path.vertex_partition,
            lambda: path.vertex_chords,
            lambda: certified_length(path, F(1, 10**9)),
        ):
            with pytest.raises(ResourceError, match=str(SAWTOOTH_VERTEX_CAP)):
                read()

"""Directional variation over partitions, directions, and the two-direction
length bound.

Reference identity used throughout: for an exact ray w and exact chords,
v_{w,P} = sum_i |<w, delta_i>| / |w|, so small cases have closed forms.
"""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TrivialPartitionOracle, child_env, contains, is_point, pair_min_oracle

from pathvar import variation
from pathvar.core import chords as chord_kernels
from pathvar.core.chords import Chords, Run
from pathvar.core.paths import Polyline, PolynomialPath, SampledGraph, SawtoothGraph, as_polyline
from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import DomainError, Interval
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.numerics.trig import pi_enclosure, sin_enclosure
from pathvar.oracles import PolynomialVariationOracle, sampled_bracket, sampled_length_bracket
from pathvar.rectify import certified_length, certified_variation, variation_profile
from pathvar.variation import (
    Direction,
    _sector_sum,
    _sector_view,
    chord_variation,
    directional_variation_on_partition,
    length_upper_bound,
    scale_interval,
    two_direction_length_bound,
)

F = Fraction

RT2_HALF = F("0.70710678118654752440084436210484903928483593768847")  # sqrt(2)/2
RT2 = 2 * RT2_HALF


def test_direction_constructors_and_exact_rays():
    d = Direction.from_vector(3, 4)
    assert d.exact_ray() == (3, 4)
    assert Direction.from_theta_pi(0).exact_ray() == (1, 0)
    assert Direction.from_theta_pi(F(1, 2)).exact_ray() == (0, 1)
    assert Direction.from_theta_pi(F(3, 2)).exact_ray() == (0, 1)  # mod 1
    assert Direction.from_radians(0).exact_ray() == (1, 0)
    assert Direction.from_theta_pi(F(1, 3)).exact_ray() is None
    with pytest.raises(DomainError):
        Direction.from_vector(0, 0)


def test_a_ray_is_its_two_components():
    # the norm of a raw ray comes from (wx, wy) alone: along (0, 1) the
    # graph through (1/2, 1/4) rises and falls by 1/4, and a Lipschitz
    # constant of 1 allows up to 1 more, whatever else the caller passes
    graph = SampledGraph(((0, 0), (F(1, 2), F(1, 4)), (1, 0)), 1)
    cert = certified_variation(graph, Direction(ray=(0, 1)), F(1, 100))
    assert (cert.value.lo, cert.value.hi) == (F(1, 2), 1)
    assert Direction(ray=(3, 4)).describe() == Direction.from_vector(3, 4).describe() == "vector(3,4)"
    with pytest.raises(TypeError, match="a Direction needs a ray or an angle"):
        Direction()


def test_the_constructor_reads_a_ray_or_an_angle():
    # along (1, 2) the chords (1, 1) and (1, -1) of the roof give
    # (3 + 1) / sqrt(5), and along pi/3 (1 + sqrt 3) / 2 + (sqrt 3 - 1) / 2
    roof = Polyline(((0, 0), (1, 1), (2, 0)))
    for d, square in (
        (Direction(ray=(0.5, 1)), F(16, 5)),
        (Direction(ray=("1", "2")), F(16, 5)),
        (Direction(angle=("1/3", True)), 3),
    ):
        v = certified_variation(roof, d, F(1, 100)).value
        assert v.lo >= 0 and v.lo ** 2 <= square <= v.hi ** 2, d.describe()
    # an int is kept as it is: the direction net builds one ray of ints a node
    assert [type(w) for w in Direction(ray=(3, F(1, 2))).exact_ray()] == [int, F]
    for make, error, message in (
        (lambda: Direction(ray=(1, 2, 3)), ValueError, "ray or angle must be a pair"),
        (lambda: Direction(ray=5), ValueError, "ray or angle must be a pair"),
        (lambda: Direction(angle=(F(1, 3),)), ValueError, "ray or angle must be a pair"),
        (lambda: Direction(angle=(F(1, 3), 1)), TypeError, "times_pi must be a bool"),
        (lambda: Direction(ray=(True, 1)), ValueError, "booleans are not numbers"),
        (lambda: Direction(ray=(0, 0.0)), DomainError, "zero vector has no direction"),
        (lambda: Direction(ray=(1, 0), angle=(0, True)), TypeError, "not both"),
    ):
        with pytest.raises(error, match=message):
            make()


ZERO_RAY = """
from pathvar import Direction, Polyline, certified_variation
from pathvar.numerics.interval import DomainError, norm_enclosure
for call in (lambda: norm_enclosure(0, -64),
             lambda: certified_variation(Polyline(((0, 0), (1, 1), (2, 0))), Direction(ray=(0, 0)), 0.01)):
    try:
        call()
    except DomainError as e:
        assert str(e) == "zero vector has no direction", e
    else:
        raise AssertionError("a zero ray was answered")
"""


def test_a_zero_ray_is_refused_at_once():
    # no grid resolves the root of 0, so the norm of a zero ray is refused
    # before any grid is tried; a child process with a timeout keeps a
    # search that never ends from holding up the suite
    proc = subprocess.run(
        [sys.executable, "-c", ZERO_RAY], capture_output=True, env=child_env(), text=True, timeout=10
    )
    assert proc.returncode == 0, proc.stderr


def test_radians_reduction_mod_pi():
    # components of a radian angle enclose one of the line's unit vectors,
    # +-(cos x, sin x), even when x is many multiples of pi
    for x in (F(10), F(10**12) + F(1, 7)):
        cx, cy = Direction.from_radians(x).components(-60)
        assert cx.width() <= Dyadic(1, -56) and cy.width() <= Dyadic(1, -56)
        with mpmath.workdps(60):
            xm = mpmath.mpf(x.numerator) / x.denominator
            c, s = F(mpmath.nstr(mpmath.cos(xm), 50)), F(mpmath.nstr(mpmath.sin(xm), 50))
        assert any(contains(cx, sign * c) and contains(cy, sign * s) for sign in (1, -1)), x


def test_components_are_unit_norm():
    for d in (
        Direction.from_vector(3, 4),
        Direction.from_theta_pi(F(2, 7)),
        Direction.from_radians(F(5, 3)),
    ):
        cx, cy = d.components(-60)
        lo = cx.lo ** 2 + cy.lo ** 2
        hi = cx.hi ** 2 + cy.hi ** 2
        lo, hi = min(lo, hi), max(lo, hi)
        assert lo <= 1 + F(1, 1 << 50)
        assert hi >= 1 - F(1, 1 << 50)


def test_rational_approx_gap():
    d = Direction.from_theta_pi(F(1, 3))
    wx, wy, gap = d.rational_approx(F(1, 1 << 40))
    assert gap <= F(1, 1 << 40)
    # the returned ray must be within gap of the true angle pi/3
    n2 = wx * wx + wy * wy
    cos_true, sin_true = F(1, 2), F("0.86602540378443864676372317075293618347140262690519")
    dot = wx * cos_true + wy * sin_true
    cross = abs(wx * sin_true - wy * cos_true)
    assert dot > 0
    # |sin(angle gap)| <= gap, and cross/|w| = |sin gap| up to sin_true rounding
    assert cross * cross <= 2 * gap * gap * n2


def test_exact_ray_gap_is_zero():
    wx, wy, gap = Direction.from_vector(-7, 24).rational_approx(F(1, 10**30))
    assert (wx, wy, gap) == (-7, 24, 0)


def _line_gap(a, b, theta):
    """mpmath's angle between the line through (a, b) and the line at theta."""
    d = mpmath.atan2(b, a) - theta
    d -= mpmath.pi * mpmath.floor(d / mpmath.pi)
    return min(d, mpmath.pi - d)


@pytest.mark.parametrize(
    "d, theta",
    [
        (Direction.from_theta_pi(F(1, 3)), lambda: mpmath.pi / 3),
        (Direction.from_theta_pi(F(2, 7)), lambda: 2 * mpmath.pi / 7),
        (Direction.from_theta_pi(F(-5, 97)), lambda: -5 * mpmath.pi / 97),
        (Direction.from_radians(F(5, 3)), lambda: mpmath.mpf(5) / 3),
        (Direction.from_radians(F(-7, 2)), lambda: mpmath.mpf(-7) / 2),
        (Direction.from_radians(F(10**6) + F(1, 7)), lambda: 10**6 + mpmath.mpf(1) / 7),
    ],
    ids=["pi/3", "2pi/7", "-5pi/97", "5/3", "-7/2", "1e6+1/7"],
)
def test_angle_snaps_to_an_integer_ray_within_its_gap(d, theta):
    # on every snap grid from the first, 2**-56, down to 2**-1080, the one
    # test_angle_on_huge_coordinates_finishes needs: an integer ray, not both
    # components even, whose line mpmath puts within the certified gap of theta
    with mpmath.workdps(400):
        th = theta()
        for budget in (F(1, 1 << 20), F(1, 1 << 45), F(1, 1 << 200), F(3, 1 << 1051)):
            a, b, gap = d.rational_approx(budget)
            assert 0 < gap <= budget
            assert type(a) is int and type(b) is int and (a | b) & 1
            assert _line_gap(a, b, th) <= _mp(gap), budget


def test_snap_gap_covers_a_lopsided_enclosure(monkeypatch):
    # the gap is certified from the enclosures alone, so it must cover the
    # line wherever it sits in them: here the sine's enclosure is 128 steps
    # wide with sin(pi/5) at its lower end, which puts the ray through the
    # midpoints about 50 steps off the line, and the cosine's is 1 step wide
    with mpmath.workdps(60):
        th = mpmath.pi / 5
        c, s = mpmath.cos(th), mpmath.sin(th)

        def lopsided(self, exp):
            kc, ks = (int(mpmath.floor(v * mpmath.mpf(2) ** -exp)) for v in (c, s))
            return Interval.on_grid(kc, kc + 1, exp), Interval.on_grid(ks, ks + 128, exp)

        monkeypatch.setattr(Direction, "components", lopsided)
        a, b, gap = Direction.from_theta_pi(F(1, 5)).rational_approx(F(1, 1 << 40))
        assert gap == F(4 * 128, 1 << 56)
        assert _line_gap(a, b, th) <= _mp(gap)


def test_describe_forms():
    assert Direction.from_vector(1, 2).describe() == "vector(1,2)"
    assert Direction.from_theta_pi(F(1, 3)).describe() == "1/3*pi"
    assert Direction.from_radians(F(7, 5)).describe() == "radians(7/5)"


# -- directional variation ------------------------------------------------------


def test_sawtooth_vertical_variation_exact():
    s = SawtoothGraph(3)
    part = s.vertex_partition
    v = directional_variation_on_partition(s, part, Direction.from_theta_pi(F(1, 2)), -60)
    assert is_point(v) and v.lo == 1


def test_sawtooth_horizontal_variation_exact():
    s = SawtoothGraph(2)
    part = s.vertex_partition
    v = directional_variation_on_partition(s, part, Direction.from_theta_pi(0), -60)
    assert is_point(v) and v.lo == 1


def test_diagonal_variation_of_sawtooth_one():
    # chords alternate (1/4, 1/4) and (1/4, -1/4); against w = (1,1)/sqrt(2)
    # the inner products are 1/2, 0, 1/2, 0 -> v = 1/sqrt(2)... divided: 1/2*2/sqrt2
    s = SawtoothGraph(1)
    part = s.vertex_partition
    v = directional_variation_on_partition(s, part, Direction.from_vector(1, 1), -70)
    assert contains(v, RT2_HALF)
    assert v.width() <= Dyadic(1, -64)


def test_variation_against_pi_frac_matches_ray():
    # theta = pi/4 equals the (1,1) ray direction
    s = SawtoothGraph(1)
    part = s.vertex_partition
    v_ray = directional_variation_on_partition(s, part, Direction.from_vector(1, 1), -60)
    v_ang = directional_variation_on_partition(s, part, Direction.from_theta_pi(F(1, 4)), -60)
    assert contains(v_ang, RT2_HALF)
    assert v_ray.lo <= v_ang.hi and v_ang.lo <= v_ray.hi  # overlap


def test_square_loop_variations():
    sq = Polyline(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(0), F(0))))
    part = sq.vertex_partition
    v0 = directional_variation_on_partition(sq, part, Direction.from_theta_pi(0), -60)
    assert is_point(v0) and v0.lo == 2
    # four unit chords, each projecting to 1/sqrt(2): v = 4/sqrt(2) = 2*sqrt(2)
    v_diag = directional_variation_on_partition(sq, part, Direction.from_vector(1, 1), -60)
    assert contains(v_diag, 2 * RT2)
    assert v_diag.width() <= Dyadic(1, -55)


def test_variation_scale_invariance_of_ray():
    s = SawtoothGraph(2)
    part = s.vertex_partition
    a = directional_variation_on_partition(s, part, Direction.from_vector(1, 2), -60)
    b = directional_variation_on_partition(s, part, Direction.from_vector(F(1, 3), F(2, 3)), -60)
    assert a.lo == b.lo and a.hi == b.hi


def test_profile_endpoints_agree_and_thetas_increase():
    s = SawtoothGraph(3)
    eps = F(1, 10**6)
    rows = variation_profile(s, 8, eps)
    assert len(rows) == 9
    # endpoint rows both describe the horizontal direction: equal variation
    first, last = rows[0][1].value, rows[-1][1].value
    assert first.lo == last.lo and first.hi == last.hi
    for (ta, _), (tb, _) in zip(rows, rows[1:]):
        assert ta.lo < tb.hi
    assert contains(rows[-1][0], pi_enclosure(-80).lo)
    # 16 chords (1/16, +-1/16), half of each sign: v = (|c + s| + |c - s|) / 2
    with mpmath.workdps(40):
        for j, (theta, row) in enumerate(rows):
            v = row.value
            c, sn = mpmath.cos(mpmath.pi * j / 8), mpmath.sin(mpmath.pi * j / 8)
            ref = F(mpmath.nstr((abs(c + sn) + abs(c - sn)) / 2, 35))
            assert v.lo - F(1, 10**30) <= ref <= v.hi + F(1, 10**30), j
            assert v.width() <= eps
            # each row is the certificate the library gives for that direction
            cert = certified_variation(s, Direction.from_theta_pi(F(j, 8)), eps)
            assert (v.lo, v.hi) == (cert.value.lo, cert.value.hi)
            assert row.kind is cert.kind
    with pytest.raises(ValueError):
        variation_profile(s, 0, eps)


# -- short rays and coarse grids ------------------------------------------------------

ZIGZAG = Polyline(((F(0), F(0)), (F(1), F(1)), (F(2), F(0)), (F(3), F(5))))


@pytest.mark.parametrize(
    "w, total",
    [((F(1, 2**40), F(1, 2**41)), 11), ((F(1, 10**20), F(2, 10**20)), 15)],
    ids=("2^-40", "1e-20"),
)
def test_short_ray_enclosure_meets_precision(w, total):
    # |w|**2 far below 1: the norm root must be refined by the bits it lacks
    d = Direction.from_vector(*w)
    v = directional_variation_on_partition(ZIGZAG, ZIGZAG.vertex_partition, d, -60)
    assert v.width() <= Dyadic(1, -58)
    # chords (1, 1), (1, -1), (1, 5) along (2, 1) sum to 3 + 1 + 7 = 11,
    # along (1, 2) to 3 + 1 + 11 = 15; |(2, 1)| = |(1, 2)| = sqrt(5)
    with mpmath.workdps(40):
        ref = total / mpmath.sqrt(5)
        assert _mp(v.lo) <= ref <= _mp(v.hi)


def test_short_ray_certificate_contains_exact_value():
    d = Direction.from_vector(F(1, 2**40), F(1, 2**41))
    cert = certified_variation(ZIGZAG, d, F(1, 10**9))
    with mpmath.workdps(40):
        ref = 11 / mpmath.sqrt(5)
        assert _mp(cert.value.lo) <= ref <= _mp(cert.value.hi)


def test_coarse_precision_enclosure_terminates():
    # a grid of 2**8 is coarser than the norm root of (1, 1); the root's own
    # grid must still be refined until it resolves sqrt(2)
    part = ZIGZAG.vertex_partition
    v = directional_variation_on_partition(ZIGZAG, part, Direction.from_vector(1, 1), 8)
    assert contains(v, F(12) / RT2)  # (2 + 0 + 6) / sqrt(2) = 4 sqrt(2)
    assert v.width() <= Dyadic(1, 10)


# -- angle enclosures on huge chords ----------------------------------------------

HUGE = Polyline(((F(0), F(0)), (F(2**200), F(1)), (F(0), F(2))))


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize(
    "d, theta",
    [
        (Direction.from_theta_pi(F(1, 3)), lambda: mpmath.pi / 3),
        (Direction.from_radians(F(1, 4)), lambda: mpmath.mpf(1) / 4),
    ],
    ids=("pi/3", "1/4 radian"),
)
def test_angle_enclosure_meets_precision_on_huge_chords(d, theta):
    # chords (2**200, 1) and (-2**200, 1): the snapped ray must resolve the
    # angle to about 2**-265 for the enclosure to be 2**-60 wide
    v = directional_variation_on_partition(HUGE, HUGE.vertex_partition, d, -60)
    assert v.width() <= Dyadic(1, -60)
    with mpmath.workdps(120):
        c, sn = mpmath.cos(theta()), mpmath.sin(theta())
        ref = sum(abs(c * dx + sn * dy) for dx, dy in ((2**200, 1), (-(2**200), 1)))
        slack = mpmath.mpf(2) ** 200 * mpmath.mpf(10) ** -110  # mpmath's own error
        assert _mp(v.lo) - slack <= ref <= _mp(v.hi) + slack


@pytest.mark.parametrize("side", (1, -1))
def test_snap_error_is_charged_to_the_enclosure(monkeypatch, side):
    # rational_approx may return any ray within its certified gap; a ray
    # nine tenths of the gap away must still leave the true value enclosed.
    # Along theta = pi/97 the chord (0, 1) moves v = sin(theta) at nearly the
    # full rate of its mass, 1 per radian.
    def far_ray(self, max_gap):
        with mpmath.workdps(80):
            th = mpmath.pi / 97 + side * mpmath.mpf(9) / 10 * _mp(max_gap)
            return F(mpmath.nstr(mpmath.cos(th), 70)), F(mpmath.nstr(mpmath.sin(th), 70)), max_gap

    monkeypatch.setattr(Direction, "rational_approx", far_ray)
    up = Chords((Run([0], [1], 1),))
    with mpmath.workdps(80):
        ref = mpmath.sin(mpmath.pi / 97)
        for prec in range(-60, -80, -1):
            v = chord_variation(up, Direction.from_theta_pi(F(1, 97)), prec)
            assert v.width() <= Dyadic(1, prec)
            assert _mp(v.lo) <= ref <= _mp(v.hi), prec


# -- cosine-form cross-check ------------------------------------------------------


def test_inner_product_form_matches_cosine_form():
    # v_theta = sum_i |cos(theta - phi_i)| * len_i for chords at angles phi_i.
    # For the scale-1 sawtooth at theta = pi/3 this collapses to the closed
    # form 2 * (cos(pi/12) + cos(5*pi/12)) * sqrt(2)/4 = sqrt(3)/2.
    from pathvar.numerics.dyadic import sqrt_down, sqrt_up

    s = as_polyline(SawtoothGraph(1))
    part = s.vertex_partition
    v = directional_variation_on_partition(s, part, Direction.from_theta_pi(F(1, 3)), -70)
    ref = Interval(sqrt_down(F(3, 4), -100), sqrt_up(F(3, 4), -100))
    assert v.lo <= ref.lo and ref.hi <= v.hi
    mpmath.mp.dps = 40
    cosine_form = (
        2
        * (abs(mpmath.cos(mpmath.pi / 12)) + abs(mpmath.cos(5 * mpmath.pi / 12)))
        * mpmath.sqrt(2)
        / 4
    )
    assert abs(cosine_form - mpmath.sqrt(3) / 2) < mpmath.mpf(10) ** -35


# -- sector views ---------------------------------------------------------------------


@st.composite
def sector_runs(draw):
    """A run of integer chords: a few base vectors, each taken one to three
    times scaled by -2..2 (parallel, antiparallel and zero chords), in any
    order; numerators of 3 to 1,100 bits, and at times a pair of chords
    whose float sort keys tie; a dyadic den or not, taken one to three times."""
    bits = draw(st.sampled_from((3, 20, 64, 1100)))
    coord = st.integers(-(1 << bits), 1 << bits)
    bases = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    if draw(st.booleans()):  # one float sort key, two exact directions
        bases += [(1 << 60, 1), ((1 << 60) + 1, 1)]
    chords = [(m * x, m * y) for x, y in bases for m in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))]
    chords = draw(st.permutations(chords))
    den = draw(st.sampled_from((1, 2, 16, 1 << 70, 3, 48, 10**9 + 7)))
    return Run(tuple(x for x, _ in chords), tuple(y for _, y in chords), den, draw(st.integers(1, 3)))


@st.composite
def sector_cases(draw):
    """A run and a ray: a small integer one, a 66-bit one as a snapped angle
    gives, or one normal to a chord of the run, where the sign boundary falls."""
    run = draw(sector_runs())
    kind = draw(st.sampled_from(("small", "snapped", "normal")))
    if kind == "normal":
        i, k = draw(st.integers(0, len(run.dx) - 1)), draw(st.sampled_from((1, -1, 3)))
        a, b = -run.dy[i] * k, run.dx[i] * k
    else:
        n = 1 << (66 if kind == "snapped" else 4)
        a, b = draw(st.integers(-n, n)), draw(st.integers(-n, n))
    return run, ((a, b) if a or b else (1, 0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sector_cases())
@example((Run((5,), (-3,), 16), (3, 5)))  # one chord, normal to the ray
@example((Run((0, 0), (0, 0), 2, 3), (1, 1)))  # zero chords only
def test_sector_lookup_is_the_per_chord_sum(case):
    run, (a, b) = case
    assert _sector_sum(_sector_view(run), a, b) == sum(abs(a * x + b * y) for x, y in zip(run.dx, run.dy))
    # through the kernel: every read of one chord set, along a ray or an
    # angle, gives what the per-chord pass of a first read gives
    kept = Chords((run,))
    for d in [Direction.from_vector(a, b), Direction.from_theta_pi(F(2, 7))] * 2:
        got, want = chord_variation(kept, d), chord_variation(Chords((run,)), d)
        assert (got.lo, got.hi) == (want.lo, want.hi)
    # a view only where den is a power of two
    assert kept.sectors == ((_sector_view(run),) if not run.den & (run.den - 1) else (None,))


def test_view_rows_contain_the_cosine_form():
    # a 2,049-vertex polyline on the 1/16 grid: after its first query every
    # row is read from the view, and each contains sum_i l_i |cos(t - t_i)|
    rng = random.Random(2049)
    steps = [(F(rng.randint(-16, 16), 16), F(rng.randint(-16, 16), 16)) for _ in range(2048)]
    vertices = list(zip(accumulate((x for x, _ in steps), initial=F(0)), accumulate((y for _, y in steps), initial=F(0))))
    path = Polyline(tuple(vertices))
    eps = F(1, 10**12)
    with mpmath.workdps(50):
        polar = [(mpmath.hypot(_mp(x), _mp(y)), mpmath.atan2(_mp(y), _mp(x))) for x, y in steps]
        cases = [(Direction.from_vector(*w), mpmath.atan2(w[1], w[0])) for w in ((3, 4), (1, -7), (0, 1))]
        cases += [(Direction.from_theta_pi(q), mpmath.pi * _mp(q)) for q in (F(1, 3), F(5, 7), F(-9, 10))]
        cases += [(Direction.from_radians(x), _mp(x)) for x in (F(1), F(5, 2))]
        for i, (d, theta) in enumerate(cases):
            cert = certified_variation(path, d, eps)
            assert (path.vertex_chords.sectors is False) == (i == 0)
            ref = sum(l * abs(mpmath.cos(theta - t)) for l, t in polar)
            slack = mpmath.mpf(10) ** -40
            assert _mp(cert.value.lo) - slack <= ref <= _mp(cert.value.hi) + slack, d.describe()
            assert cert.value.width() <= eps


def test_a_view_is_built_on_the_second_query_of_a_chord_set(monkeypatch):
    path = Polyline(((0, 0), (F(1, 2), F(3, 4)), (1, F(-1, 8)), (F(3, 2), 0)))
    certified_variation(path, Direction.from_vector(1, 2), F(1, 10**6))
    assert path.vertex_chords.sectors is False
    certified_variation(path, Direction.from_theta_pi(F(1, 3)), F(1, 10**6))
    (view,) = path.vertex_chords.sectors
    assert view == _sector_view(path.vertex_chords.runs[0])
    # a polynomial path's partitions and a sampled graph's samples make a
    # fresh chord set on every call, read once: none builds a view
    built = []
    monkeypatch.setattr(variation, "_sector_view", built.append)
    oracle = PolynomialVariationOracle(PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1])))
    graph = SampledGraph(((0, 0), (F(1, 2), F(1, 4)), (1, 0)), 1)
    for d in [Direction.from_vector(1, 2), Direction.from_theta_pi(F(1, 3))] * 2:
        oracle.achieve_variation(d, F(1, 10**6))
        sampled_bracket(graph, d)
    assert built == []


def test_a_norm_view_is_built_on_the_second_length_read_of_a_chord_set(monkeypatch):
    # the chords (4, 6), (4, -7) and (-6, 4) over 8: two norms, one twice
    path = Polyline(((0, 0), (F(1, 2), F(3, 4)), (1, F(-1, 8)), (F(1, 4), F(3, 8))))
    certified_length(path, F(1, 10**6))
    assert path.vertex_chords.norms is False
    certified_length(path, F(1, 10**6))
    (view,) = path.vertex_chords.norms
    assert view == chord_kernels._norm_view(path.vertex_chords.runs[0]) == ((52, 65), (2, 1))
    # a polynomial path's witness mesh and net-walk partitions and a sampled
    # graph's samples make a fresh chord set on every call: none builds a view
    built = []
    monkeypatch.setattr(chord_kernels, "_norm_view", built.append)
    parabola = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))
    graph = SampledGraph(((0, 0), (F(1, 2), F(1, 4)), (1, 0)), 1)
    for _ in range(2):
        certified_length(parabola, F(1, 10**4))
        certified_length(parabola, F(1, 20), use_uniform_witness=False)
        sampled_length_bracket(graph)
    assert built == []


def test_a_run_off_the_dyadic_grid_keeps_the_per_chord_pass(monkeypatch):
    # along (1, 0) the chords (1/3, 0) three times and (1/4, 1/4), (-1/4, 3/4)
    # add up to 3/2; each third rounds down and up on the unit grid, so every
    # read, the view's of the den-4 run included, is 3/2 -+ 2**-61 at
    # precision -60, where one rounding of the thirds' exact sum would give 3/2
    dens = []
    grid_sums = variation.grid_sums
    monkeypatch.setattr(variation, "grid_sums", lambda values, den, s: dens.append(den) or grid_sums(values, den, s))
    chords = Chords((Run((1, 1, 1), (0, 0, 0), 3), Run((1, -1), (1, 3), 4)))
    d = Direction.from_vector(1, 0)
    reads = [chord_variation(chords, d, -60) for _ in range(3)]
    assert [(v.lo, v.hi) for v in reads] == [(F(3, 2) - F(1, 2**61), F(3, 2) + F(1, 2**61))] * 3
    # the thirds chord by chord on every read; the den-4 run only on the first
    assert dens == [3, 4, 3, 3]
    assert chords.sectors[0] is None and chords.sectors[1] is not None


# -- two-direction bound ----------------------------------------------------------


def test_pair_min_at_right_angle_is_one():
    half_pi = pi_enclosure(-64) * F(1, 2)
    m = pair_min_oracle(half_pi, F(1, 1 << 16))
    assert contains(m, F(1))
    assert m.width() <= F(1, 1 << 14)
    r = two_direction_length_bound(half_pi)
    assert contains(r, F(1)) and contains(m * r, F(1))


def test_pair_min_matches_sine():
    # c(gamma) = sin(gamma) for gamma in (0, pi/2]
    mpmath.mp.dps = 40
    pi = pi_enclosure(-64)
    for num, den in ((1, 3), (1, 4), (2, 5)):
        gamma = scale_interval(pi, F(num, den), -64)
        m = pair_min_oracle(gamma, F(1, 1 << 18))
        ref = F(mpmath.nstr(mpmath.sin(mpmath.pi * num / den), 30))
        assert contains(m, ref), (num, den)
        assert m.width() <= F(1, 1 << 16)
        # the closed form is the reciprocal of that same minimum
        r = two_direction_length_bound(gamma, F(1, 1 << 18))
        assert contains(r, 1 / ref), (num, den)
        assert contains(m * r, F(1)), (num, den)


def test_pair_min_rejects_degenerate_gap():
    for gamma in (Interval(0, 0), pi_enclosure(-64)):
        with pytest.raises(DomainError):
            pair_min_oracle(gamma, F(1, 1 << 10))
        with pytest.raises(DomainError):
            two_direction_length_bound(gamma)


def test_two_direction_length_bound_refuses_a_sine_enclosure_at_zero():
    # gamma = 2**-100 lies inside (0, pi), but its sine rounds out to
    # [-2**-48, 2**-48] on the working grid, which has no reciprocal
    tiny = Interval(F(1, 1 << 100), F(1, 1 << 100))
    assert sin_enclosure(tiny, -48).lo < 0
    with pytest.raises(DomainError, match="reaches 0"):
        two_direction_length_bound(tiny)


def test_two_direction_length_bound_value():
    # r(pi/3) = 1/sin(pi/3) = 2/sqrt(3), frozen
    pi = pi_enclosure(-64)
    r = two_direction_length_bound(scale_interval(pi, F(1, 3), -64), F(1, 1 << 18))
    assert contains(r, F("1.1547005383792515290182975610039149112952035025403"))


def test_length_upper_bound_contains_true_length():
    from pathvar.oracles import PolylineOracle

    seg = Polyline(((F(0), F(0)), (F(1), F(0))))
    ub = length_upper_bound(seg, PolylineOracle(seg))
    assert ub.hi >= 1
    assert ub.hi <= 4  # r(pi/2) = 1, v0 + v1 = 1 + small slack
    s = as_polyline(SawtoothGraph(1))
    ub2 = length_upper_bound(s, PolylineOracle(s))
    assert ub2.hi >= RT2  # true length sqrt(2)


def test_length_upper_bound_charges_the_oracle_slack():
    # the axis variations the oracle encloses sum to 1 + 0, below the length
    # 2 sqrt(1/4 + 2**-18); only the slack the two calls may leave lifts the
    # bound over it
    oracle = TrivialPartitionOracle()
    bound = length_upper_bound(oracle.path, oracle)
    with mpmath.workdps(50):
        assert _mp(bound.hi) >= 2 * mpmath.sqrt(mpmath.mpf(1) / 4 + mpmath.mpf(2) ** -18)

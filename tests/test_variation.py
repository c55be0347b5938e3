"""Directional variation over partitions, directions, and the two-direction
length bound.

Reference identity used throughout: for an exact ray w and exact chords,
v_{w,P} = sum_i |<w, delta_i>| / |w|, so small cases have closed forms.
"""

from fractions import Fraction

import mpmath
import pytest

from conftest import pair_min_oracle

from pathvar.core.paths import Polyline, SawtoothGraph, as_polyline, canonical_partition
from pathvar.numerics.dyadic import Dyadic
from pathvar.numerics.interval import DomainError, Interval
from pathvar.numerics.trig import pi_enclosure
from pathvar.rectify import certified_variation, variation_profile
from pathvar.variation import (
    Direction,
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
    assert d.exact_ray() == (3, 4, 25)
    assert Direction.from_theta_pi(0).exact_ray() == (1, 0, 1)
    assert Direction.from_theta_pi(F(1, 2)).exact_ray() == (0, 1, 1)
    assert Direction.from_theta_pi(F(3, 2)).exact_ray() == (0, 1, 1)  # mod 1
    assert Direction.from_radians(0).exact_ray() == (1, 0, 1)
    assert Direction.from_theta_pi(F(1, 3)).exact_ray() is None
    with pytest.raises(DomainError):
        Direction.from_vector(0, 0)


def test_radians_reduction_mod_pi():
    # components of a radian angle enclose one of the line's unit vectors,
    # +-(cos x, sin x), even when x is many multiples of pi
    for x in (F(10), F(10**12) + F(1, 7)):
        cx, cy = Direction.from_radians(x).components(-60)
        assert cx.width() <= Dyadic(1, -56) and cy.width() <= Dyadic(1, -56)
        with mpmath.workdps(60):
            xm = mpmath.mpf(x.numerator) / x.denominator
            c, s = F(mpmath.nstr(mpmath.cos(xm), 50)), F(mpmath.nstr(mpmath.sin(xm), 50))
        assert any(cx.contains(sign * c) and cy.contains(sign * s) for sign in (1, -1)), x


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


def test_describe_forms():
    assert Direction.from_vector(1, 2).describe() == "vector(1,2)"
    assert Direction.from_theta_pi(F(1, 3)).describe() == "1/3*pi"
    assert Direction.from_radians(F(7, 5)).describe() == "radians(7/5)"


# -- directional variation ------------------------------------------------------


def test_sawtooth_vertical_variation_exact():
    s = SawtoothGraph(3)
    part = canonical_partition(s)
    v = directional_variation_on_partition(s, part, Direction.from_theta_pi(F(1, 2)), -60)
    assert v.is_point() and v.lo == 1


def test_sawtooth_horizontal_variation_exact():
    s = SawtoothGraph(2)
    part = canonical_partition(s)
    v = directional_variation_on_partition(s, part, Direction.from_theta_pi(0), -60)
    assert v.is_point() and v.lo == 1


def test_diagonal_variation_of_sawtooth_one():
    # chords alternate (1/4, 1/4) and (1/4, -1/4); against w = (1,1)/sqrt(2)
    # the inner products are 1/2, 0, 1/2, 0 -> v = 1/sqrt(2)... divided: 1/2*2/sqrt2
    s = SawtoothGraph(1)
    part = canonical_partition(s)
    v = directional_variation_on_partition(s, part, Direction.from_vector(1, 1), -70)
    assert v.contains(RT2_HALF)
    assert v.width() <= Dyadic(1, -64)


def test_variation_against_pi_frac_matches_ray():
    # theta = pi/4 equals the (1,1) ray direction
    s = SawtoothGraph(1)
    part = canonical_partition(s)
    v_ray = directional_variation_on_partition(s, part, Direction.from_vector(1, 1), -60)
    v_ang = directional_variation_on_partition(s, part, Direction.from_theta_pi(F(1, 4)), -60)
    assert v_ang.contains(RT2_HALF)
    assert v_ray.lo <= v_ang.hi and v_ang.lo <= v_ray.hi  # overlap


def test_square_loop_variations():
    sq = Polyline(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(0), F(0))))
    part = canonical_partition(sq)
    v0 = directional_variation_on_partition(sq, part, Direction.from_theta_pi(0), -60)
    assert v0.is_point() and v0.lo == 2
    # four unit chords, each projecting to 1/sqrt(2): v = 4/sqrt(2) = 2*sqrt(2)
    v_diag = directional_variation_on_partition(sq, part, Direction.from_vector(1, 1), -60)
    assert v_diag.contains(2 * RT2)
    assert v_diag.width() <= Dyadic(1, -55)


def test_variation_scale_invariance_of_ray():
    s = SawtoothGraph(2)
    part = canonical_partition(s)
    a = directional_variation_on_partition(s, part, Direction.from_vector(1, 2), -60)
    b = directional_variation_on_partition(s, part, Direction.from_vector(F(1, 3), F(2, 3)), -60)
    assert a.lo == b.lo and a.hi == b.hi


def test_profile_endpoints_agree_and_thetas_increase():
    s = SawtoothGraph(3)
    eps = F(1, 10**6)
    rows = variation_profile(s, 8, eps)
    assert len(rows) == 9
    # endpoint rows both describe the horizontal direction: equal variation
    assert rows[0][1].lo == rows[-1][1].lo and rows[0][1].hi == rows[-1][1].hi
    for (ta, _), (tb, _) in zip(rows, rows[1:]):
        assert ta.lo < tb.hi
    assert rows[-1][0].contains(pi_enclosure(-80).lo)
    # 16 chords (1/16, +-1/16), half of each sign: v = (|c + s| + |c - s|) / 2
    with mpmath.workdps(40):
        for j, (theta, v) in enumerate(rows):
            c, sn = mpmath.cos(mpmath.pi * j / 8), mpmath.sin(mpmath.pi * j / 8)
            ref = F(mpmath.nstr((abs(c + sn) + abs(c - sn)) / 2, 35))
            assert v.lo - F(1, 10**30) <= ref <= v.hi + F(1, 10**30), j
            assert v.width() <= eps
            # each row is the certificate the library gives for that direction
            cert = certified_variation(s, Direction.from_theta_pi(F(j, 8)), eps)
            assert (v.lo, v.hi) == (cert.value.lo, cert.value.hi)
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
    v = directional_variation_on_partition(ZIGZAG, canonical_partition(ZIGZAG), d, -60)
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
    part = canonical_partition(ZIGZAG)
    v = directional_variation_on_partition(ZIGZAG, part, Direction.from_vector(1, 1), 8)
    assert v.contains(F(12) / RT2)  # (2 + 0 + 6) / sqrt(2) = 4 sqrt(2)
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
    v = directional_variation_on_partition(HUGE, canonical_partition(HUGE), d, -60)
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
    with mpmath.workdps(80):
        ref = mpmath.sin(mpmath.pi / 97)
        for prec in range(-60, -80, -1):
            v = chord_variation([(F(0), F(1))], Direction.from_theta_pi(F(1, 97)), prec)
            assert v.width() <= Dyadic(1, prec)
            assert _mp(v.lo) <= ref <= _mp(v.hi), prec


# -- cosine-form cross-check ------------------------------------------------------


def test_inner_product_form_matches_cosine_form():
    # v_theta = sum_i |cos(theta - phi_i)| * len_i for chords at angles phi_i.
    # For the scale-1 sawtooth at theta = pi/3 this collapses to the closed
    # form 2 * (cos(pi/12) + cos(5*pi/12)) * sqrt(2)/4 = sqrt(3)/2.
    from pathvar.numerics.dyadic import sqrt_down, sqrt_up

    s = as_polyline(SawtoothGraph(1))
    part = canonical_partition(s)
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


# -- two-direction bound ----------------------------------------------------------


def test_pair_min_at_right_angle_is_one():
    half_pi = pi_enclosure(-64) * F(1, 2)
    m = pair_min_oracle(half_pi, F(1, 1 << 16))
    assert m.contains(F(1))
    assert m.width() <= F(1, 1 << 14)
    r = two_direction_length_bound(half_pi)
    assert r.contains(F(1)) and (m * r).contains(F(1))


def test_pair_min_matches_sine():
    # c(gamma) = sin(gamma) for gamma in (0, pi/2]
    mpmath.mp.dps = 40
    pi = pi_enclosure(-64)
    for num, den in ((1, 3), (1, 4), (2, 5)):
        gamma = scale_interval(pi, F(num, den), -64)
        m = pair_min_oracle(gamma, F(1, 1 << 18))
        ref = F(mpmath.nstr(mpmath.sin(mpmath.pi * num / den), 30))
        assert m.contains(ref), (num, den)
        assert m.width() <= F(1, 1 << 16)
        # the closed form is the reciprocal of that same minimum
        r = two_direction_length_bound(gamma, F(1, 1 << 18))
        assert r.contains(1 / ref), (num, den)
        assert (m * r).contains(F(1)), (num, den)


def test_pair_min_rejects_degenerate_gap():
    for gamma in (Interval.point(0), pi_enclosure(-64)):
        with pytest.raises(DomainError):
            pair_min_oracle(gamma, F(1, 1 << 10))
        with pytest.raises(DomainError):
            two_direction_length_bound(gamma)


def test_two_direction_length_bound_value():
    # r(pi/3) = 1/sin(pi/3) = 2/sqrt(3), frozen
    pi = pi_enclosure(-64)
    r = two_direction_length_bound(scale_interval(pi, F(1, 3), -64), F(1, 1 << 18))
    assert r.contains(F("1.1547005383792515290182975610039149112952035025403"))


def test_length_upper_bound_contains_true_length():
    from pathvar.oracles import PolylineOracle

    seg = Polyline(((F(0), F(0)), (F(1), F(0))))
    ub = length_upper_bound(seg, PolylineOracle(seg))
    assert ub.hi >= 1
    assert ub.hi <= 4  # r(pi/2) = 1, v0 + v1 = 1 + small slack
    s = as_polyline(SawtoothGraph(1))
    ub2 = length_upper_bound(s, PolylineOracle(s))
    assert ub2.hi >= RT2  # true length sqrt(2)

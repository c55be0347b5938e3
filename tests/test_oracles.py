"""Variation oracles: exact polyline fixtures, polynomial critical points,
uniform witnesses, and the honest sampled-graph brackets."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import contains, is_point

from pathvar.core.certificates import CertKind
from pathvar.core.chords import polyline_length
from pathvar.core.partitions import Partition
from pathvar.core.paths import (
    PolynomialPath,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    as_polyline,
)
from pathvar.numerics import ratpoly
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.oracles import (
    ISOLATION_FLOOR_BITS,
    PolylineOracle,
    PolynomialVariationOracle,
    sampled_bracket,
    sampled_length_bracket,
    variation_oracle_for,
)
from pathvar.numerics.dyadic import sqrt_down
from pathvar.numerics.interval import DomainError
from pathvar.numerics.trig import pi_enclosure
from pathvar.rectify import CroftonLengthOracle, build_direction_net, certified_variation, crofton_partition
from pathvar.variation import Direction, directional_variation_on_partition, length_upper_bound

F = Fraction

PARABOLA = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))


def test_polyline_oracle_defect_zero_any_eps():
    pl = as_polyline(SawtoothGraph(2))
    oracle = PolylineOracle(pl)
    d = Direction.from_vector(0, 1)
    for eps in (F(1, 10), F(1, 10**6), F(1, 10**12)):
        part, v = oracle.achieve_variation(d, eps)
        assert part == oracle.partition  # tolerance never changes the answer
        assert is_point(v) and v.lo == 1
    part, l = oracle.achieve_length(F(1, 1000))
    rt2 = F("1.4142135623730950488016887242096980785696718753769")
    assert contains(l, rt2)


@pytest.mark.parametrize("eps", [-1, 0, "x"])
def test_every_path_oracle_reads_its_tolerance(eps):
    # a vertex partition needs no tolerance, but its oracle refuses a bad
    # one as the others do, rather than answer a defect "at most" -1
    oracles = (PolylineOracle(as_polyline(SawtoothGraph(2))), PolynomialVariationOracle(PARABOLA),
               CroftonLengthOracle(PARABOLA))
    for oracle in oracles:
        with pytest.raises(ValueError):
            oracle.uniform_witness(eps)
    with pytest.raises(ValueError):
        oracles[0].witness_length(eps, -60)


def test_polyline_oracle_rejects_other_kinds():
    with pytest.raises(TypeError):
        PolylineOracle(PARABOLA)


def test_parabola_vertical_variation_is_one():
    # y(t) = t^2 rises monotonically: v_(0,1) = 1 with the trivial partition
    oracle = PolynomialVariationOracle(PARABOLA)
    part, v = oracle.achieve_variation(Direction.from_vector(0, 1), F(1, 1000))
    assert list(p for p in part) == [0, 1]
    assert contains(v, F(1))
    assert v.width() <= F(1, 1000)


def test_parabola_antidiagonal_variation():
    # r(t) = t - t^2 has one interior critical point at 1/2 with r = 1/4:
    # sup_P v_P = (2 * 1/4) / sqrt(2) = 1/(2 sqrt 2).  The oracle's partition
    # brackets the peak, so its value sits within eps below that supremum.
    oracle = PolynomialVariationOracle(PARABOLA)
    eps = F(1, 10**6)
    part, v = oracle.achieve_variation(Direction.from_vector(1, -1), eps)
    ref = F("0.35355339059327376220042218105242451964241796884424")
    assert v.hi <= ref + F(1, 1 << 50)  # never exceeds the sup
    assert v.lo >= ref - eps  # defect within tolerance
    assert any(p not in (0, 1) for p in part)


def test_critical_point_refinement_reaches_fine_tolerances():
    # along (1, -3) the parabola's projection (t - 3t^2)/sqrt 10 peaks at
    # t = 1/6, so its variation is 13/(6 sqrt 10): the enclosure [lo, hi]
    # holds it exactly when lo^2 <= 169/360 <= hi^2.  Interval Horner bounds
    # shrink only linearly, so 2**-1300 needs isolating widths near 2**-1300.
    d = Direction.from_vector(1, -3)
    for bits in (900, 1300):
        v = certified_variation(PARABOLA, d, F(1, 1 << bits)).value
        assert 0 <= v.lo and v.lo**2 <= F(169, 360) <= v.hi**2
        assert v.width() <= F(1, 1 << bits)
    # a tolerance finer than the isolation floor stops there, naming it
    with pytest.raises(ResourceError, match=f"isolation width floor of 2\\*\\*-{ISOLATION_FLOOR_BITS}"):
        PolynomialVariationOracle(PARABOLA).variation_partition(d, F(1, 1 << (ISOLATION_FLOOR_BITS + 100)))


def test_parabola_snapped_direction():
    # pi/3 has no rational ray; the oracle snaps and still meets eps
    mpmath.mp.dps = 40
    oracle = PolynomialVariationOracle(PARABOLA)
    eps = F(1, 10**6)
    part, v = oracle.achieve_variation(Direction.from_theta_pi(F(1, 3)), eps)
    # projection r = cos(pi/3) t + sin(pi/3) t^2 increases on [0,1]:
    # v = r(1) - r(0) = 1/2 + sqrt(3)/2
    ref = F(1, 2) + F(mpmath.nstr(mpmath.sqrt(3) / 2, 35))
    assert v.lo <= ref + F(1, 10**30)
    assert v.hi >= ref - F(1, 10**30)
    assert v.width() <= 2 * eps


def _strip(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a, b):
    """Quotient and remainder of Fraction polynomials, lowest first, b's top
    coefficient nonzero."""
    a, quot = [F(c) for c in a], [F(0)] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(quot))):
        c = quot[k] = a[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
    return quot, _strip(a[: len(b) - 1])


def _square_free(p):
    """p / gcd(p, p') scaled to integers, for an integer polynomial p of
    degree >= 1: each root of p once, where mpmath's polyroots converges
    (it does not at a multiple root)."""
    a, b = [F(c) for c in p], _strip([F(i * c) for i, c in enumerate(p)][1:])
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    quot = _poly_divmod(p, a)[0]
    den = math.lcm(*(c.denominator for c in quot))
    return [int(c * den) for c in quot]


def _mpmath_variation(xs, ys, wx, wy):
    """v_w of (x, y) over [0, 1] for integer coefficient lists and an integer
    ray: the projection r = wx x + wy y is monotone between the real roots of
    r' in (0, 1), found by mpmath polyroots on the square-free part of r' for
    an integer ray, so v_w is the sum of |r(t_i+1) - r(t_i)| over them and
    the ends, over |w|."""
    xs, ys = xs + [0] * (len(ys) - len(xs)), ys + [0] * (len(xs) - len(ys))
    rc = [wx * a + wy * b for a, b in zip(xs, ys)]
    dr = _strip([i * c for i, c in enumerate(rc)][1:])
    if len(dr) > 1 and all(isinstance(c, int) for c in dr):
        dr = _square_free(dr)
    with mpmath.workdps(50):
        roots = mpmath.polyroots(dr[::-1], maxsteps=400, extraprec=400) if len(dr) > 1 else []
        tiny = mpmath.mpf(10) ** -30
        ts = sorted(min(max(z.real, 0), 1) for z in map(mpmath.mpc, roots)
                    if abs(z.imag) < tiny and -tiny < z.real < 1 + tiny)
        r = [mpmath.polyval(rc[::-1], t) for t in [mpmath.mpf(0), *ts, mpmath.mpf(1)]]
        v = mpmath.fsum(abs(b - a) for a, b in zip(r, r[1:])) / mpmath.sqrt(wx * wx + wy * wy)
        return F(mpmath.nstr(v, 45))


small_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=5)  # degree <= 4
integer_rays = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda w: w != (0, 0))


@given(small_coeffs, small_coeffs, integer_rays, st.sampled_from([F(1, 10**3), F(1, 10**6), F(1, 1 << 40)]))
@example([0, 1], [0, 0, 1], (1, 1), F(1, 10**6))  # r' = 1 + 2t > 0 at both ends: monotone
@example([0, 1], [0, 0, 1], (-1, 1), F(1, 10**6))  # r' = 2t - 1: end signs differ
@example([0, 1], [0, 9, -24, 16], (0, 1), F(1, 10**6))  # r' = 3 (4t - 1)(4t - 3): > 0 at both ends, 2 roots
@example([0, 1], [0, 0, 1], (0, 1), F(1, 10**6))  # r' = 2t: a root at 0
@example([0, 1], [0, 0, 1], (2, -1), F(1, 10**6))  # r' = 2 - 2t: a root at 1
@example([0, 6, -12, 8], [0, 1], (1, 0), F(1, 10**6))  # r' = 6 (2t - 1)**2: a double root
@example([0, 0, 3], [0, -1, 0, -3, 1], (1, 1), F(1, 10**6))  # r' = (t - 1)**2 (4t - 1): a double root at 1
@example([0, 1], [0, 1], (1, -1), F(1, 10**6))  # a constant projection
@example([-1, 1], [-3, 15, -30, 30, -15, 3], (0, -1), F(1, 10**6))  # r' = -15 (t - 1)**4: a quadruple root at 1
@settings(derandomize=True, max_examples=100, deadline=None)
def test_critical_point_variation_matches_mpmath_roots(xs, ys, w, eps):
    # the partition P misses at most eps of v_w, so v_P, which the enclosure
    # holds, lies in [v - eps, v]; the enclosure may pass it only by its width
    path = PolynomialPath(RationalPoly(xs), RationalPoly(ys))
    _, v = PolynomialVariationOracle(path).achieve_variation(Direction.from_vector(*w), eps)
    ref, slack = _mpmath_variation(xs, ys, *w), v.width() + F(1, 10**40)
    assert ref - eps - slack <= v.lo and v.hi <= ref + slack


def test_net_walk_builds_sturm_chains_per_path_not_per_node(monkeypatch):
    # a path's turning cells are isolated once, on the Sturm chain of its
    # turning polynomial; no direction builds a chain of its own, so a full
    # per-node walk builds the same number of chains however many nodes its
    # net has, and a monotone projection still gets the trivial partition
    calls = []
    chain = ratpoly.sturm_chain
    monkeypatch.setattr(ratpoly, "sturm_chain", lambda p: calls.append(p) or chain(p))
    for ys in ([0, 0, 1], [0, -1, 0, 2], [0, 0, 0, 0, 1]):
        walks = []
        for eps in (F(1, 8), F(1, 40)):
            path = PolynomialPath(RationalPoly([0, 1]), RationalPoly(ys))
            calls.clear()
            _, net = crofton_partition(path, PolynomialVariationOracle(path), eps)
            walks.append((net.node_count, len(calls)))
        (small, chains), (large, again) = walks
        assert 40 < small < large and 1 <= chains == again <= 3, walks
    oracle = PolynomialVariationOracle(PARABOLA)
    for d in (Direction.from_vector(1, 1), Direction.from_vector(-1, F(1, 3)), Direction.from_vector(1, 0)):
        part, _ = oracle.achieve_variation(d, F(1, 10**9))
        assert part == Partition.trivial()
    # along (1, -3) the derivative 1 - 6t has its root at 1/6
    calls.clear()
    part, _ = oracle.achieve_variation(Direction.from_vector(1, -3), F(1, 10**9))
    assert len(part) == 4 and part.params[1] < F(1, 6) < part.params[2]
    assert calls == []


def test_monotone_node_builds_no_polynomial(monkeypatch):
    # on a path with no turning cell, a direction along which <w, alpha'>
    # has one strict sign at both ends gets the trivial partition from the
    # cached integer tangents: no projection, Horner or range is built, and
    # the tolerance is not read
    oracle = PolynomialVariationOracle(PARABOLA)
    assert len(PARABOLA.turning[3]) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial work on a monotone direction")

    for name in ("linear_combination", "horner", "range_ints"):
        monkeypatch.setattr(RationalPoly, name, refuse)
    for w in ((1, 1), (-1, F(1, 3)), (1, 0), (F(-2, 3), -1)):
        assert oracle.variation_partition(Direction.from_vector(*w), None) == Partition.trivial()


def _mpmath_angle_variation(xs, ys, theta_pi):
    with mpmath.workdps(60):
        theta = mpmath.pi * mpmath.mpf(theta_pi.numerator) / theta_pi.denominator
        return _mpmath_variation(xs, ys, mpmath.cos(theta), mpmath.sin(theta))


# paths whose turning polynomial x' y' (x' y'' - x'' y') has roots in [0, 1],
# with integer coefficients for the mpmath reference
EDGE_PATHS = {
    "endpoint-cusp": ([0, 0, 1], [0, 0, 0, 1]),  # (t^2, t^3)
    "interior-cusp": ([2, -8, 8], [-1, 6, -12, 8]),  # 8 ((t - 1/2)^2, (t - 1/2)^3)
    "inflection": ([0, 1], [0, -1, 0, 2]),  # (t, 2t^3 - t)
    "quadrant-change": ([0, 1], [0, -2, 3]),  # (t, 3t^2 - 2t): y' has its root at 1/3
    "backtracking-line": ([0, 4, -4], [0, 8, -8]),  # 4 (t - t^2) (1, 2): x' y'' - x'' y' = 0
    "fold": ([8, -32, 32], [1, -8, 24, -32, 16]),  # 64 ((t - 1/2)^2 / 2, (t - 1/2)^4 / 4)
}


@pytest.mark.parametrize("xs, ys", EDGE_PATHS.values(), ids=EDGE_PATHS.keys())
def test_turning_pieces_contain_mpmath_values(xs, ys):
    # every certificate, along rays and along angles, holds the variation
    # mpmath finds between the real roots of r'
    path = PolynomialPath(RationalPoly(xs), RationalPoly(ys))
    eps = F(1, 10**6)
    for w in ((1, 0), (0, 1), (1, -2), (3, -4), (1, -9), (2, 1), (-1, 1)):
        v = certified_variation(path, Direction.from_vector(*w), eps).value
        assert contains(v, _mpmath_variation(xs, ys, *w)) and v.width() <= eps, w
    for q in (F(1, 3), F(2, 3), F(5, 6), F(7, 12)):
        v = certified_variation(path, Direction.from_theta_pi(q), eps).value
        ref = _mpmath_angle_variation(xs, ys, q)
        assert v.lo <= ref + F(1, 10**30) and ref - F(1, 10**30) <= v.hi and v.width() <= eps, q


def test_critical_charge_is_twice_the_range():
    # along (1, -1) the projection of (t, t**8) is r = t - t**8, whose
    # interval-Horner range over [0, 1] is [0, 1], near its true range: r
    # rises to r(c) = (7/8) c at c = 8**(-1/7) and falls back to 0.  The
    # round-0 cell [0, 1] has defect 2 r(c) / sqrt 2 = 0.919..., so at
    # eps = 3/4 a charge of one range (1/sqrt 2) would stop there with the
    # trivial partition; twice the range refines, and v_P comes within eps
    xs, ys = [0, 1], [0] * 8 + [1]
    eps = F(3, 4)
    part, v = PolynomialVariationOracle(PolynomialPath(RationalPoly(xs), RationalPoly(ys))).achieve_variation(
        Direction.from_vector(1, -1), eps)
    ref = _mpmath_variation(xs, ys, 1, -1)
    assert ref > F(9, 10) and part != Partition.trivial()
    assert ref - eps <= v.lo and v.hi <= ref + v.width()


def test_zero_end_sign_is_a_critical_point():
    # on (t, 2t**3 - t) the turning polynomial has a root at 1/sqrt 6,
    # isolated in [1/4, 1/2]; along (1, -2), r' = 3 - 12 t**2 vanishes at
    # the cell's end 1/2, where r = 3t - 4t**3 peaks.  Once refinement shrinks
    # the cell, 1/2 is kept only as the exact zero at a piece's end
    xs, ys = [0, 1], [0, -1, 0, 2]
    path = PolynomialPath(RationalPoly(xs), RationalPoly(ys))
    assert path.turning[3] == ((0, 0, 1), (1, 2, 4), (1, 1, 1))
    part, v = PolynomialVariationOracle(path).achieve_variation(Direction.from_vector(1, -2), F(1, 10**6))
    ref = _mpmath_variation(xs, ys, 1, -2)  # (1 + 2) / sqrt 5
    assert F(1, 2) in part.params
    assert ref - F(1, 10**6) <= v.lo and v.hi <= ref + v.width()


@pytest.mark.parametrize("xs,ys", [([0, 1], [0, 0, 1]), ([0, 1], [0, -1, 0, 2]), ([0, 0, 1], [0, 0, 0, 1])],
                         ids=["parabola", "cubic", "cusp"])
def test_every_net_node_partition_meets_the_node_defect(xs, ys):
    # each node of the eps = 1/10 net asks for a partition within the node
    # defect tau: its v_{w,P} enclosure plus tau is at least v_w from mpmath
    path = PolynomialPath(RationalPoly(xs), RationalPoly(ys))
    oracle = PolynomialVariationOracle(path)
    eps = F(1, 10)
    net = build_direction_net(length_upper_bound(path, oracle).hi, eps)
    tau = eps / pi_enclosure(-64).hi
    for j in range(net.node_count):
        d = net.node(j)
        v = directional_variation_on_partition(path, oracle.variation_partition(d, tau), d, -80)
        assert _mpmath_variation(xs, ys, *d.exact_ray()) <= v.hi + tau, d.describe()


def _charged_bound(path: PolynomialPath, wx, wy, part: Partition) -> Fraction:
    """The variation defect bound of P along the ray w, times |w|, re-derived
    from exact root counts: r is monotone between the roots of r', so a
    cell of P holding k >= 1 roots of r' has defect at most (k + 1) times
    the range of r over it, here its interval-Horner enclosure; a Sturm
    chain of r' counts the roots in each open cell."""
    r = path.x.linear_combination(wx, path.y, wy)
    rp = r.derivative()
    chain = ratpoly.square_free_chain(rp)
    grid, total = 1 << part.k, F(0)
    for a, b in zip(part.nums, part.nums[1:]):
        k = ratpoly.sturm_count(chain, a, b, grid) - (rp.sign_at(b, grid) == 0)
        if k:
            lo, hi, s = r.range_ints(a, b, grid)
            total += (k + 1) * F(hi - lo, s)
    return total


FOLD = PolynomialPath(RationalPoly([8, -32, 32]), RationalPoly([1, -8, 24, -32, 16]))


def test_partitions_meet_their_re_derived_bound():
    # the partition along a ray meets eps |w| in the bound above.  On the
    # fold, r' has three roots along (1, -9), at 1/6, 1/2 and 5/6, inside
    # the one turning cell [0, 1]: its charge is four ranges, so at an eps
    # between two and four ranges the cell must be refined
    cases = [(PARABOLA, (1, -3)), (FOLD, (1, -9)), (FOLD, (1, 2))]
    cases += [(PolynomialPath(RationalPoly(xs), RationalPoly(ys)), w)
              for xs, ys in EDGE_PATHS.values() for w in ((1, -2), (3, -4), (1, 1))]
    lo, hi, s = FOLD.x.linear_combination(1, FOLD.y, -9).range_ints(0, 1)
    for eps in (F(3 * (hi - lo), 9 * s), F(1, 1000), F(1, 10**9)):
        for path, (wx, wy) in cases:
            part = PolynomialVariationOracle(path).variation_partition(Direction.from_vector(wx, wy), eps)
            assert _charged_bound(path, wx, wy, part) ** 2 <= eps * eps * (wx * wx + wy * wy), (path, wx, wy, eps)


def test_angle_partition_charges_the_snap_gap():
    # an angle is answered on a rational ray within gap of it, at eps less
    # two direction switches of 2 M gap each (M >= the speed bound), so the
    # partition meets eps - 4 M gap on that ray.  The parabola along 2pi/3
    # has one critical point, and at this eps its round-0 cell [0, 1] would
    # meet eps itself on the ray but not eps - 4 M gap
    d = Direction.from_theta_pi(F(2, 3))
    m = max(F(1), PARABOLA.speed_bound)
    wx, wy, gap = d.rational_approx(F(1, 1 << 45))
    n2 = wx * wx + wy * wy
    lo, hi, s = PARABOLA.x.linear_combination(wx, PARABOLA.y, wy).range_ints(0, 1)
    eps = 2 * F(hi - lo, s) / F(sqrt_down(n2, -200)) + 2 * m * gap
    assert eps / (16 * m) > F(1, 1 << 45) and gap > 0  # the snap this eps takes
    part = PolynomialVariationOracle(PARABOLA).variation_partition(d, eps)
    core = eps - 4 * m * gap
    assert _charged_bound(PARABOLA, wx, wy, part) ** 2 <= core * core * n2


def test_uniform_witness_cell_count_scales():
    # the witness certifies a length defect within its budget, and a finer
    # budget never takes a coarser mesh
    oracle = PolynomialVariationOracle(PARABOLA)
    w1, defect1 = oracle.uniform_witness(F(1, 1000))
    w2, defect2 = oracle.uniform_witness(F(1, 4000))
    assert 0 < defect1 <= F(1, 1000) and 0 < defect2 <= F(1, 4000)
    assert len(w2) >= len(w1)
    # B2 = 2, S <= 3: the sum is at least h**2 * 4 / (2 pi**2 * 3), so
    # 1e-3 needs h**2 <= 0.0148, at least 16 cells
    assert len(w1) - 1 >= 16


def test_uniform_witness_defect_bound_holds():
    # refining the witness may grow the inscribed length by its certified
    # defect at most: a much finer mesh, and the mpmath length, stay within
    # l_P + defect
    eps = F(1, 256)
    for path in (PARABOLA, PolynomialPath(RationalPoly([0, 0, 1]), RationalPoly([0, 0, 0, 1]))):
        witness, defect = PolynomialVariationOracle(path).uniform_witness(eps)
        assert defect <= eps
        l_w = polyline_length(path, witness, -70)
        l_f = polyline_length(path, Partition.uniform(1 << 12), -70)
        assert l_f.lo <= l_w.hi + defect
    # the parabola's closed form l = sqrt(5)/2 + asinh(2)/4
    witness, defect = PolynomialVariationOracle(PARABOLA).uniform_witness(eps)
    with mpmath.workdps(50):
        truth = F(mpmath.nstr(mpmath.sqrt(5) / 2 + mpmath.asinh(2) / 4, 45))
    assert polyline_length(PARABOLA, witness, -70).hi + defect >= truth


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize(
    "xs, ys, eps",
    [
        ([0, 1000], [0, 0, 1000], F(1, 1000)),
        ([0, F(1000, 3)], [0, 0, F(1000, 7)], F(1, 1000)),
        ([0, 1], [0, -1, 0, 2], F(1, 10**6)),
    ],
    ids=("scaled-parabola", "odd-denominators", "cubic"),
)
def test_witness_defect_covers_the_wirtinger_sum(xs, ys, eps):
    # the certified defect is at least sum_i c h**4 / |chord_i|, c = B2**2 /
    # (2 pi**2), recomputed in mpmath from the exact chords: with chords
    # whose integer roots are long, rounding each 1/|chord_i| down, not up,
    # falls below this sum
    path = PolynomialPath(RationalPoly(xs), RationalPoly(ys))
    part, defect = PolynomialVariationOracle(path).uniform_witness(eps)
    n = len(part) - 1
    with mpmath.workdps(60):
        points = [(path.x(F(i, n)), path.y(F(i, n))) for i in range(n + 1)]
        c = _mpf(path.bend_bound) ** 2 / (2 * mpmath.pi**2)
        h = mpmath.mpf(1) / n
        total = mpmath.fsum(
            c * h**4 / mpmath.sqrt(_mpf(d2)) if d2 else h * _mpf(path.speed_bound)
            for d2 in ((x1 - x0) ** 2 + (y1 - y0) ** 2 for (x0, y0), (x1, y1) in zip(points, points[1:]))
        )
        assert total <= _mpf(defect) <= _mpf(eps)


def test_linear_path_witness_is_trivial():
    line = PolynomialPath(RationalPoly([0, 1]), RationalPoly([F(1, 2), F(1, 3)]))
    oracle = PolynomialVariationOracle(line)
    assert oracle.uniform_witness(F(1, 10**9)) == (Partition.trivial(), 0)
    part, v = oracle.achieve_variation(Direction.from_vector(1, 0), F(1, 10**9))
    assert contains(v, F(1))


def test_sampled_bracket_vertical_blind_grid():
    # samples on the integer grid of a scale-3 sawtooth see only zeros:
    # lower bound 0, upper bound Lipschitz constant 1
    samples = tuple((F(j, 8), F(0)) for j in range(9))
    g = SampledGraph(samples, F(1))
    cert = sampled_bracket(g, Direction.from_vector(0, 1))
    assert cert.kind is CertKind.NON_SHRINKING_BRACKET
    assert cert.value.lo == 0
    assert cert.value.hi == 1


def test_sampled_bracket_aligned_sees_variation():
    pl = as_polyline(SawtoothGraph(1))
    g = SampledGraph(pl.vertices, F(1))
    cert = sampled_bracket(g, Direction.from_vector(0, 1))
    assert cert.value.lo == 1  # inscribed variation is exact here
    assert cert.value.hi == 1  # and the Lipschitz ceiling agrees


def test_sampled_bracket_angle_direction():
    samples = ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0)))
    g = SampledGraph(samples, F(1))
    cert = sampled_bracket(g, Direction.from_theta_pi(F(1, 4)))
    # chords (1/2, 1/4), (1/2, -1/4) against (1,1)/sqrt(2): (3/4 + 1/4)/sqrt(2)
    ref_lo = F(1) / F("1.4142135623730950488016887242096980785696718753770")
    assert cert.value.lo <= ref_lo
    assert cert.value.hi >= ref_lo


def test_sampled_length_bracket():
    samples = ((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0)))
    g = SampledGraph(samples, F(1))
    cert = sampled_length_bracket(g)
    # inscribed: 2 * sqrt(1/4 + 1/16) = sqrt(5)/2; ceiling sqrt(1 + 1) = sqrt(2)
    rt5_half = F("1.1180339887498948482045868343656381177203091798058")
    rt2 = F("1.4142135623730950488016887242096980785696718753769")
    assert cert.value.lo <= rt5_half <= cert.value.hi
    assert cert.value.hi >= rt2 - F(1, 1 << 50)
    assert cert.kind is CertKind.NON_SHRINKING_BRACKET


def test_oracle_dispatch():
    assert isinstance(variation_oracle_for(as_polyline(SawtoothGraph(1))), PolylineOracle)
    assert isinstance(variation_oracle_for(SawtoothGraph(5)), PolylineOracle)
    assert isinstance(variation_oracle_for(SawtoothMixture((1,))), PolylineOracle)
    assert isinstance(variation_oracle_for(PARABOLA), PolynomialVariationOracle)
    # a sampled graph has no oracle: the refusal is a DomainError, a
    # ValueError like every other refusal, also where a length oracle asks
    sampled = SampledGraph(((F(0), F(0)), (F(1), F(0))), F(1))
    for build in (variation_oracle_for, CroftonLengthOracle):
        with pytest.raises(DomainError, match="no convergent variation oracle"):
            build(sampled)


def test_oracle_variation_inside_crofton_sandwich():
    # for any direction, v_theta <= length; sanity net around the parabola
    oracle = PolynomialVariationOracle(PARABOLA)
    for d in (Direction.from_vector(1, 0), Direction.from_vector(0, 1), Direction.from_vector(3, 4)):
        _, v = oracle.achieve_variation(d, F(1, 1000))
        assert v.hi <= F("1.4789428575445974338") + F(1, 500)

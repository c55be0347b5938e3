"""Length from variations (direction-net averaging) and variation from a
length oracle (refinement gain), plus the decision procedure built on it."""

import copy
import pickle
import time
from fractions import Fraction

import mpmath
import pytest

from conftest import TrivialPartitionOracle, contains

from pathvar import oracles, rectify, variation
from pathvar.core.certificates import Certificate, CertKind
from pathvar.core import chords
from pathvar.core.chords import polyline_length
from pathvar.core.partitions import merge_partitions
from pathvar.core.paths import (
    SAWTOOTH_VERTEX_CAP,
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    as_polyline,
)
from pathvar.counterexamples import adversarial_demo
from pathvar.numerics import ratpoly, trig
from pathvar.numerics.dyadic import Dyadic, ceil_to, eps_fraction, floor_log2
from pathvar.numerics.interval import Interval
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.numerics.trig import pi_enclosure
from pathvar.oracles import (
    PolylineOracle,
    PolynomialVariationOracle,
    sampled_bracket,
    sampled_length_bracket,
)
from pathvar.rectify import (
    CroftonLengthOracle,
    Verdict,
    build_direction_net,
    certified_length,
    certified_variation,
    crofton_partition,
    refinement_gain_bound,
    variation_order_decide,
)
from pathvar.variation import Direction

F = Fraction

RT2 = F("1.4142135623730950488016887242096980785696718753769")
PARABOLA = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))
PARABOLA_LENGTH = F("1.478942857544597433827906019433914435071697430595")
ZIGZAG = Polyline(((F(0), F(0)), (F(1), F(1)), (F(2), F(0)), (F(3), F(5))))


# -- direction nets -----------------------------------------------------------------


def test_budgets_are_built_whole_and_never_shared():
    # a net's budget is complete when the net is built, and every Certificate
    # holds a dict of its own: a default one, or a copy of what it is given
    net = build_direction_net(F(1), F(1, 10))
    assert list(net.budget) == ["eps", "mass_bound", "mesh", "node_defect"]
    assert F(net.budget["node_defect"]) == F(1, 10) / pi_enclosure(-64).hi
    diagonal = Polyline(((0, 0), (1, 1)))
    for make in (
        lambda: Certificate(Interval(F(0), F(1)), CertKind.NON_SHRINKING_BRACKET, F(1), "chords", 5),
        lambda: certified_variation(ZIGZAG, Direction.from_vector(0, 1), F(1, 10**6)),
        lambda: certified_length(diagonal, F(1, 10), use_uniform_witness=False),
    ):
        a, b = make(), make()
        before = dict(b.budget)
        a.budget["mutated"] = "yes"
        assert b.budget == before and "mutated" not in make().budget


def test_result_records_survive_copy_and_pickle():
    # the plain result records keep every field through copy and pickle, and
    # a converged certificate wider than its tolerance is still refused
    net = build_direction_net(F(1), F(1, 10))
    cert = certified_length(Polyline(((0, 0), (1, 1))), F(1, 10), use_uniform_witness=False)
    report = adversarial_demo(3, 2)
    made = lambda q: (q.value.lo, q.value.hi, *(getattr(q, k) for k in Certificate.__slots__[1:]))  # noqa: E731
    assert cert.net_size > 0 and "node_defect" in cert.budget
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        c = clone(cert)
        assert made(c) == made(cert) and c.to_json_dict() == cert.to_json_dict()
        assert clone(net) == net and clone(net).node(7).exact_ray() == net.node(7).exact_ray()
        r = clone(report)
        assert r.observed == report.observed and r.to_json_dict() == report.to_json_dict()
    with pytest.raises(ValueError, match="wider"):
        Certificate(Interval(F(0), F(1)), CertKind.TWO_SIDED_CONVERGED, F(1, 2), "chords", 1)


def test_every_route_prints_the_fields_it_holds():
    # the method, the two sizes and the budget are the certificate's own
    # fields, and every route's certificate prints them under those names
    vertical = Direction.from_vector(0, 1)
    graph = SampledGraph(((0, 0), (F(1, 2), F(1, 4)), (1, 0)), 1)
    certs = [
        certified_length(PARABOLA, F(1, 10)),
        certified_length(PARABOLA, F(1, 10), use_uniform_witness=False),
        certified_variation(PARABOLA, vertical, F(1, 100)),
        certified_variation(ZIGZAG, vertical, F(1, 100)),
        certified_variation(ZIGZAG, vertical, F(1, 10), CroftonLengthOracle(ZIGZAG)),
        certified_variation(graph, vertical, F(1, 100)),
        certified_length(graph, F(1, 100)),
    ]
    assert [c.method for c in certs] == [
        "direction-net-averaging", "direction-net-averaging", "critical-point-partition",
        "vertex-partition", "length-refinement-gain", "sampled-graph-bracket", "sampled-graph-bracket",
    ]
    fields = ("method", "partition_size", "net_size", "budget")
    for cert in certs:
        printed = cert.to_json_dict()
        assert [printed[k] for k in fields] == [getattr(cert, k) for k in fields]


def test_net_covers_half_circle():
    net = build_direction_net(F(2), F(1, 100))
    assert net.mesh * net.node_count >= pi_enclosure(-64).lo
    assert net.node_count >= 100  # 4 * ceil(pi M / (2 eps)) = 4 * 315


def test_net_nodes_are_exact_rays():
    # every node is a ray of integers, equal to the rational ray of the same
    # vector and printed as it is
    net = build_direction_net(F(1), F(1, 10))
    assert net.node_count >= 1
    for j in range(net.node_count):
        d = net.node(j)
        ray = d.exact_ray()
        assert all(type(c) is int for c in ray)
        ref = Direction.from_vector(*ray)
        assert ray == ref.exact_ray() and d.describe() == ref.describe()
    with pytest.raises(IndexError):
        net.node(net.node_count)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


NET_SIZES = [(F(1), F(1, 10)), (F(2), F(1, 7)), (F(1, 3), F(1, 50)), (F(257, 128), F(3, 64))]


@pytest.mark.parametrize("mass,eps", NET_SIZES)
def test_net_gaps_are_certified_by_exact_arithmetic(mass, eps):
    # 4 * ceil(pi_hi M / (2 eps)) nodes, each gap at most the mesh: consecutive
    # rays (the last and the flipped first included) turn counter-clockwise
    # by an angle g < pi/2 with g <= tan g = (u x v) / (u . v) <= mesh, and
    # every node lies within a half-turn of the first, so the gaps sum to pi
    pi_hi = pi_enclosure(-64).hi
    net = build_direction_net(mass, eps)
    n = -((-pi_hi * mass) // (2 * eps))
    assert net.node_count == 4 * n and net.mesh == F(1, n)
    rays = [net.node(j).exact_ray() for j in range(net.node_count)]
    first = rays[0]
    assert all(_cross(first, v) > 0 for v in rays[1:])
    for u, v in zip(rays, rays[1:] + [(-first[0], -first[1])]):
        dot = u[0] * v[0] + u[1] * v[1]
        assert 0 < _cross(u, v) <= net.mesh * dot, (u, v)
    # (pi/2) * tau + (pi/4) * M * mesh with tau = eps/pi stays within eps:
    # v_theta is l-Lipschitz in theta and the average distance to the
    # nearest node is mesh/4
    assert pi_hi / 2 * (eps / pi_hi) + pi_hi / 4 * mass * net.mesh <= eps


@pytest.mark.parametrize("mass,eps", NET_SIZES)
def test_net_budget_holds_on_the_real_gaps(mass, eps):
    # l - l_P <= (1/2) * [pi * tau + 2M * sum g**2/4] over the net's real
    # gaps g: the differences of the nodes' angles, by mpmath atan2 at 50
    # digits, and the wrap-around gap from the last node to the first plus
    # pi; tau is the node defect the walk asks for
    net = build_direction_net(mass, eps)
    tau = eps / pi_enclosure(-64).hi
    with mpmath.workdps(50):
        rays = [net.node(j).exact_ray() for j in range(net.node_count)]
        angles = [mpmath.atan2(wy, wx) for wx, wy in rays]
        gaps = [b - a for a, b in zip(angles, angles[1:] + [angles[0] + mpmath.pi])]
        assert min(gaps) > 0 and abs(mpmath.fsum(gaps) - mpmath.pi) < mpmath.mpf(10) ** -40
        assert (mpmath.pi * _mpf(tau) + 2 * _mpf(mass) * mpmath.fsum(g * g for g in gaps) / 4) / 2 <= _mpf(eps)


def test_net_scales_with_mass_and_eps():
    small = build_direction_net(F(1), F(1, 100))
    big_mass = build_direction_net(F(10), F(1, 100))
    fine = build_direction_net(F(1), F(1, 1000))
    assert big_mass.node_count > small.node_count
    assert fine.node_count > small.node_count


def test_net_is_capped_before_any_node_is_walked():
    # the per-node route on the diagonal at 1e-9 once sized a net of
    # 26,912,977,068 nodes and walked it with no cap; a net of more nodes
    # than the point cap is refused from its size alone, at once, naming
    # the cap, while the largest net within the cap is still sized
    pi_hi = pi_enclosure(-64).hi
    quarter = SAWTOOTH_VERTEX_CAP // 4
    assert build_direction_net(F(1), pi_hi / (2 * quarter)).node_count == 4 * quarter
    started = time.monotonic()
    with pytest.raises(ResourceError, match=str(SAWTOOTH_VERTEX_CAP)):
        build_direction_net(F(1), pi_hi / (2 * (quarter + 1)))
    with pytest.raises(ResourceError, match=str(SAWTOOTH_VERTEX_CAP)):
        build_direction_net(RT2, F(1, 10**9))
    diagonal = Polyline(((F(0), F(0)), (F(1), F(1))))
    with pytest.raises(ResourceError, match=str(SAWTOOTH_VERTEX_CAP)):
        certified_length(diagonal, F(1, 10**9), use_uniform_witness=False)
    assert time.monotonic() - started < 1


def test_witness_mesh_is_capped_before_any_chord_is_built():
    # the mesh grows as eps**-1/2, so at 1e-300 the parabola's witness would
    # take about 2**498 cells; its size alone is refused at the point cap
    parabola = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))
    started = time.monotonic()
    with pytest.raises(ResourceError, match=f"point cap of {SAWTOOTH_VERTEX_CAP} points"):
        certified_length(parabola, F(1, 10**300))
    assert time.monotonic() - started < 1


# -- refinement gain ----------------------------------------------------------------


def test_gain_bound_formula():
    # sqrt(L^2 + d^2) - L for L = 1, d = 3/4: sqrt(25/16) - 1 = 1/4 exactly
    g = refinement_gain_bound(Interval(1, 1), F(3, 4))
    assert contains(g, F(1, 4))
    assert g.width() <= F(1, 4) / 4


def test_gain_bound_decreasing_in_length():
    g1 = refinement_gain_bound(Interval(1, 1), F(1, 100))
    g2 = refinement_gain_bound(Interval(10, 10), F(1, 100))
    assert g2.hi < g1.lo


def test_gain_bound_positive_and_tiny():
    g = refinement_gain_bound(Interval(3, 3), F(1, 10**9))
    assert g.lo > 0
    # tau ~ d^2 / (2L) = 1e-18 / 6
    assert g.hi < F(1, 10**18)
    assert g.lo > F(1, 10**19)


def test_gain_bound_caps_negative_length():
    g = refinement_gain_bound(Interval(Dyadic(-2), Dyadic(-1)), F(1, 4))
    assert contains(g, F(1, 4))  # L clamps to 0: gain = delta itself


@pytest.mark.parametrize("length", (0, 1, 2**40))
@pytest.mark.parametrize("delta", (F(1, 2**60), F(1, 3), F(10)))
def test_gain_bound_contains_high_precision_value(length, delta):
    # the subtraction form, evaluated with digits to spare for its cancellation
    g = refinement_gain_bound(Interval(length, length), delta)
    assert g.lo > 0
    with mpmath.workdps(200):
        d = mpmath.mpf(delta.numerator) / delta.denominator
        ref = mpmath.sqrt(mpmath.mpf(length) ** 2 + d * d) - length
        lo, hi = g.lo, g.hi
        assert mpmath.mpf(lo.numerator) / lo.denominator <= ref
        assert ref <= mpmath.mpf(hi.numerator) / hi.denominator


# -- length certificates --------------------------------------------------------------


def test_certified_length_sawtooth_contains_rt2():
    for n in (1, 4):
        cert = certified_length(SawtoothGraph(n), F(1, 10**6))
        assert cert.kind is CertKind.TWO_SIDED_CONVERGED
        assert contains(cert.value, RT2)
        assert cert.value.width() <= F(1, 10**6)


def test_certified_length_unit_segment():
    seg = Polyline(((F(0), F(0)), (F(1), F(0))))
    cert = certified_length(seg, F(1, 10**9))
    assert contains(cert.value, F(1))
    assert cert.value.width() <= F(1, 10**9)


def test_certified_length_parabola():
    cert = certified_length(PARABOLA, F(1, 1000))
    assert contains(cert.value, PARABOLA_LENGTH)
    assert cert.value.width() <= F(1, 1000)
    assert cert.method == "direction-net-averaging"
    assert cert.net_size == 0  # the uniform witness walks no net
    walked = certified_length(PARABOLA, F(1, 4), use_uniform_witness=False)
    assert contains(walked.value, PARABOLA_LENGTH)
    assert walked.net_size >= 1


def _arc_length(y_coeffs) -> F:
    """Arc length of (t, y(t)) over [0, 1] by mpmath quadrature, as a
    rational within 1e-40 of the true value."""
    with mpmath.workdps(50):
        dy = lambda t: sum(k * c * t ** (k - 1) for k, c in enumerate(y_coeffs) if k)  # noqa: E731
        length = mpmath.quad(lambda t: mpmath.sqrt(1 + dy(t) ** 2), [0, 1])
        return F(mpmath.nstr(length, 45))


@pytest.mark.parametrize("y_coeffs", [[0, 0, 1], [0, -1, 0, 2], [0, 0, 0, 0, 1]])
def test_per_node_certificate_contains_arc_length(y_coeffs):
    path = PolynomialPath(RationalPoly([0, 1]), RationalPoly(y_coeffs))
    eps = F(1, 20)
    cert = certified_length(path, eps, use_uniform_witness=False)
    assert contains(cert.value, _arc_length(y_coeffs))
    assert cert.value.width() <= eps
    budget = cert.budget
    pi_hi = pi_enclosure(-64).hi
    n = -((-pi_hi * F(budget["mass_bound"])) // (2 * F(budget["eps"])))
    assert cert.net_size == 4 * n
    assert F(budget["mesh"]) == F(1, n)


def test_per_node_walk_is_trig_free(monkeypatch):
    # every net node is an exact rational ray: the walk neither snaps an
    # angle nor takes a sine, cosine or arctangent
    def refuse(*args, **kwargs):
        raise AssertionError("trig or angle snap on the net walk")

    monkeypatch.setattr(Direction, "rational_approx", refuse)
    for module in (trig, variation):
        for name in ("cos_enclosure", "sin_enclosure", "atan_enclosure"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    before = variation._components.cache_info()
    for path in (PARABOLA, as_polyline(SawtoothGraph(1))):
        cert = certified_length(path, F(1, 20), use_uniform_witness=False)
        assert cert.net_size >= 1
    # nor does any node ask Direction.components, the one trig memo
    after = variation._components.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


class CountingOracle:
    """Variation oracle that records the tolerance of every partition call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def variation_partition(self, d, eps):
        self.calls.append(eps_fraction(eps))
        return self.inner.variation_partition(d, eps)

    def achieve_variation(self, d, eps):
        return self.inner.achieve_variation(d, eps)


def test_net_size_counts_walked_nodes():
    # the uniform witness walks no net, however fine the tolerance
    diagonal = Polyline(((F(0), F(0)), (F(1), F(1))))
    cert = certified_length(diagonal, F(1, 10**6))
    assert contains(cert.value, RT2)
    assert cert.net_size == 0
    assert set(cert.budget) == {"eps", "witness_defect"}
    # per node, every net node is one partition call at the node defect (the
    # length bound that sizes the net asks achieve_variation instead)
    pl = as_polyline(SawtoothGraph(1))
    oracle = CountingOracle(PolylineOracle(pl))
    part, net = crofton_partition(pl, oracle, F(1, 10))
    assert contains(polyline_length(pl, part, -70), RT2)
    tau = F(net.budget["node_defect"])
    assert set(oracle.calls) == {tau}
    assert net.node_count == len(oracle.calls) >= 1


def test_walk_asks_each_node_within_eps_over_pi():
    # averaging over the half-turn multiplies the node defect by pi/2, so a
    # node may be asked for eps/pi at most, with pi from mpmath
    pl = as_polyline(SawtoothGraph(1))
    for eps in (F(1, 10), F(1, 1000)):
        oracle = CountingOracle(PolylineOracle(pl))
        crofton_partition(pl, oracle, eps)
        with mpmath.workdps(50):
            assert oracle.calls and max(map(_mpf, oracle.calls)) <= _mpf(eps) / mpmath.pi


def test_net_walk_encloses_no_variation(monkeypatch):
    # the walk asks each node for a partition only: the only variation
    # enclosures on the route are the two axis calls of length_upper_bound,
    # however many nodes the net has
    calls = []
    inner = oracles.directional_variation_on_partition

    def counting(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(oracles, "directional_variation_on_partition", counting)
    cert = certified_length(PARABOLA, F(1, 20), use_uniform_witness=False)
    assert cert.net_size > 2
    assert [d.exact_ray() for d in calls] == [(1, 0), (0, 1)]


def test_critical_point_routes_do_no_fraction_horner(monkeypatch):
    # every sign test, isolation and bisection step, range bound, projection
    # and chord on the critical-point routes runs on integers, so neither a
    # polynomial evaluated at a Fraction nor its Fraction coefficients are
    # ever read, and the polynomial module builds no Fraction or Interval,
    # on the net walk or off it
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction Horner evaluation, Fraction coefficients, or a Fraction or Interval built")

    monkeypatch.setattr(RationalPoly, "__call__", refuse)
    monkeypatch.setattr(RationalPoly, "coeffs", property(refuse))
    monkeypatch.setattr(ratpoly, "Fraction", refuse)
    monkeypatch.setattr(ratpoly, "Interval", refuse)
    cert = certified_length(PARABOLA, F(1, 20), use_uniform_witness=False)
    assert contains(cert.value, PARABOLA_LENGTH)
    quartic = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 0, 0, 1]))
    with mpmath.workdps(50):
        # the projection peaks at its one critical point c, which no dyadic
        # cut hits: c = 1/6 on the parabola along (1, -3), where the
        # variation is 13/(6 sqrt 10), and c = 4**(-1/3) on the quartic along
        # (1, -1), where it is 2 (c - c**4) / sqrt 2
        c = mpmath.cbrt(mpmath.mpf(1) / 4)
        cases = (
            (PARABOLA, Direction.from_vector(1, -3), 13 / (6 * mpmath.sqrt(10))),
            (quartic, Direction.from_vector(1, -1), 2 * (c - c**4) / mpmath.sqrt(2)),
        )
        cases = [(path, d, F(mpmath.nstr(ref, 45))) for path, d, ref in cases]
    eps = F(1, 10**9)
    for path, d, ref in cases:
        _, v = PolynomialVariationOracle(path).achieve_variation(d, eps)
        assert v.lo <= ref and v.hi >= ref - eps  # v_P lies in [v - eps, v]
        assert contains(certified_variation(path, d, eps).value, ref)


def test_vertex_partition_length_is_not_padded():
    # a vertex partition misses no variation in any direction, and a
    # polynomial segment is its own chord, so an exact polyline's or
    # segment's length certificate is only as wide as its arithmetic: the
    # segment (1/2 + t, 1/3 - t) has the closed-form length sqrt(1 + 1)
    eps = F(1, 10**6)
    segment = PolynomialPath(RationalPoly([F(1, 2), 1]), RationalPoly([F(1, 3), -1]))
    for path in (Polyline(((F(0), F(0)), (F(1), F(1)))), SawtoothGraph(4), segment):
        cert = certified_length(path, eps)
        assert contains(cert.value, RT2)
        assert cert.value.width() <= eps / 100
        assert cert.budget["witness_defect"] == "0"


def _poly(*coeffs):
    return RationalPoly([F(c) for c in coeffs])


def _speed_integral(path) -> Fraction:
    """mpmath quad of |alpha'| over [0, 1] at 50 digits, split at 1/2,
    where the loop's speed has its kink."""
    xp, yp = path.x.derivative(), path.y.derivative()

    def value(p, t):
        return sum(mpmath.mpf(c.numerator) / c.denominator * t**i for i, c in enumerate(p.coeffs))

    with mpmath.workdps(50):
        ref = mpmath.quad(lambda t: mpmath.hypot(value(xp, t), value(yp, t)), [0, mpmath.mpf(1) / 2, 1])
        return F(mpmath.nstr(ref, 45))


@pytest.mark.parametrize(
    "path, eps, max_points",
    [
        (PARABOLA, F(1, 10**6), 513),
        (PARABOLA, F(1, 10**9), 16385),
        (PolynomialPath(_poly(0, 0, 1), _poly(0, 0, 0, 1)), F(1, 10**6), None),
        (PolynomialPath(_poly(0, 1), _poly(0, 0, 0, 0, 0, 0, 0, 0, 1)), F(1, 10**6), None),
        (PolynomialPath(_poly(0, 1), _poly(0, -1, 0, 2)), F(1, 10**6), None),
        (PolynomialPath(_poly(0, 1), _poly(0, 0, 0, 0, 1)), F(1, 10**6), 4097),
        (PolynomialPath(_poly("1/2", "1/3"), _poly(0, "3/7")), F(1, 10**6), 2),
        # the one cell of the k = 0 mesh has a zero chord: charged h * S
        (PolynomialPath(_poly(0, 1, -1), _poly(0, 2, -2)), F(10), 2),
        # a chord denominator 21 * 2**2k: the length floors divide each root by 21
        (PolynomialPath(_poly(0, "1000/3"), _poly(0, 0, "1000/7")), F(1, 10**6), None),
    ],
    ids=("parabola", "parabola-1e-9", "cusp", "t8", "cubic", "quartic", "line", "loop", "odd"),
)
def test_witness_length_contains_the_speed_integral(path, eps, max_points):
    # each certificate holds the mpmath length, is at most eps wide, and
    # charges the witness's certified defect, at most 15/16 eps, rounded up
    # on the certificate's grid
    cert = certified_length(path, eps)
    assert contains(cert.value, _speed_integral(path))
    assert cert.value.width() <= eps
    part, defect = PolynomialVariationOracle(path).uniform_witness(eps * F(15, 16))
    assert len(part) == cert.partition_size
    assert defect <= eps * F(15, 16)
    pad = F(cert.budget["witness_defect"])
    assert pad == ceil_to(defect, floor_log2(eps) - 8)
    if max_points is not None:
        assert cert.partition_size <= max_points


class SpyLengthOracle:
    """CroftonLengthOracle that keeps its length enclosure and records the
    tolerance of every witness call."""

    def __init__(self, path):
        self.path, self.inner = path, CroftonLengthOracle(path)
        self.length, self.taus = None, []

    def achieve_length(self, eps):
        part, self.length = self.inner.achieve_length(eps)
        return part, self.length

    def uniform_witness(self, eps):
        self.taus.append(eps_fraction(eps))
        return self.inner.uniform_witness(eps)


def test_reverse_route_asks_within_the_exact_gain():
    # a variation defect delta = eps/2 needs a length defect of at most
    # sqrt(L**2 + delta**2) - L, L the oracle's length bound (its length
    # enclosure plus 1); mpmath evaluates it with digits to spare
    for path, eps in ((PARABOLA, F(1, 10**4)), (as_polyline(SawtoothGraph(2)), F(1, 3))):
        spy = SpyLengthOracle(path)
        cert = certified_variation(path, Direction.from_vector(0, 1), eps, spy)
        assert cert.method == "length-refinement-gain" and spy.taus
        with mpmath.workdps(200):
            big_l, delta = _mpf(spy.length.hi) + 1, _mpf(eps) / 2
            gain = mpmath.sqrt(big_l**2 + delta**2) - big_l
            assert max(map(_mpf, spy.taus)) <= gain


@pytest.mark.parametrize("use_uniform_witness", (True, False), ids=("witness", "walk"))
def test_both_length_routes_pad_by_their_defect(monkeypatch, use_uniform_witness):
    # l_P = 1 exactly, so only the pad lifts the certificate over the
    # length: the witness's defect rounded up on the 2**-12 grid (rounded
    # down it is 0), or the walk's tolerance
    oracle = TrivialPartitionOracle()
    monkeypatch.setattr(rectify, "variation_oracle_for", lambda path: oracle)
    cert = certified_length(oracle.path, F(1, 10), use_uniform_witness)
    assert cert.partition_size == 2 and cert.value.lo <= 1
    assert (cert.net_size > 0) != use_uniform_witness
    with mpmath.workdps(50):
        assert _mpf(cert.value.hi) >= 2 * mpmath.sqrt(mpmath.mpf(1) / 4 + mpmath.mpf(2) ** -18)


def test_reverse_route_builds_no_length_enclosure_past_its_bound(monkeypatch):
    # the refinement-gain oracle asks its length oracle for a partition
    # only: the one length enclosure on the route is the length bound the
    # oracle is built with.  root_sums sums every length enclosure, in
    # chord_length and in the witness's one pass over its chords
    calls = []
    inner = chords.root_sums

    def counted(*args):
        calls.append(args)
        return inner(*args)

    for module in (chords, oracles):
        monkeypatch.setattr(module, "root_sums", counted)
    eps = F(1, 10**4)
    cert = certified_variation(PARABOLA, Direction.from_vector(0, 1), eps, CroftonLengthOracle(PARABOLA))
    assert contains(cert.value, 1) and cert.value.width() <= eps
    assert cert.method == "length-refinement-gain"
    assert len(calls) == 1


def test_certified_length_deterministic_across_runs():
    a = certified_length(SawtoothGraph(2), F(1, 20), use_uniform_witness=False)
    b = certified_length(SawtoothGraph(2), F(1, 20), use_uniform_witness=False)
    assert a.to_json_dict() == b.to_json_dict()
    # per-node partitions of a curve differ by direction; their union does not
    # depend on the order the net hands them over
    oracle = PolynomialVariationOracle(PARABOLA)
    net = build_direction_net(F(1), F(1, 4))
    parts = [oracle.achieve_variation(net.node(j), F(1, 20))[0] for j in range(net.node_count)]
    assert len(set(parts)) > 1
    assert merge_partitions(*parts) == merge_partitions(*reversed(parts))


def test_crofton_partition_witness_vs_pernode():
    # both routes must certify: enclosures both contain the true length
    pl = as_polyline(SawtoothGraph(1))
    oracle = PolylineOracle(pl)
    for part in (oracle.uniform_witness(F(1, 100))[0], crofton_partition(pl, oracle, F(1, 100))[0]):
        assert {Dyadic(0), Dyadic(1)} <= set(part.params)
        lp = polyline_length(pl, part, -70)
        assert contains(lp, RT2)


# -- variation through the length oracle ----------------------------------------------


def _both_routes(path, d, eps, truth):
    """The path's own variation oracle, then the paper's construction:
    variation from a length oracle built from variations.  Both contain the
    closed form; the length route, enclosing at eps/2 and padded by eps/2,
    is about half as wide as it may be."""
    own = certified_variation(path, d, eps)
    gain = certified_variation(path, d, eps, length_oracle=CroftonLengthOracle(path))
    for cert in (own, gain):
        assert contains(cert.value, truth)
    assert own.value.width() <= eps
    assert gain.value.width() <= F(53, 100) * eps
    return own, gain


def test_certified_variation_polyline_vertical():
    s = SawtoothGraph(2)
    d = Direction.from_vector(0, 1)
    eps = F(1, 10**6)
    certs = list(_both_routes(s, d, eps, F(1)))
    certs.append(certified_variation(s, d, eps, length_oracle=PolylineOracle(as_polyline(s))))
    assert contains(certs[-1].value, F(1))
    assert certs[-1].value.width() <= eps
    assert [c.method for c in certs] == [
        "vertex-partition", "length-refinement-gain", "length-refinement-gain"
    ]


def test_certified_variation_via_crofton_oracle():
    # parabola: its own oracle partitions at critical points; the Crofton
    # length oracle rides on direction-net averaging instead
    own, crofton = _both_routes(PARABOLA, Direction.from_vector(0, 1), F(1, 100), F(1))
    assert own.method == "critical-point-partition"
    assert crofton.method == "length-refinement-gain"


def test_certified_variation_parabola_fine_tolerance():
    # vertical variation of (t, t**2) is exactly 1; the critical-point
    # oracle reaches 1e-9 where the refinement-gain route would need a
    # length tolerance near 1e-18
    cert = certified_variation(PARABOLA, Direction.from_vector(0, 1), F(1, 10**9))
    assert contains(cert.value, F(1))
    assert cert.value.width() <= F(1, 10**9)
    assert cert.method == "critical-point-partition"


def test_variation_certificate_covers_the_whole_defect_budget():
    # an oracle answering at eps/2 may miss up to eps/2 of v_d, so the
    # certificate must reach v_P + eps/2 for the exact v_P of its partition:
    # over ZIGZAG's vertices, the sum of |dx| along (1, 0) and of |dy| along
    # (0, 1), whatever grid the pad is rounded on
    for d, v_p in ((Direction.from_vector(1, 0), F(3)), (Direction.from_vector(0, 1), F(7))):
        for eps in (F(1, 1000), F(1, 3), F(2, 10**9)):
            cert = certified_variation(ZIGZAG, d, eps)
            assert cert.value.lo <= v_p and v_p + eps / 2 <= cert.value.hi, (d.describe(), eps)


def test_certified_variation_angle_direction():
    s = SawtoothGraph(1)
    _both_routes(s, Direction.from_theta_pi(F(1, 4)), F(1, 10**5), RT2 / 2)


def test_crofton_oracle_round_trip_matches_polyline_truth():
    pl = as_polyline(SawtoothGraph(2))
    oracle = CroftonLengthOracle(pl)
    part, l = oracle.achieve_length(F(1, 1000))
    assert contains(l, RT2)
    assert l.width() <= F(1, 100)


def test_sampled_graph_gets_the_sample_brackets():
    # no variation oracle exists for a sampled graph: the library answers
    # with the same honest brackets the oracles module builds
    g = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    cert = certified_length(g, F(1, 10**6))
    assert cert.kind is CertKind.NON_SHRINKING_BRACKET
    assert cert.to_json_dict() == sampled_length_bracket(g).to_json_dict()
    for d in (Direction.from_vector(0, 1), Direction.from_theta_pi(F(1, 3))):
        cert = certified_variation(g, d, F(1, 10**6))
        assert cert.kind is CertKind.NON_SHRINKING_BRACKET
        assert cert.to_json_dict() == sampled_bracket(g, d).to_json_dict()


def test_sampled_graph_gets_its_bracket_with_any_length_oracle():
    # samples never pin a variation, so no length oracle may turn them into
    # a converged certificate: the flat samples of a 1-Lipschitz graph allow
    # any vertical variation in [0, 1], and every route answers that bracket
    g = SampledGraph(((0, 0), (1, 0)), 1)
    d = Direction.from_vector(0, 1)
    bracket = sampled_bracket(g, d)
    assert (bracket.value.lo, bracket.value.hi) == (0, 1)
    for length_oracle in (None, CroftonLengthOracle(Polyline(((0, 0), (1, 1)))),
                          CroftonLengthOracle(PARABOLA), object()):
        cert = certified_variation(g, d, F(1, 10), length_oracle)
        assert cert.kind is CertKind.NON_SHRINKING_BRACKET
        assert cert.to_json_dict() == bracket.to_json_dict()
        answer = variation_order_decide(g, d, F(1, 4), F(1, 2), length_oracle)
        assert isinstance(answer, Certificate) and answer.kind is CertKind.NON_SHRINKING_BRACKET


def test_length_oracle_must_answer_for_the_path():
    # a flat segment's witness says nothing of the sawtooth's teeth, whose
    # vertical variation is exactly 1; the sawtooth's own oracle still finds it
    saw, d, eps = SawtoothGraph(8), Direction.from_vector(0, 1), F(1, 10)
    with pytest.raises(ValueError, match="another path"):
        certified_variation(saw, d, eps, CroftonLengthOracle(Polyline(((0, 0), (1, 0)))))
    with pytest.raises(ValueError, match="another path"):
        variation_order_decide(saw, d, F(1, 2), F(3, 2), CroftonLengthOracle(PARABOLA))
    cert = certified_variation(saw, d, eps, CroftonLengthOracle(SawtoothGraph(8)))
    assert cert.method == "length-refinement-gain"
    assert contains(cert.value, F(1)) and cert.value.width() <= eps
    # an object missing part of the role, or not a Direction, is refused in
    # pathvar's words rather than as an AttributeError from inside the route
    spy = SpyLengthOracle(saw)
    del spy.path
    for length_oracle in (object(), spy):
        with pytest.raises(TypeError, match="a length oracle needs path"):
            certified_variation(saw, d, eps, length_oracle)
    for not_a_direction in (None, (0, 1), F(1, 2)):
        with pytest.raises(TypeError, match="must be a Direction"):
            certified_variation(saw, not_a_direction, eps)


# -- decision procedure ----------------------------------------------------------------


@pytest.mark.parametrize(
    "path, d, a, b, crofton",
    [
        (SawtoothGraph(2), Direction.from_vector(0, 1), F(1, 2), F(3, 4), False),
        (SawtoothGraph(2), Direction.from_vector(0, 1), F(1), F(3, 2), False),
        (PARABOLA, Direction.from_theta_pi(F(1, 3)), F(1, 10), F(1, 5), False),
        (PARABOLA, Direction.from_vector(0, 1), F("0.99999999"), F("1.00000001"), False),
        (ZIGZAG, Direction.from_vector(F(1, 2**40), F(1, 2**41)), F("4.91934955"),
         F("4.91934956"), False),
        (SawtoothGraph(2), Direction.from_vector(1, 1), F(1, 2), F(3, 4), True),
        (PARABOLA, Direction.from_vector(0, 1), F(3, 2), F(2), True),
    ],
    ids=("ray", "ray-tie", "angle", "narrow", "short-ray", "crofton-ray", "crofton-parabola"),
)
def test_decide_takes_one_enclosure(monkeypatch, path, d, a, b, crofton):
    calls = []
    inner = variation.directional_variation_on_partition

    def counted(*args):
        calls.append(args)
        return inner(*args)

    # every variation oracle encloses through the one oracles.achieve_variation
    monkeypatch.setattr(oracles, "directional_variation_on_partition", counted)
    oracle = CroftonLengthOracle(path) if crofton else None
    assert variation_order_decide(path, d, a, b, oracle) in Verdict
    assert len(calls) == 1


def test_decide_reads_one_certificate(monkeypatch):
    # a decision compares one certified_variation at 3*(b-a)/4, whose one
    # achieve_variation call on an exact path runs at 3*(b-a)/8
    cert_calls, achieve_calls = [], []
    certify = rectify.certified_variation

    def counted_certify(*args):
        cert_calls.append(args)
        return certify(*args)

    def counted_achieve(oracle, d, eps):
        achieve_calls.append(eps)
        return oracles.achieve_variation(oracle, d, eps)

    monkeypatch.setattr(rectify, "certified_variation", counted_certify)
    for cls in (PolylineOracle, PolynomialVariationOracle):
        monkeypatch.setattr(cls, "achieve_variation", counted_achieve)
    sampled = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    a, b = F(1, 2), F(3, 4)
    step = 3 * (b - a) / 8
    for path, achieved in ((SawtoothGraph(2), [step]), (PARABOLA, [step]), (sampled, [])):
        cert_calls.clear()
        achieve_calls.clear()
        variation_order_decide(path, Direction.from_vector(0, 1), a, b)
        assert len(cert_calls) == 1
        assert achieve_calls == achieved


def test_decide_clear_cases():
    s = SawtoothGraph(2)  # vertical variation exactly 1
    d = Direction.from_vector(0, 1)
    assert variation_order_decide(s, d, F(1, 2), F(3, 4)) is Verdict.GREATER_THAN_A
    assert variation_order_decide(s, d, F(3, 2), F(2)) is Verdict.LESS_THAN_B


def test_decide_tie_at_lower_end():
    # v = a exactly: "greater than a" is false, so the other exit must fire
    s = SawtoothGraph(2)
    d = Direction.from_vector(0, 1)
    assert variation_order_decide(s, d, F(1), F(3, 2)) is Verdict.LESS_THAN_B


def test_decide_tie_at_upper_end():
    # v = b exactly: "less than b" is false, so greater-than-a must fire
    s = SawtoothGraph(2)
    d = Direction.from_vector(0, 1)
    assert variation_order_decide(s, d, F(1, 2), F(1)) is Verdict.GREATER_THAN_A


def test_decide_value_inside_bracket():
    # either verdict is acceptable; it must simply terminate and be true
    s = SawtoothGraph(1)
    d = Direction.from_vector(0, 1)  # v = 1
    verdict = variation_order_decide(s, d, F(7, 8), F(9, 8))
    assert verdict in (Verdict.GREATER_THAN_A, Verdict.LESS_THAN_B)


def test_decide_rejects_empty_bracket():
    with pytest.raises(ValueError):
        variation_order_decide(SawtoothGraph(1), Direction.from_vector(0, 1), F(1), F(1))


def test_decide_staircase_exact_rationals():
    # staircase of 3 rises of 1/3: vertical variation exactly 1
    verts = [(F(0), F(0))]
    x, y = F(0), F(0)
    for _ in range(3):
        x += F(1, 6)
        verts.append((x, y))
        y += F(1, 3)
        verts.append((x, y))
    verts[-1] = (x, F(1))
    pl = Polyline(tuple(verts))
    d = Direction.from_vector(0, 1)
    assert variation_order_decide(pl, d, F(99, 100), F(101, 100)) is Verdict.GREATER_THAN_A
    assert variation_order_decide(pl, d, F(101, 100), F(102, 100)) is Verdict.LESS_THAN_B


def test_decide_with_polynomial_path():
    # vertical variation of the parabola is exactly 1
    d = Direction.from_vector(0, 1)
    assert variation_order_decide(PARABOLA, d, F(9, 10), F(99, 100)) is Verdict.GREATER_THAN_A
    assert variation_order_decide(PARABOLA, d, F(101, 100), F(11, 10)) is Verdict.LESS_THAN_B
    # a bracket of width 2e-8 around the true value still resolves
    a, b = F("0.99999999"), F("1.00000001")
    assert variation_order_decide(PARABOLA, d, a, b) is Verdict.GREATER_THAN_A


def test_decide_on_sampled_graph_returns_its_bracket():
    # no enclosure of a sampled graph shrinks, so no bracket (a, b) can be
    # resolved: the answer is the same certificate certified_variation gives
    g = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    for d in (Direction.from_vector(0, 1), Direction.from_theta_pi(F(1, 3))):
        answer = variation_order_decide(g, d, F(1, 10), F(1, 5))
        assert answer.kind is CertKind.NON_SHRINKING_BRACKET
        assert answer.to_json_dict() == certified_variation(g, d).to_json_dict()
        for a, b in ((F(1), F(1)), (F(2), F(1))):
            with pytest.raises(ValueError, match="a < b"):
                variation_order_decide(g, d, a, b)

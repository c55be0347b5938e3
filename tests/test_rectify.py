"""Length from variations (direction-net averaging) and variation from a
length oracle (refinement gain), plus the decision procedure built on it."""

from fractions import Fraction

import mpmath
import pytest

from pathvar import oracles, rectify, variation
from pathvar.core.certificates import CertKind
from pathvar.core.partitions import merge_partitions
from pathvar.core.paths import (
    Polyline,
    PolynomialPath,
    SampledGraph,
    SawtoothGraph,
    as_polyline,
)
from pathvar.numerics import trig
from pathvar.numerics.dyadic import Dyadic, eps_fraction
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


def test_net_covers_half_circle():
    net = build_direction_net(F(2), F(1, 100))
    assert net.mesh * net.node_count >= pi_enclosure(-64).lo
    assert net.node_count >= 100  # 4 * ceil(2 pi M / eps) = 4 * 1257


def test_net_nodes_are_exact_rays():
    net = build_direction_net(F(1), F(1, 10))
    assert net.node_count >= 1
    for j in (0, net.node_count // 2, net.node_count - 1):
        d = net.node(j)
        assert d.exact_ray() is not None
    with pytest.raises(IndexError):
        net.node(net.node_count)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


@pytest.mark.parametrize(
    "mass,eps", [(F(1), F(1, 10)), (F(2), F(1, 7)), (F(1, 3), F(1, 50)), (F(257, 128), F(3, 64))]
)
def test_net_gaps_are_certified_by_exact_arithmetic(mass, eps):
    # 4 * ceil(2 pi_hi M / eps) nodes, each gap at most the mesh: consecutive
    # rays (the last and the flipped first included) turn counter-clockwise
    # by an angle g < pi/2 with g <= tan g = (u x v) / (u . v) <= mesh, and
    # every node lies within a half-turn of the first, so the gaps sum to pi
    pi_hi = pi_enclosure(-64).hi
    net = build_direction_net(mass, eps)
    n = -((-2 * pi_hi * mass) // eps)
    assert net.node_count == 4 * n and net.mesh == F(1, n)
    rays = [net.node(j).exact_ray()[:2] for j in range(net.node_count)]
    first = rays[0]
    assert all(_cross(first, v) > 0 for v in rays[1:])
    for u, v in zip(rays, rays[1:] + [(-first[0], -first[1])]):
        dot = u[0] * v[0] + u[1] * v[1]
        assert 0 < _cross(u, v) <= net.mesh * dot, (u, v)
    # (pi/2) * [tau + 4M * mesh/2] with tau = eps/pi stays within eps
    assert pi_hi / 2 * (eps / pi_hi) + pi_hi * mass * net.mesh <= eps


def test_net_scales_with_mass_and_eps():
    small = build_direction_net(F(1), F(1, 100))
    big_mass = build_direction_net(F(10), F(1, 100))
    fine = build_direction_net(F(1), F(1, 1000))
    assert big_mass.node_count > small.node_count
    assert fine.node_count > small.node_count


# -- refinement gain ----------------------------------------------------------------


def test_gain_bound_formula():
    # sqrt(L^2 + d^2) - L for L = 1, d = 3/4: sqrt(25/16) - 1 = 1/4 exactly
    g = refinement_gain_bound(Interval.point(1), F(3, 4))
    assert g.contains(F(1, 4))
    assert g.width() <= F(1, 4) / 4


def test_gain_bound_decreasing_in_length():
    g1 = refinement_gain_bound(Interval.point(1), F(1, 100))
    g2 = refinement_gain_bound(Interval.point(10), F(1, 100))
    assert g2.hi < g1.lo


def test_gain_bound_positive_and_tiny():
    g = refinement_gain_bound(Interval.point(3), F(1, 10**9))
    assert g.lo > 0
    # tau ~ d^2 / (2L) = 1e-18 / 6
    assert g.hi < F(1, 10**18)
    assert g.lo > F(1, 10**19)


def test_gain_bound_caps_negative_length():
    g = refinement_gain_bound(Interval(Dyadic(-2), Dyadic(-1)), F(1, 4))
    assert g.contains(F(1, 4))  # L clamps to 0: gain = delta itself


@pytest.mark.parametrize("length", (0, 1, 2**40))
@pytest.mark.parametrize("delta", (F(1, 2**60), F(1, 3), F(10)))
def test_gain_bound_contains_high_precision_value(length, delta):
    # the subtraction form, evaluated with digits to spare for its cancellation
    g = refinement_gain_bound(Interval.point(length), delta)
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
        assert cert.value.contains(RT2)
        assert cert.value.width() <= F(1, 10**6)


def test_certified_length_unit_segment():
    seg = Polyline(((F(0), F(0)), (F(1), F(0))))
    cert = certified_length(seg, F(1, 10**9))
    assert cert.value.contains(F(1))
    assert cert.value.width() <= F(1, 10**9)


def test_certified_length_parabola():
    cert = certified_length(PARABOLA, F(1, 1000))
    assert cert.value.contains(PARABOLA_LENGTH)
    assert cert.value.width() <= F(1, 1000)
    assert cert.provenance.oracle == "direction-net-averaging"
    assert cert.provenance.net_size == 0  # the uniform witness walks no net
    walked = certified_length(PARABOLA, F(1, 4), use_uniform_witness=False)
    assert walked.value.contains(PARABOLA_LENGTH)
    assert walked.provenance.net_size >= 1


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
    assert cert.value.contains(_arc_length(y_coeffs))
    assert cert.value.width() <= eps
    budget = cert.provenance.budget
    pi_hi = pi_enclosure(-64).hi
    n = -((-2 * pi_hi * F(budget["mass_bound"])) // F(budget["eps"]))
    assert cert.provenance.net_size == 4 * n
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
    for path in (PARABOLA, as_polyline(SawtoothGraph(1))):
        cert = certified_length(path, F(1, 20), use_uniform_witness=False)
        assert cert.provenance.net_size >= 1


class CountingOracle:
    """Variation oracle that records the tolerance of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def achieve_variation(self, d, eps):
        self.calls.append(eps_fraction(eps))
        return self.inner.achieve_variation(d, eps)


def test_net_size_counts_walked_nodes():
    # the uniform witness walks no net, however fine the tolerance
    diagonal = Polyline(((F(0), F(0)), (F(1), F(1))))
    cert = certified_length(diagonal, F(1, 10**6))
    assert cert.value.contains(RT2)
    assert cert.provenance.net_size == 0
    assert set(cert.provenance.budget) == {"eps", "witness_defect"}
    # per node, every net node is one oracle call at the node defect (the
    # length bound that sizes the net asks at 1/256)
    pl = as_polyline(SawtoothGraph(1))
    oracle = CountingOracle(PolylineOracle(pl))
    cert = certified_length(pl, F(1, 10), oracle=oracle, use_uniform_witness=False)
    assert cert.value.contains(RT2)
    tau = F(cert.provenance.budget["node_defect"])
    walked = sum(1 for eps in oracle.calls if eps == tau)
    assert cert.provenance.net_size == walked >= 1


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
    for flag in (True, False):
        part, net = crofton_partition(pl, oracle, F(1, 100), use_uniform_witness=flag)
        assert {Dyadic(0), Dyadic(1)} <= set(part.params)
        from pathvar.core.chords import polyline_length

        lp = polyline_length(pl, part, -70)
        assert lp.contains(RT2)


# -- variation through the length oracle ----------------------------------------------


def _both_routes(path, d, eps):
    """The path's own variation oracle, then the paper's construction:
    variation from a length oracle built from variations."""
    return [
        certified_variation(path, d, eps),
        certified_variation(path, d, eps, length_oracle=CroftonLengthOracle(path)),
    ]


def test_certified_variation_polyline_vertical():
    s = SawtoothGraph(2)
    d = Direction.from_vector(0, 1)
    eps = F(1, 10**6)
    certs = _both_routes(s, d, eps)
    certs.append(certified_variation(s, d, eps, length_oracle=PolylineOracle(as_polyline(s))))
    for cert in certs:
        assert cert.value.contains(F(1))
        assert cert.value.width() <= eps
    assert [c.provenance.oracle for c in certs] == [
        "vertex-partition", "length-refinement-gain", "length-refinement-gain"
    ]


def test_certified_variation_via_crofton_oracle():
    # parabola: its own oracle partitions at critical points; the Crofton
    # length oracle rides on direction-net averaging instead
    own, crofton = _both_routes(PARABOLA, Direction.from_vector(0, 1), F(1, 100))
    for cert in (own, crofton):
        assert cert.value.contains(F(1))
        assert cert.value.width() <= F(1, 100)
    assert own.provenance.oracle == "critical-point-partition"
    assert crofton.provenance.oracle == "length-refinement-gain"


def test_certified_variation_parabola_fine_tolerance():
    # vertical variation of (t, t**2) is exactly 1; the critical-point
    # oracle reaches 1e-9 where the refinement-gain route would need a
    # length tolerance near 1e-18
    cert = certified_variation(PARABOLA, Direction.from_vector(0, 1), F(1, 10**9))
    assert cert.value.contains(F(1))
    assert cert.value.width() <= F(1, 10**9)
    assert cert.provenance.oracle == "critical-point-partition"


def test_certified_variation_angle_direction():
    s = SawtoothGraph(1)
    for cert in _both_routes(s, Direction.from_theta_pi(F(1, 4)), F(1, 10**5)):
        assert cert.value.contains(RT2 / 2)


def test_crofton_oracle_round_trip_matches_polyline_truth():
    pl = as_polyline(SawtoothGraph(2))
    oracle = CroftonLengthOracle(pl, PolylineOracle(pl))
    part, l = oracle.achieve_length(F(1, 1000))
    assert l.contains(RT2)
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

    # the variation oracle encloses on its own route, rectify on the length route
    for module in (rectify, oracles):
        monkeypatch.setattr(module, "directional_variation_on_partition", counted)
    oracle = CroftonLengthOracle(path) if crofton else None
    assert variation_order_decide(path, d, a, b, oracle) in Verdict
    assert len(calls) == 1


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

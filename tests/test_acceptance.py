"""Acceptance suite: one test per advertised guarantee, in release order.

Every randomized check counts *certified* violations: with outward interval
comparison a violation can only fire when the underlying exact inequality
truly fails, so the required count is zero, not "mostly zero".  Expected
values that are not trivially exact come from independent oracles evaluated
inside the test (exact rational projections, closed forms frozen from
high-precision arithmetic).
"""

import random
import time
from fractions import Fraction

from conftest import (
    angle_pool,
    contains,
    pair_min_oracle,
    random_partition,
    random_polyline,
    refine_partition,
)

from pathvar.core.certificates import CertKind
from pathvar.core.chords import polyline_length
from pathvar.core.partitions import merge_partitions
from pathvar.core.paths import PolynomialPath, Polyline, SawtoothMixture
from pathvar.counterexamples import adversarial_demo, sawtooth, tilt
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.numerics.trig import pi_enclosure
from pathvar.oracles import variation_oracle_for
from pathvar.rectify import (
    CroftonLengthOracle,
    Verdict,
    build_direction_net,
    certified_length,
    certified_variation,
    refinement_gain_bound,
    variation_order_decide,
)
from pathvar.variation import (
    Direction,
    directional_variation_on_partition,
    scale_interval,
    two_direction_length_bound,
)

F = Fraction

TRIALS = 10_000

RT2 = F("1.4142135623730950488016887242096980785696718753769")
PARABOLA_LENGTH = F("1.478942857544597433827906019433914435071697430595")

VERTICAL = Direction.from_vector(0, 1)


def test_01_sawtooth_length_and_variation_all_scales():
    # teeth shrink but slope stays +-1: length sqrt(2), vertical variation 1
    eps = F(1, 10**9)
    started = time.monotonic()
    for n in range(1, 11):
        path = sawtooth(n)
        lc = certified_length(path, eps)
        assert contains(lc.value, RT2), n
        assert lc.value.width() <= eps
        vc = certified_variation(path, VERTICAL, eps)
        assert contains(vc.value, F(1)), n
        assert vc.value.width() <= eps
    assert time.monotonic() - started < 10.0


def test_02_flat_and_tilted_mixtures():
    eps = F(1, 10**9)
    flat = SawtoothMixture(())
    lc = certified_length(flat, eps)
    assert contains(lc.value, F(1))
    vc = certified_variation(flat, VERTICAL, eps)
    assert contains(vc.value, F(0))
    assert vc.value.hi <= eps

    # shearing makes the ordinate non-decreasing, so the vertical variation
    # is the total rise: exactly 1 whichever tooth scale is active
    for bits in ((), (1,), (0, 1), (0, 0, 1)):
        cert = certified_variation(tilt(SawtoothMixture(bits)), VERTICAL, eps)
        assert contains(cert.value, F(1)), bits
        assert cert.value.width() <= eps, bits


def test_03_variation_is_direction_lipschitz():
    # |v_a - v_b| <= l_P dtheta with dtheta the circle distance mod pi: the
    # derivative of sum_i l_i |cos(theta - theta_i)| is at most l_P
    pool = angle_pool()
    pi80 = pi_enclosure(-80)
    rng = random.Random(0x11F5)
    violations = 0
    for _ in range(TRIALS):
        path = random_polyline(rng)
        part = random_partition(rng)
        j1 = rng.randrange(len(pool))
        j2 = rng.randrange(len(pool))
        v1 = directional_variation_on_partition(path, part, pool[j1])
        v2 = directional_variation_on_partition(path, part, pool[j2])
        dq = abs(F(j1 - j2, len(pool)))
        dq = min(dq, 1 - dq)
        bound = polyline_length(path, part) * scale_interval(pi80, dq, -64)
        if abs(v1 - v2).lo > bound.hi:
            violations += 1
    assert violations == 0


def test_04_two_direction_length_bound():
    # l_P <= r(gamma) (v_theta + v_{theta+gamma}) with r in closed form,
    # 1/sin(gamma); first pin it against the branch-and-bound minimum c of
    # |cos t| + |cos(t+gamma)|: c * r must enclose 1, and tightly
    pi80 = pi_enclosure(-80)
    for i in range(100):
        q = F(i + 2, 104)
        gamma = scale_interval(pi80, q, -64)
        c = pair_min_oracle(gamma, tol=F(1, 1 << 21))
        cr = c * two_direction_length_bound(gamma, tol=F(1, 1 << 21))
        assert contains(cr, F(1)), q
        assert cr.width() <= F(1, 10**5), q

    pool = angle_pool()
    rng = random.Random(0x2D17)
    r_cache = {}
    violations = 0
    for _ in range(TRIALS):
        path = random_polyline(rng)
        part = path.vertex_partition
        j = rng.randrange(len(pool))
        k = rng.randrange(1, len(pool))
        if k not in r_cache:
            r_cache[k] = two_direction_length_bound(
                scale_interval(pi80, F(k, len(pool)), -64), tol=F(1, 1 << 16)
            )
        v1 = directional_variation_on_partition(path, part, pool[j])
        v2 = directional_variation_on_partition(path, part, pool[(j + k) % len(pool)])
        lhs = polyline_length(path, part)
        rhs = r_cache[k] * (v1 + v2)
        if lhs.lo > rhs.hi:
            violations += 1
    assert violations == 0


def test_05_refinement_gain():
    # extra variation epsilon under refinement forces extra length of at
    # least sqrt(l**2 + eps**2) - l, with l any upper bound on path length
    pool = angle_pool()
    eps_pool = (F(1, 4), F(1, 16), F(1, 64))
    rng = random.Random(0x5A1E)
    violations = 0
    checked = 0
    for _ in range(TRIALS):
        path = random_polyline(rng)
        base = random_partition(rng)
        fine = refine_partition(rng, base)
        d = pool[rng.randrange(len(pool))]
        eps = eps_pool[rng.randrange(3)]
        v0 = directional_variation_on_partition(path, base, d)
        v1 = directional_variation_on_partition(path, fine, d)
        if (v1 - v0).lo <= eps:
            continue
        checked += 1
        full = polyline_length(path, path.vertex_partition)
        gain = refinement_gain_bound(full, eps)
        l0 = polyline_length(path, base)
        l1 = polyline_length(path, fine)
        if (l1 - l0).hi < gain.lo:
            violations += 1
    assert violations == 0
    assert checked > 100  # the premise must actually fire, or the test is vacuous


def test_06_direction_averaging_recovers_length():
    # midpoint rule over [0, pi): integral of v_theta is 2 l_P; the rule's
    # certified error term, L * pi**2 / (4K), uses the l_P
    # direction-Lipschitz constant
    K = 256
    mids = [Direction.from_theta_pi(F(2 * j + 1, 2 * K)) for j in range(K)]
    pi80 = pi_enclosure(-80)
    h = scale_interval(pi80, F(1, K), -70)
    pi_hi = pi80.hi
    rng = random.Random(0xC0FF)
    for _ in range(100):
        path = random_polyline(rng)
        part = path.vertex_partition
        lp = polyline_length(path, part, -70)
        total = directional_variation_on_partition(path, part, mids[0])
        for d in mids[1:]:
            total = total + directional_variation_on_partition(path, part, d)
        integral = total * h
        lp_hi = lp.hi
        rule_err = lp_hi * pi_hi * pi_hi / (4 * K)
        slack = lp_hi / 10**6
        assert integral.lo - rule_err - slack <= 2 * lp.lo
        assert 2 * lp_hi <= integral.hi + rule_err + slack


def test_07_parabola_end_to_end():
    started = time.monotonic()
    cert = certified_length(
        PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1])), F(1, 1000)
    )
    assert time.monotonic() - started < 60.0
    assert cert.value.width() <= F(1, 1000)
    assert contains(cert.value, PARABOLA_LENGTH)
    assert cert.kind is CertKind.TWO_SIDED_CONVERGED


def _staircase(steps):
    verts = [(F(0), F(0))]
    for run, rise in steps:
        x, y = verts[-1]
        verts.append((x + run, y))
        verts.append((x + run, y + rise))
    return Polyline(tuple(verts))


def _chord_walk(chords, scale):
    verts = [(F(0), F(0))]
    for cx, cy in chords:
        x, y = verts[-1]
        verts.append((x + cx * scale, y + cy * scale))
    return Polyline(tuple(verts))


def _exact_variation(path: Polyline, ray) -> Fraction:
    # independent oracle: each segment projects monotonically, so the
    # variation is the sum of |chord . w| / |w| with |w| a whole number
    wx, wy = ray
    norm2 = wx * wx + wy * wy
    norm = F(norm2).numerator
    root = int(norm**0.5)
    while root * root < norm:
        root += 1
    assert root * root == norm2, "fixture rays must have integer norm"
    total = F(0)
    for (x0, y0), (x1, y1) in zip(path.vertices, path.vertices[1:]):
        total += abs((x1 - x0) * wx + (y1 - y0) * wy)
    return total / root


def test_08_decision_soundness():
    rng = random.Random(0xDEC1)
    fixtures = []
    for _ in range(6):
        steps = [
            (F(rng.randint(1, 8), 8), F(rng.randint(1, 8), 8))
            for _ in range(rng.randint(1, 3))
        ]
        fixtures.append((_staircase(steps), (F(0), F(1))))
        fixtures.append((_staircase(steps), (F(1), F(0))))
    pyth = [(F(3), F(4)), (F(3), F(-4)), (F(4), F(3)), (F(-3), F(4)), (F(5), F(12))]
    for _ in range(4):
        chords = [pyth[rng.randrange(len(pyth))] for _ in range(rng.randint(2, 4))]
        walk = _chord_walk(chords, F(1, 16))
        fixtures.append((walk, (F(3), F(4))))
        fixtures.append((walk, (F(5), F(12))))

    # each bracket is decided twice: by the path's own variation oracle, and
    # by the paper's route, a length oracle built from variations
    cases = 0
    for path, ray in fixtures:
        d = Direction.from_vector(*ray)
        v = _exact_variation(path, ray)
        forced = [
            (v - 1, v - F(1, 2), Verdict.GREATER_THAN_A),  # v above the bracket
            (v + F(1, 2), v + 1, Verdict.LESS_THAN_B),  # v below the bracket
            (v, v + F(1, 3), Verdict.LESS_THAN_B),  # tie at a: v > a is false
            (v - F(1, 3), v, Verdict.GREATER_THAN_A),  # tie at b: v < b is false
        ]
        for length_oracle in (None, CroftonLengthOracle(path)):
            for a, b, expected in forced:
                verdict = variation_order_decide(path, d, a, b, length_oracle)
                assert verdict is expected, (path.vertices, ray, a, b, length_oracle)
                cases += 1
            a, b = v - F(1, 4), v + F(1, 4)
            verdict = variation_order_decide(path, d, a, b, length_oracle)  # either is sound
            assert (verdict is Verdict.GREATER_THAN_A and v > a) or (
                verdict is Verdict.LESS_THAN_B and v < b
            )
            cases += 1
    assert cases >= 100


def test_09_sampling_blind_spot():
    # feature scale below the grid: every sample hits a tooth root, and no
    # Lipschitz reasoning can tell the teeth from a flat line
    report = adversarial_demo(8, 3)
    assert report.bracket.kind is CertKind.NON_SHRINKING_BRACKET
    assert report.bracket.value.lo == 0
    assert report.bracket.value.hi == 1
    assert contains(report.exact.value, F(1))
    assert report.exact.value.width() <= F(1, 1 << 20)
    # refining the grid 16-fold changes nothing while it stays misaligned
    finer = adversarial_demo(8, 7)
    assert finer.bracket.value.hi == 1
    assert finer.bracket.value.lo == 0


def test_10_parallel_determinism():
    # the per-node route merges one partition per net node; the merge is a
    # set union, so neither a rerun nor the node order changes the answer
    eps = F(1, 20)
    suite = [
        sawtooth(1),
        sawtooth(2),
        SawtoothMixture((0, 1)),
        tilt(SawtoothMixture((1,))),
        PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1])),
    ]
    net = build_direction_net(F(1), F(1))
    rng = random.Random(0x10DE)
    for path in suite:
        name = type(path).__name__
        first = certified_length(path, eps, use_uniform_witness=False)
        second = certified_length(path, eps, use_uniform_witness=False)
        assert first.to_json_dict() == second.to_json_dict(), name

        oracle = variation_oracle_for(path)
        parts = [oracle.achieve_variation(net.node(j), eps)[0] for j in range(net.node_count)]
        merged = merge_partitions(*parts)
        assert merged == merge_partitions(*reversed(parts)), name
        assert merged == merge_partitions(*rng.sample(parts, len(parts))), name
        assert all(set(p.params) <= set(merged.params) for p in parts), name

"""Variation oracles: exact polyline fixtures, polynomial critical points,
uniform witnesses, and the honest sampled-graph brackets."""

from fractions import Fraction

import pytest

from pathvar.core.certificates import CertKind
from pathvar.core.partitions import Partition
from pathvar.core.paths import (
    PolynomialPath,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    as_polyline,
)
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.oracles import (
    OracleUnavailable,
    PolylineOracle,
    PolynomialVariationOracle,
    sampled_bracket,
    sampled_length_bracket,
    variation_oracle_for,
)
from pathvar.variation import Direction, directional_variation_on_partition

F = Fraction

PARABOLA = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))


def test_polyline_oracle_defect_zero_any_eps():
    pl = as_polyline(SawtoothGraph(2))
    oracle = PolylineOracle(pl)
    d = Direction.from_vector(0, 1)
    for eps in (F(1, 10), F(1, 10**6), F(1, 10**12)):
        part, v = oracle.achieve_variation(d, eps)
        assert part == oracle.partition  # tolerance never changes the answer
        assert v.is_point() and v.lo == 1
    part, l = oracle.achieve_length(F(1, 1000))
    rt2 = F("1.4142135623730950488016887242096980785696718753769")
    assert l.contains(rt2)


def test_polyline_oracle_rejects_other_kinds():
    with pytest.raises(TypeError):
        PolylineOracle(PARABOLA)


def test_parabola_vertical_variation_is_one():
    # y(t) = t^2 rises monotonically: v_(0,1) = 1 with the trivial partition
    oracle = PolynomialVariationOracle(PARABOLA)
    part, v = oracle.achieve_variation(Direction.from_vector(0, 1), F(1, 1000))
    assert list(p for p in part) == [0, 1]
    assert v.contains(F(1))
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


def test_parabola_snapped_direction():
    # pi/3 has no rational ray; the oracle snaps and still meets eps
    import mpmath

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


def test_parabola_bounds():
    oracle = PolynomialVariationOracle(PARABOLA)
    # |alpha'| = sqrt(1 + 4t^2) <= sqrt(5); bend |alpha''| = 2 exactly
    assert F(2) <= oracle.speed_bound() <= F(3)
    assert F(2) <= oracle.bend_bound() <= F(2) + F(1, 1 << 20)


def test_uniform_witness_cell_count_scales():
    oracle = PolynomialVariationOracle(PARABOLA)
    w1 = oracle.uniform_witness(F(1, 1000))
    w2 = oracle.uniform_witness(F(1, 4000))
    assert len(w2) >= len(w1)
    assert len(w1) - 1 >= 32  # c = 4, eps = 1e-3: 4^k >= 4000 -> 64 cells


def test_uniform_witness_defect_bound_holds():
    # refining the witness partition may only increase variation by < eps
    oracle = PolynomialVariationOracle(PARABOLA)
    eps = F(1, 256)
    witness = oracle.uniform_witness(eps)
    fine = Partition.uniform(len(witness) * 2 - 2 if len(witness) & 1 else 512)
    for d in (Direction.from_vector(1, -1), Direction.from_vector(2, 1), Direction.from_theta_pi(F(1, 3))):
        v_w = directional_variation_on_partition(PARABOLA, witness, d, -70)
        v_f = directional_variation_on_partition(PARABOLA, fine, d, -70)
        assert v_f.lo <= v_w.hi + eps


def test_linear_path_witness_is_trivial():
    line = PolynomialPath(RationalPoly([0, 1]), RationalPoly([F(1, 2), F(1, 3)]))
    oracle = PolynomialVariationOracle(line)
    assert oracle.uniform_witness(F(1, 10**9)) == Partition.trivial()
    part, v = oracle.achieve_variation(Direction.from_vector(1, 0), F(1, 10**9))
    assert v.contains(F(1))


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
    cert = sampled_bracket(g, Direction.from_theta_pi(F(1, 4)), -60)
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
    with pytest.raises(OracleUnavailable):
        variation_oracle_for(SampledGraph(((F(0), F(0)), (F(1), F(0))), F(1)))


def test_oracle_variation_inside_crofton_sandwich():
    # for any direction, v_theta <= length; sanity net around the parabola
    oracle = PolynomialVariationOracle(PARABOLA)
    for d in (Direction.from_vector(1, 0), Direction.from_vector(0, 1), Direction.from_vector(3, 4)):
        _, v = oracle.achieve_variation(d, F(1, 1000))
        assert v.hi <= F("1.4789428575445974338") + F(1, 500)

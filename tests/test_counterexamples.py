"""Sawtooth families: fixed length and variation at every scale, invisible to
any grid coarser than the teeth."""

from fractions import Fraction

import pytest

from pathvar.core.certificates import CertKind
from pathvar.core.paths import SampledGraph, SawtoothMixture
from pathvar.counterexamples import adversarial_demo, mixture, sawtooth, tilt
from pathvar.core.paths import PolynomialPath
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.rectify import certified_length, certified_variation
from pathvar.variation import Direction

F = Fraction

RT2 = F("1.4142135623730950488016887242096980785696718753769")
GOLDEN = F("1.6180339887498948482045868343656381177203091798058")  # (1+sqrt 5)/2


def test_sawtooth_vertices_scale_one():
    pl = sawtooth(1)
    assert pl.vertices == (
        (F(0), F(0)),
        (F(1, 4), F(1, 4)),
        (F(1, 2), F(0)),
        (F(3, 4), F(1, 4)),
        (F(1), F(0)),
    )
    assert len(sawtooth(2).vertices) == 9


def test_sawtooth_length_scale_invariant():
    for n in (1, 3, 6):
        cert = certified_length(sawtooth(n), F(1, 10**6))
        assert cert.value.contains(RT2), n
        assert cert.value.width() <= F(1, 10**6)


def test_sawtooth_vertical_variation_scale_invariant():
    d = Direction.from_vector(0, 1)
    for n in (1, 4):
        cert = certified_variation(sawtooth(n), d, F(1, 10**6))
        assert cert.value.contains(F(1)), n


def test_tilted_sawtooth_length_is_golden_ratio():
    # shear (x, y) -> (x, y+x): each tooth chord becomes length
    # sqrt(1/16 + 1/4)/... summed: 2^n * (sqrt(1+4+4... ) ) -> total
    # sqrt(2)/4 * ... ; frozen via mpmath in test_tilt_reference below
    cert = certified_length(tilt(sawtooth(1)), F(1, 10**8))
    assert cert.value.contains(GOLDEN)


def test_tilt_reference():
    # chords of tilt(sawtooth(1)): (1/4, 1/2) and (1/4, -1/4)... wait: y+x
    # up-chord delta (1/4, 1/4 + 1/4) = (1/4, 1/2); down-chord (1/4, -1/4 + 1/4) = (1/4, 0)
    # lengths: sqrt(5)/4 and 1/4, twice each: (sqrt(5) + 1)/2 = golden ratio
    import mpmath

    mpmath.mp.dps = 40
    ref = (mpmath.sqrt(5) + 1) / 2
    frozen = mpmath.mpf(GOLDEN.numerator) / GOLDEN.denominator
    assert abs(ref - frozen) < mpmath.mpf(10) ** -35


def test_tilt_kinds_preserved():
    p = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))
    tp = tilt(p)
    assert isinstance(tp, PolynomialPath)
    assert tp.y.coeffs == (F(0), F(1), F(1))  # t + t^2
    g = SampledGraph(((F(0), F(0)), (F(1), F(0))), F(0))
    tg = tilt(g)
    assert tg.lipschitz == 1
    assert tg.samples[1] == (F(1), F(1))


def test_mixture_variation_lower_bound_exact():
    # tilted flat mixture: ordinate is t, vertical variation exactly 1
    flat = tilt(mixture(()))
    cert = certified_variation(flat, Direction.from_vector(0, 1), F(1, 10**6))
    assert cert.value.lo <= 1 <= cert.value.hi
    assert cert.value.lo >= 1 - F(1, 10**6)


def test_mixture_rejects_two_active_bits():
    with pytest.raises(ValueError):
        SawtoothMixture((1, 0, 1))


def test_demo_blind_below_feature_scale():
    report = adversarial_demo(8, 3)
    assert report.grid_resolution == F(1, 8)
    assert report.feature_scale == F(1, 256)
    assert report.bracket.kind is CertKind.NON_SHRINKING_BRACKET
    assert report.bracket.value.lo == 0
    assert report.bracket.value.hi == 1
    assert report.exact.value.contains(F(1))
    assert "indistinguishable" in report.commentary


def test_demo_bracket_upper_fixed_while_blind():
    # refining the grid from 2^-3 to 2^-7 changes nothing: still all roots
    r3 = adversarial_demo(8, 3)
    r7 = adversarial_demo(8, 7)
    assert r3.bracket.value.lo == r7.bracket.value.lo == 0
    assert r3.bracket.value.hi == r7.bracket.value.hi == 1


def test_demo_tightens_past_feature_scale():
    report = adversarial_demo(2, 4)
    # grid 2^-4 resolves scale-2 teeth: inscribed variation reaches 1
    assert report.bracket.value.lo == 1
    assert report.bracket.value.hi == 1
    assert "resolves" in report.commentary


def test_demo_json_shape():
    d = adversarial_demo(3, 2).to_json_dict()
    assert set(d) == {
        "n",
        "k",
        "grid_resolution",
        "feature_scale",
        "bracket",
        "exact",
        "commentary",
    }
    assert d["bracket"]["kind"] == "non-shrinking-bracket"
    assert d["exact"]["kind"] == "two-sided-converged"


def test_demo_rejects_negative_scales():
    with pytest.raises(ValueError):
        adversarial_demo(-1, 2)

"""Path kinds: exact evaluation, vertex partitions, JSON wire format."""

import copy
import math
import pickle
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import child_env, contains, is_point

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
from pathvar.numerics.dyadic import DECIMAL_EXPONENT_CAP, EXACT_BITS_CAP, Dyadic, parse_exact
from pathvar.numerics.interval import DomainError
from pathvar.numerics.ratpoly import RationalPoly
from pathvar.rectify import build_direction_net, certified_length, variation_order_decide
from pathvar.variation import Direction, directional_variation_on_partition

F = Fraction


def test_sawtooth_values_scale_one():
    s = SawtoothGraph(1)
    assert eval_rational(s, F(0)) == (0, 0)
    assert eval_rational(s, F(1, 4)) == (F(1, 4), F(1, 4))
    assert eval_rational(s, F(1, 2)) == (F(1, 2), 0)
    assert eval_rational(s, F(1, 8)) == (F(1, 8), F(1, 8))
    assert eval_rational(s, F(1)) == (1, 0)


def _f(n, t):
    """f_n(t) = 2**-n * dist(2**n t, Z) from the definition, or 0 when n is None."""
    if n is None:
        return F(0)
    u = t * 2**n
    return min(u - math.floor(u), math.ceil(u) - u) / 2**n


def test_teeth_evaluate_in_closed_form():
    # every dyadic point of small scales, for sawtooths and one-bit mixtures:
    # f_n from the scale, equal to the interpolation through the corners of
    # a twin, and no corner of the path itself is built
    specs = [(SawtoothGraph, n) for n in range(6)]
    specs += [(SawtoothMixture, tuple(int(i == j) for i in range(5))) for j in range(5)]
    specs += [(SawtoothMixture, ()), (SawtoothMixture, (0, 0))]
    for cls, spec in specs:
        path, twin = cls(spec), Polyline(cls(spec).vertices)
        for k in range(8):
            for j in range(2**k + 1):
                t = F(j, 2**k)
                assert eval_rational(path, t) == (t, _f(path.active_scale(), t)) == eval_rational(twin, t)
        assert "vertices" not in vars(path)


def test_path_records_are_frozen_dataclass_alike():
    # ==, hash and repr over the fields, as the frozen dataclasses these
    # classes replaced gave them; no assignment; copies and pickles equal
    # the original and certify the same length
    cases = [
        (Polyline(((0, 0), (F(1, 3), 1))), ("vertices",),
         "Polyline(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 3), Fraction(1, 1))))"),
        (PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, F(1, 2), 1])), ("x", "y"),
         "PolynomialPath(x=RationalPoly([Fraction(0, 1), Fraction(1, 1)]), "
         "y=RationalPoly([Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)]))"),
        (SampledGraph(((0, 0), (1, F(1, 2))), 1), ("samples", "lipschitz"),
         "SampledGraph(samples=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 2))), "
         "lipschitz=Fraction(1, 1))"),
        (SawtoothGraph(3), ("n",), "SawtoothGraph(n=3)"),
        (SawtoothMixture((0, 1)), ("bits",), "SawtoothMixture(bits=(0, 1))"),
    ]
    for path, fields, spelled in cases:
        values = tuple(getattr(path, f) for f in fields)
        assert repr(path) == spelled
        assert hash(path) == hash(values)
        assert path == type(path)(*values) and not path != type(path)(*values)
        for field in fields + ("vertices", "other"):
            with pytest.raises(AttributeError):
                setattr(path, field, None)
        with pytest.raises(AttributeError):
            delattr(path, fields[0])
        cert = certified_length(path, F(1, 10**6))
        for clone in (copy.copy(path), copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
            assert type(clone) is type(path) and clone == path and hash(clone) == hash(path)
            again = certified_length(clone, F(1, 10**6))
            assert (again.value.lo, again.value.hi, again.kind) == (cert.value.lo, cert.value.hi, cert.kind)
    # the class is part of equality: the same corners are not the same path,
    # nor are equal fields in a subclass
    saw = SawtoothGraph(2)
    assert Polyline(saw.vertices) != saw and saw != Polyline(saw.vertices)
    assert type("Traced", (Polyline,), {})(saw.vertices) != Polyline(saw.vertices)
    assert SawtoothMixture((0, 1)) != saw and SawtoothMixture((0, 1)).vertices == saw.vertices


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
    # a boolean is not a coordinate, a Lipschitz constant, a coefficient, a
    # tolerance, a direction, a decision bracket or a mass bound, though
    # Fraction(True) would read it as 1
    for build in (
        lambda: Polyline(((0, 0), (True, 0))),
        lambda: SampledGraph(((0, 0), (1, 0)), True),
        lambda: RationalPoly([True]),
        lambda: certified_length(SawtoothGraph(2), True),
        lambda: Direction.from_vector(True, False),
        lambda: Direction.from_theta_pi(True),
        lambda: Direction.from_radians(True),
        lambda: variation_order_decide(SawtoothGraph(2), Direction.from_vector(0, 1), False, 1),
        lambda: variation_order_decide(SawtoothGraph(2), Direction.from_vector(0, 1), 0, True),
        lambda: build_direction_net(True, F(1, 10)),
    ):
        with pytest.raises(ValueError):
            build()


_ENTRY_POINTS = {
    "tolerance": lambda x: certified_length(SawtoothGraph(2), x),
    "coordinate": lambda x: Polyline(((0, 0), (x, 1))),
    "coefficient": lambda x: RationalPoly([0, x]),
    "from_vector": lambda x: Direction.from_vector(x, 1),
    "from_theta_pi": Direction.from_theta_pi,
    "from_radians": Direction.from_radians,
    "decision_bracket": lambda x: variation_order_decide(SawtoothGraph(2), Direction.from_vector(0, 1), x, 2),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "value, message",
    [
        ("1e-99999", f"beyond the cap of {DECIMAL_EXPONENT_CAP}"),
        ("1/0", "'1/0' has a zero denominator"),
        (math.nan, "cannot read nan as an exact number"),
        (math.inf, "cannot read inf as an exact number"),
        (-math.inf, "cannot read -inf as an exact number"),
        (None, "cannot read None as an exact number"),
    ],
    ids=["exponent", "zero_denominator", "nan", "inf", "minus_inf", "none"],
)
def test_library_numbers_meet_the_command_line_rules(entry, value, message):
    # a string a library caller passes is read by parse_exact under its caps,
    # as on the command line, and NaN, the infinities and None are refused
    # with pathvar's message, not Python's ZeroDivisionError, OverflowError
    # or TypeError, nor its 4,300-digit message from a budget string
    started = time.monotonic()
    with pytest.raises(ValueError, match=re.escape(message)):
        _ENTRY_POINTS[entry](value)
    assert time.monotonic() - started < 1


def test_library_tolerance_past_the_exponent_cap_ends_at_once():
    # Fraction("1e-9999999") builds ten to the 9,999,999th power first: a
    # library tolerance spelled so once ran past a 10 s timeout, while the
    # command line refused it at once; the child must exit naming the cap
    call = "import pathvar as pv; pv.certified_length(pv.SawtoothGraph(2), '1e-9999999')"
    proc = subprocess.run(
        [sys.executable, "-c", call], capture_output=True, env=child_env(), text=True, timeout=10
    )
    refused = f"ValueError: number '1e-9999999' has a decimal exponent beyond the cap of {DECIMAL_EXPONENT_CAP}"
    assert proc.returncode == 1 and refused in proc.stderr, proc.stderr


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


def test_parabola_bounds():
    p = PolynomialPath(RationalPoly([0, 1]), RationalPoly([0, 0, 1]))
    # |alpha'| = sqrt(1 + 4t^2) <= sqrt(5); bend |alpha''| = 2 exactly
    assert F(2) <= p.speed_bound <= F(3)
    assert F(2) <= p.bend_bound <= F(2) + F(1, 1 << 20)


def test_sampled_graph_known_only_at_samples():
    g = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    assert eval_rational(g, F(1, 2)) == (F(1, 2), F(1, 4))
    assert eval_rational(g, F(1, 3)) is None


def test_sampled_graph_chords_need_sample_points():
    g = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    # on the sample partition the chords are exact: 2 * sqrt(1/4 + 1/16)
    rt5_half = F("1.1180339887498948482045868343656381177203091798058")
    assert contains(polyline_length(g, Partition.uniform(2), -60), rt5_half)
    v = directional_variation_on_partition(g, Partition.uniform(2), Direction.from_vector(0, 1))
    assert is_point(v) and v.lo == F(1, 2)
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
    # digits in any script count by value: leading Arabic-Indic zeros are
    # zeros, for the exponent cap and the bit cap alike, as Fraction reads them
    zeros = "\u0660"
    assert parse_exact("1e" + zeros * 6 + "5") == 100000
    assert parse_exact(zeros * 1100 + "1") == 1


_SCRIPTS = ("0123456789", "".join(map(chr, range(0x660, 0x66A))))  # ASCII, Arabic-Indic
_ZEROS = "0\u0660_"


@st.composite
def _spellings(draw):
    """(text, exponent or None, significant digits) for a number spelling
    near the caps: signs, underscores, two scripts, spaces around "/",
    decimals, exponents at and past the decimal cap, long digit runs and
    zero pads.  One seed draws it all: a hypothesis draw per digit is slow."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))

    def run(size):
        text = rng.choice(_SCRIPTS)[0] * rng.choice((0, 0, 2, 1100))
        text += "".join(rng.choice(rng.choice(_SCRIPTS)) for _ in range(size))
        if len(text) > 1 and rng.random() < 0.5:
            text = text[0] + "_" + text[1:]
        return text

    sizes = (0, 1, 2, 5, 308, 309, 320)
    whole, other = run(rng.choice(sizes)), run(rng.choice(sizes))
    text = rng.choice(("", "+", "-")) + whole
    form, exp = rng.choice(("integer", "ratio", "decimal", "exponent")), None
    if form == "ratio":
        text += rng.choice(("/", " / ", "/ ", " /")) + other
        other = other.lstrip(_ZEROS)
    elif form != "integer":
        text += "." + other
        if form == "exponent" or rng.random() < 0.5:
            exp = rng.choice((0, 1, 300, 4299, 4300, 4301, 5000)) * rng.choice((1, -1))
            text += rng.choice("eE") + ("-" if exp < 0 else rng.choice(("", "+")))
            text += run(0)[:rng.choice((0, 6))] + "".join(rng.choice(_SCRIPTS)[int(c)] for c in str(abs(exp)))
    significant = len(whole.lstrip(_ZEROS)) + len(other) * (form != "integer") + abs(exp or 0)
    return rng.choice(("", " ")) + text, exp, significant


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_spellings())
def test_parse_exact_reads_what_fraction_reads(spelling):
    # Fraction is the oracle: what it reads, parse_exact reads alike or
    # refuses naming a cap that the spelling really passes (past 300
    # significant digits, as 10**300 < 2**1024), and what it returns stays
    # within EXACT_BITS_CAP bits
    text, exp, significant = spelling
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return
    try:
        got = parse_exact(text)
    except ValueError as exc:
        if f"cap of {DECIMAL_EXPONENT_CAP}" in str(exc):
            assert exp is not None and abs(exp) > DECIMAL_EXPONENT_CAP, text
        else:
            assert f"cap of {EXACT_BITS_CAP} bits" in str(exc), str(exc)
            assert significant > 300, text
        return
    assert got == want
    assert max(got.numerator.bit_length(), got.denominator.bit_length()) <= EXACT_BITS_CAP


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
    assert contains(iv, F(1)) and iv.width() <= Dyadic(1, -50)


def test_polyline_length_unit_square_loop():
    sq = Polyline(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(0), F(0))))
    iv = polyline_length(sq, sq.vertex_partition, -60)
    assert contains(iv, F(4)) and iv.width() <= Dyadic(1, -50)

"""End-to-end checks of the command line front end.

Everything runs in-process through main(argv) so the tests see exit codes and
captured stdout/stderr without subprocess overhead; one test shells out to
confirm the module entry point is wired.
"""

import io
import json
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from conftest import child_env

from pathvar.cli import DIGITS_CAP, _parse_direction, main
from pathvar.core.paths import (
    SAWTOOTH_VERTEX_CAP,
    Polyline,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    path_from_json,
    path_to_json,
)
from pathvar.core.certificates import Certificate
from pathvar.counterexamples import adversarial_demo
from pathvar.numerics.dyadic import DECIMAL_EXPONENT_CAP, EXACT_BITS_CAP, spell
from pathvar.rectify import (
    PROFILE_ROW_CAP,
    CroftonLengthOracle,
    certified_length,
    certified_variation,
    variation_profile,
)
from pathvar.variation import Direction

F = Fraction

RT2 = F("1.4142135623730950488016887242096980785696718753769")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sawtooth_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "sawtooth", "--n", "2")
    assert code == 0
    p = tmp_path / "saw.json"
    p.write_text(out)
    return str(p)


@pytest.fixture
def parabola_file(tmp_path):
    p = tmp_path / "parabola.json"
    p.write_text('{"kind": "polynomial", "x": [0, 1], "y": [0, 0, 1]}\n')
    return str(p)


@pytest.fixture
def sampled_file(tmp_path):
    g = SampledGraph(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))), F(1))
    p = tmp_path / "sampled.json"
    p.write_text(path_to_json(g) + "\n")
    return str(p)


def _value(out):
    doc = json.loads(out)
    return F(Decimal(doc["value"]["lo"])), F(Decimal(doc["value"]["hi"])), doc


def test_gen_pipes_into_length(sawtooth_file, capsys, monkeypatch):
    text = open(sawtooth_file).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "length", "-", "--eps", "1e-8")
    assert code == 0 and err == ""
    lo, hi, doc = _value(out)
    assert lo <= RT2 <= hi
    assert hi - lo <= F(1, 10**8) + F(2, 10**12)  # printing rounds outward
    assert doc["quantity"] == "length"
    assert doc["input_kind"] == "sawtooth"
    assert doc["kind"] == "two-sided-converged"


def test_variation_theta(sawtooth_file, capsys):
    code, out, _ = run(capsys, "variation", sawtooth_file, "--theta", "pi/2")
    assert code == 0
    lo, hi, doc = _value(out)
    assert lo <= 1 <= hi
    # the right angle snaps to its exact ray
    assert doc["direction"] == "vector(0,1)"

    code, out, _ = run(
        capsys, "variation", sawtooth_file, "--theta", "pi/3", "--eps", "1e-4"
    )
    assert code == 0
    assert json.loads(out)["direction"] == "1/3*pi"


def test_variation_vector(sawtooth_file, capsys):
    code, out, _ = run(capsys, "variation", sawtooth_file, "--direction", "0,1")
    assert code == 0
    lo, hi, doc = _value(out)
    assert lo <= 1 <= hi
    assert doc["direction"] == "vector(0,1)"
    # the library refuses a zero ray, and the command line prints its words
    code, out, err = run(capsys, "variation", sawtooth_file, "--direction", "0,0")
    assert (code, out) == (2, "") and "zero vector has no direction" in err


def test_variation_polynomial(parabola_file, capsys):
    # (t, t**2): vertical variation 1, variation along (1, 1) is 2
    for direction, truth in (("0,1", 1), ("1,1", 2 / RT2)):
        code, out, _ = run(
            capsys, "variation", parabola_file, "--direction", direction, "--eps", "1e-9"
        )
        assert code == 0
        lo, hi, doc = _value(out)
        assert lo <= truth <= hi
        assert hi - lo <= F(1, 10**9) + F(2, 10**12)
        assert doc["input_kind"] == "polynomial"
        assert doc["method"] == "critical-point-partition"


def test_variation_angle_on_huge_chords(tmp_path, capsys):
    # chords (2**200, 1) and (-2**200, 1): the angle must be resolved to
    # about 2**-265 before the certificate can be 1e-9 wide
    import mpmath

    p = tmp_path / "huge.json"
    p.write_text('{"kind": "polyline", "vertices": [[0, 0], [%d, 1], [0, 2]]}\n' % 2**200)
    code, out, _ = run(capsys, "variation", str(p), "--theta", "pi/3", "--eps", "1e-9")
    assert code == 0
    lo, hi, _ = _value(out)
    assert hi - lo <= F(1, 10**9) + F(2, 10**12)
    with mpmath.workdps(120):
        c, s = mpmath.cos(mpmath.pi / 3), mpmath.sin(mpmath.pi / 3)
        ref = abs(c * 2**200 + s) + abs(-c * 2**200 + s)
        slack = mpmath.mpf(2) ** 200 * mpmath.mpf(10) ** -110  # mpmath's own error
        assert mpmath.mpf(lo.numerator) / lo.denominator - slack <= ref
        assert ref <= mpmath.mpf(hi.numerator) / hi.denominator + slack


def test_variation_along_short_ray(tmp_path, capsys):
    # the ray (2**-40, 2**-41) is the line of (2, 1): chords (1, 1), (1, -1),
    # (1, 5) give v = 11 / sqrt(5) at the requested width, not a rejection
    p = tmp_path / "zigzag.json"
    p.write_text('{"kind": "polyline", "vertices": [[0, 0], [1, 1], [2, 0], [3, 5]]}\n')
    ray = "1/1099511627776,1/2199023255552"
    code, out, err = run(capsys, "variation", str(p), "--direction", ray, "--eps", "1e-9")
    assert code == 0, err
    lo, hi, _ = _value(out)
    assert lo * lo <= F(121, 5) <= hi * hi
    assert hi - lo <= F(1, 10**9) + F(2, 10**12)


def test_tiny_tolerance_widens_digits(sawtooth_file, capsys):
    code, out, _ = run(capsys, "length", sawtooth_file, "--eps", "1e-20")
    assert code == 0
    lo, hi, doc = _value(out)
    assert F(Decimal(doc["tolerance"])) == F(1, 10**20)
    assert lo <= RT2 <= hi
    assert hi - lo <= 2 * F(1, 10**20)


def test_tolerance_runs_down_to_the_reader_cap(parabola_file, capsys):
    # the command line sets no tolerance floor of its own: 1e-300 is read,
    # and 1e-309, whose denominator passes the reader's bit cap, is refused
    # naming the cap. Along pi/3 the parabola's projection t/2 + sqrt(3) t**2 / 2
    # rises on [0, 1], so its variation is (1 + sqrt 3) / 2
    code, out, err = run(capsys, "variation", parabola_file, "--theta", "pi/3", "--eps", "1e-300")
    assert (code, err) == (0, "")
    lo, hi, _ = _value(out)
    assert 1 <= 2 * lo and (2 * lo - 1) ** 2 <= 3 <= (2 * hi - 1) ** 2
    assert hi - lo <= F(1, 10**300)
    code, out, err = run(capsys, "variation", parabola_file, "--theta", "pi/3", "--eps", "1e-309")
    assert (code, out) == (2, "") and f"cap of {EXACT_BITS_CAP} bits" in err
    # the length's witness mesh would pass the point cap: exit 3, the cap named
    code, out, err = run(capsys, "length", parabola_file, "--eps", "1e-300")
    assert (code, out) == (3, "") and f"point cap of {SAWTOOTH_VERTEX_CAP} points" in err


def test_variation_needs_exactly_one_direction(sawtooth_file, capsys):
    code, _, err = run(capsys, "variation", sawtooth_file)
    assert code == 2 and "theta" in err
    code, _, err = run(
        capsys, "variation", sawtooth_file, "--theta", "0", "--direction", "1,0"
    )
    assert code == 2


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", Direction.from_theta_pi(F(1))),
        ("pi/2", Direction.from_theta_pi(F(1, 2))),
        ("3pi/4", Direction.from_theta_pi(F(3, 4))),
        ("-pi/2", Direction.from_theta_pi(F(-1, 2))),
        ("2/3*pi", Direction.from_theta_pi(F(2, 3))),
        ("0.5", Direction.from_radians(F(1, 2))),
        ("1/3", Direction.from_radians(F(1, 3))),
    ],
)
def test_theta_grammar(text, expected):
    assert _parse_direction(text, None).describe() == expected.describe()


def test_profile_csv(sawtooth_file, capsys):
    code, out, _ = run(
        capsys, "profile", sawtooth_file, "--count", "4", "--eps", "1e-4"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta_lo,theta_hi,v_lo,v_hi"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert Decimal(first[0]) <= 0 <= Decimal(first[1])
    # theta=0 row is the horizontal sweep: variation 1 for a graph
    assert Decimal(first[2]) <= 1 <= Decimal(first[3])


def test_profile_json(sawtooth_file, capsys):
    code, out, _ = run(
        capsys, "profile", sawtooth_file, "--count", "2", "--format", "json",
        "--eps", "1e-4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "variation-profile"
    assert len(doc["rows"]) == 3
    mid = doc["rows"][1]["v"]
    assert Decimal(mid["lo"]) <= 1 <= Decimal(mid["hi"])


def test_decide(sawtooth_file, capsys):
    code, out, _ = run(
        capsys, "decide", sawtooth_file, "--theta", "pi/2", "--a", "0.9", "--b", "1.3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] in ("greater-than-a", "less-than-b")
    # vertical variation is exactly 1, so both verdicts are sound here; pin
    # the unambiguous cases instead
    code, out, _ = run(
        capsys, "decide", sawtooth_file, "--theta", "pi/2", "--a", "1/2", "--b", "3/4"
    )
    assert json.loads(out)["verdict"] == "greater-than-a"
    code, out, _ = run(
        capsys, "decide", sawtooth_file, "--theta", "pi/2", "--a", "3/2", "--b", "2"
    )
    assert json.loads(out)["verdict"] == "less-than-b"


def test_decide_narrow_bracket_on_parabola(parabola_file, capsys):
    # vertical variation of the parabola is exactly 1, inside (a, b)
    code, out, _ = run(
        capsys, "decide", parabola_file, "--direction", "0,1",
        "--a", "0.99999999", "--b", "1.00000001",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "greater-than-a"


def test_decide_rejects_bad_bracket(sawtooth_file, capsys):
    code, _, err = run(
        capsys, "decide", sawtooth_file, "--theta", "0", "--a", "2", "--b", "1"
    )
    assert code == 2 and "a < b" in err


def test_malformed_inputs_exit_2(tmp_path, capsys, sawtooth_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "length", str(bad))
    assert code == 2 and "malformed" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"kind": "spline", "knots": []}')
    code, _, _ = run(capsys, "length", str(unknown))
    assert code == 2

    code, _, _ = run(capsys, "length", str(tmp_path / "missing.json"))
    assert code == 2

    # a zero denominator is malformed input, in the codec and at the CLI
    text = '{"kind": "polynomial", "x": ["1/0"], "y": [0]}'
    with pytest.raises(ValueError, match="zero denominator"):
        path_from_json(text)
    zero = tmp_path / "zero.json"
    zero.write_text(text)
    code, out, err = run(capsys, "length", str(zero))
    assert code == 2 and out == "" and "zero denominator" in err

    for eps in ("0", "-1e-3", "abc"):
        code, _, _ = run(capsys, "length", sawtooth_file, "--eps", eps)
        assert code == 2, eps

    # a field of the wrong shape is malformed, not read letter by letter or
    # as a number: a string where a list belongs, a string for a vertex, and
    # booleans for a scale or a bit
    for i, text in enumerate((
        '{"kind": "polynomial", "x": "12", "y": [0]}',
        '{"kind": "polyline", "vertices": ["12"]}',
        '{"kind": "polyline", "vertices": [[0, 0], [1, 1, 1]]}',
        '{"kind": "sampled-graph", "samples": ["01", [1, 0]], "lipschitz": 1}',
        '{"kind": "sawtooth", "n": true}',
        '{"kind": "mixture", "bits": "01"}',
        '{"kind": "mixture", "bits": [true]}',
    )):
        shape = tmp_path / f"shape{i}.json"
        shape.write_text(text)
        code, out, err = run(capsys, "length", str(shape))
        assert code == 2 and out == "" and "malformed" in err, text

    # nesting past the recursion limit is malformed input, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "length", str(deep))
    assert code == 2 and out == "" and "malformed" in err


def test_a_missing_lipschitz_is_named(tmp_path, capsys):
    # like every other missing field, an absent or null lipschitz names itself
    for i, tail in enumerate(("", ', "lipschitz": null')):
        graph = tmp_path / f"graph{i}.json"
        graph.write_text('{"kind": "sampled-graph", "samples": [[0, 0], [1, 0]]' + tail + "}")
        code, out, err = run(capsys, "length", str(graph))
        assert (code, out) == (2, "")
        assert err == "error: malformed path description: lipschitz must be a number\n"


def test_errors_are_reported_in_argument_order(tmp_path, sawtooth_file, capsys):
    # the path file is read first, then the tolerance, then the direction,
    # then a decision's bracket: the first bad one is the one reported
    missing = str(tmp_path / "missing.json")
    cases = (
        (("length", missing, "--eps", "abc"), "cannot read"),
        (("variation", missing, "--eps", "abc", "--theta", "x"), "cannot read"),
        (("profile", missing, "--eps", "-1", "--count", "0"), "cannot read"),
        (("decide", missing, "--theta", "x", "--a", "y", "--b", "1"), "cannot read"),
        (("variation", sawtooth_file, "--eps", "abc", "--theta", "x"), "tolerance"),
        (("variation", sawtooth_file, "--eps", "abc"), "tolerance"),
        (("profile", sawtooth_file, "--eps", "abc", "--count", "0"), "tolerance"),
        (("decide", sawtooth_file, "--theta", "x", "--a", "y", "--b", "1"), "angle"),
        (("decide", sawtooth_file, "--theta", "0", "--a", "y", "--b", "z"), "endpoint a"),
    )
    for argv, named in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and named in err, (argv, err)


@pytest.mark.parametrize(
    "argv",
    [
        ("length", "{saw}", "--eps", "inf"),
        ("decide", "{saw}", "--theta", "0", "--a", "inf", "--b", "2"),
        ("decide", "{saw}", "--theta", "0", "--a", "0", "--b", "Infinity"),
        ("variation", "{saw}", "--direction", "inf,1"),
        ("variation", "{saw}", "--theta", "inf"),
        ("variation", "{saw}", "--theta", "pi/0"),
    ],
)
def test_unparseable_numbers_exit_2(argv, sawtooth_file, capsys):
    code, out, err = run(capsys, *(a.format(saw=sawtooth_file) for a in argv))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_negative_digits_exit_2(sawtooth_file, capsys):
    for digits in ("-1", "x"):
        code, out, err = run(capsys, "length", sawtooth_file, "--digits", digits)
        assert code == 2 and out == "" and "--digits" in err, digits
    code, out, _ = run(capsys, "length", sawtooth_file, "--digits", "0", "--eps", "1/2")
    assert code == 0
    assert "." not in json.loads(out)["value"]["lo"]


def test_digits_reads_what_int_reads(sawtooth_file, capsys):
    # a superscript two is a digit to str.isdigit but not a number to int
    code, out, err = run(capsys, "length", sawtooth_file, "--digits", "\u00b2")
    assert code == 2 and out == "" and "expected an integer >= 0" in err
    # Arabic-Indic three, and five behind four Arabic-Indic zeros
    for digits, places in (("\u0663", 3), ("\u0660" * 4 + "\u0665", 5)):
        code, out, _ = run(capsys, "length", sawtooth_file, "--digits", digits)
        assert code == 0 and len(json.loads(out)["value"]["lo"].split(".")[1]) == places


def test_digits_past_the_cap_exit_2_at_once(sawtooth_file, capsys):
    # 5,000 places once ran into Python's 4,300-digit str(int) limit while
    # printing; the cap is checked as the argument is read, exit 2 naming it
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pathvar", "length", sawtooth_file, "--digits", "5000"],
        capture_output=True,
        env=child_env(),
        text=True,
        timeout=8,
    )
    assert time.monotonic() - started < 1.0
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert f"DIGITS_CAP = {DIGITS_CAP}" in proc.stderr
    code, out, _ = run(capsys, "length", sawtooth_file, "--digits", str(DIGITS_CAP))
    assert code == 0 and len(json.loads(out)["value"]["lo"].split(".")[1]) == DIGITS_CAP


def test_workers_flag_is_gone(sawtooth_file, capsys):
    code, out, err = run(capsys, "length", sawtooth_file, "--workers", "0")
    assert code == 2 and out == "" and "--workers" in err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_sampled_graph_exits_3_with_bracket(sampled_file, capsys):
    code, out, err = run(capsys, "variation", sampled_file, "--theta", "pi/2")
    assert code == 3
    assert "certification unavailable" in err
    lo, hi, doc = _value(out)
    assert doc["kind"] == "non-shrinking-bracket"
    assert lo <= F(1, 2) <= hi  # true vertical variation of the tent is 1/2

    code, out, err = run(capsys, "length", sampled_file)
    assert code == 3
    lo, hi, doc = _value(out)
    assert doc["kind"] == "non-shrinking-bracket"
    assert lo <= hi

    code, _, err = run(
        capsys, "decide", sampled_file, "--theta", "0", "--a", "1", "--b", "2"
    )
    assert code == 3


def test_profile_rows_are_capped(sawtooth_file, capsys):
    # a count past the row cap is refused before the first row is built
    started = time.monotonic()
    code, out, err = run(capsys, "profile", sawtooth_file, "--count", "100000000")
    assert code == 2 and out == "" and str(PROFILE_ROW_CAP) in err
    assert time.monotonic() - started < 1
    with pytest.raises(ValueError, match=str(PROFILE_ROW_CAP)):
        variation_profile(SampledGraph(((F(0), F(0)), (F(1), F(0))), F(1)), PROFILE_ROW_CAP)


def test_profile_sampled_exits_3(sampled_file, capsys):
    code, out, err = run(capsys, "profile", sampled_file, "--count", "2")
    assert code == 3
    assert len(out.strip().split("\n")) == 4
    assert "non-shrinking" in err


def test_demo(capsys):
    code, out, _ = run(capsys, "demo", "--n", "8", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 8 and doc["k"] == 3
    assert Decimal(doc["bracket"]["value"]["lo"]) == 0
    assert Decimal(doc["bracket"]["value"]["hi"]) == 1
    assert Decimal(doc["exact"]["value"]["lo"]) <= 1 <= Decimal(doc["exact"]["value"]["hi"])


def test_demo_grid_is_capped(capsys):
    # a scale whose 2**k + 1 samples or 2**(n+1) + 1 vertices exceed the
    # sawtooth vertex cap is refused before any sample is built
    for n, k in ((3, 40), (40, 3)):
        with pytest.raises(ResourceError, match=str(SAWTOOTH_VERTEX_CAP)):
            adversarial_demo(n, k)
        code, out, err = run(capsys, "demo", "--n", str(n), "--k", str(k))
        assert code == 3 and out == "" and str(SAWTOOTH_VERTEX_CAP) in err


def test_cap_messages_print_no_caller_integer():
    # a refusal names its cap, never the caller's integer, whose str() past
    # 4,300 digits raised Python's own ValueError in place of the refusal
    huge = 10**5000
    for call, error, cap in (
        (lambda: certified_length(SawtoothGraph(huge)), ResourceError, SAWTOOTH_VERTEX_CAP),
        (lambda: variation_profile(SawtoothGraph(2), huge), ValueError, PROFILE_ROW_CAP),
        (lambda: adversarial_demo(huge, 1), ResourceError, SAWTOOTH_VERTEX_CAP),
        (
            lambda: certified_length(Polyline(((0, 0), (2**20000, 1))), 1e-3, use_uniform_witness=False),
            ResourceError,
            SAWTOOTH_VERTEX_CAP,
        ),
    ):
        with pytest.raises(error, match=f"cap of {cap}"):
            call()


def test_huge_library_numbers_are_spelled_by_their_bits():
    # a budget, a Lipschitz constant or a direction past Python's
    # 4,300-digit str(int) limit is spelled by its bit lengths, so each of
    # these calls returns its certificate where str() raised ValueError
    sampled = SampledGraph(((0, 0), (Fraction(1, 2), 1), (1, 0)), 3)
    cases = (
        (lambda: certified_length(SawtoothGraph(2), Fraction(1, 2**200000)), "eps", "4-bit/200005-bit"),
        (lambda: certified_length(SampledGraph(sampled.samples, 2**20000)), "lipschitz", "20001-bit/1-bit"),
        (
            lambda: certified_variation(sampled, Direction.from_vector(2**20000, 1)),
            "direction",
            "vector(20001-bit/1-bit,1)",
        ),
        (
            lambda: certified_variation(
                SawtoothGraph(2), Direction.from_vector(0, 1), Fraction(1, 2**7200),
                length_oracle=CroftonLengthOracle(SawtoothGraph(2)),
            ),
            None,
            None,
        ),
    )
    for call, field, spelled in cases:
        cert = call()
        assert isinstance(cert, Certificate)
        assert field is None or cert.budget[field] == spelled
    assert spell(Fraction(-(10**3800), 3)) == str(Fraction(-(10**3800), 3))
    assert spell(-(2**20000)) == "-20001-bit/1-bit"


def test_sawtooth_scale_is_capped_before_any_shift(tmp_path):
    # a scale past the vertex cap is refused from the scale alone: forming
    # 2**(n+1) for n = 10**11 would take 12.5 GB, so the child runs under a
    # 1 GB address-space limit and must still exit 3 naming the cap; a
    # mixture's scale is the position of its set bit
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for name, desc in (
        ("saw", {"kind": "sawtooth", "n": 10**11}),
        ("mix", {"kind": "mixture", "bits": [0] * 10**5 + [1]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(desc))
        proc = subprocess.run(
            [sys.executable, "-m", "pathvar", "length", str(p)],
            capture_output=True,
            env=child_env(),
            text=True,
            timeout=120,
            preexec_fn=limit_memory,
        )
        assert proc.returncode == 3 and proc.stdout == "", proc.stderr
        assert str(SAWTOOTH_VERTEX_CAP) in proc.stderr


def test_witness_mesh_is_capped_before_memory_runs_out(parabola_file):
    # at 1e-14 the parabola's per-cell witness bound cannot be met below
    # 2**22 cells (the sum is at least h**2 B2**2 / (2 pi**2 S)), past the
    # point cap; a mesh that size once ran out of memory under a 1 GB
    # address-space limit, so it is refused before any chord is built, exit
    # 3 naming the cap
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "pathvar", "length", parabola_file, "--eps", "1e-14"],
        capture_output=True,
        env=child_env(),
        text=True,
        timeout=120,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert str(SAWTOOTH_VERTEX_CAP) in proc.stderr


def test_huge_decimal_exponent_is_refused_at_once(tmp_path, sawtooth_file):
    # Fraction expands an exponent into its power of ten before any check,
    # so each of these once ran until killed; the exponent is refused
    # unread, exit 2 naming the cap, whether it comes in a JSON string, a
    # bare JSON literal, an angle or a tolerance
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

    quoted, bare = tmp_path / "quoted.json", tmp_path / "bare.json"
    quoted.write_text('{"kind": "polyline", "vertices": [[0, 0], ["1e999999999", 1]]}')
    bare.write_text('{"kind": "polyline", "vertices": [[0, 0], [1e999999999, 1]]}')
    for argv in (
        ("length", str(quoted)),
        ("length", str(bare)),
        ("variation", sawtooth_file, "--theta", "1e999999999"),
        ("length", sawtooth_file, "--eps", "1e-999999999"),
    ):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pathvar", *argv],
            capture_output=True,
            env=child_env(),
            text=True,
            timeout=8,
            preexec_fn=limit_memory,
        )
        assert time.monotonic() - started < 1.0, argv
        assert proc.returncode == 2 and proc.stdout == "", (argv, proc.stderr)
        assert f"cap of {DECIMAL_EXPONENT_CAP}" in proc.stderr, argv


def test_long_numbers_refused_at_the_bit_cap(tmp_path, sawtooth_file):
    # a 4,300-digit coordinate once built a certificate that Python could
    # not print, and a 2,000-digit one stalled the angle route past 20 s; a
    # numerator or denominator past the cap is refused unread, exit 2 naming
    # the cap, in a JSON integer (past Python's own digit limit too), a JSON
    # string, a tolerance, a direction or an angle's denominator
    files = {}
    for name, number in (
        ("d4300", "9" * 4300),
        ("d2000", "9" * 2000),
        ("d5000", "9" * 5000),
        ("den", '"1/%s"' % ("7" * 400)),
        ("spaced", '"%s / 1"' % ("9" * 2000)),  # Fraction reads it from Python 3.12
    ):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text('{"kind": "polyline", "vertices": [[0, 0], [%s, 1]]}' % number)
    for argv in (
        ("length", str(files["d4300"])),
        ("variation", str(files["d2000"]), "--theta", "pi/3", "--eps", "1e-6"),
        ("length", str(files["d5000"])),
        ("length", str(files["den"])),
        ("variation", str(files["spaced"]), "--theta", "pi/3", "--eps", "1e-6"),
        ("variation", sawtooth_file, "--theta", "pi/" + "7" * 5000),
        ("length", sawtooth_file, "--eps", "1e-400"),
        ("variation", sawtooth_file, "--direction", "1," + "3" * 400),
    ):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pathvar", *argv],
            capture_output=True,
            env=child_env(),
            text=True,
            timeout=10,
        )
        assert time.monotonic() - started < 1.0, argv[:2]
        assert proc.returncode == 2 and proc.stdout == "", (argv[:2], proc.stderr)
        assert f"cap of {EXACT_BITS_CAP} bits" in proc.stderr, argv[:2]


@pytest.mark.parametrize("theta", ["1/3", "pi/3"])
def test_angle_on_huge_coordinates_finishes(tmp_path, theta):
    # a gap this small needs the snap grid 2**-1080: the snap must start
    # there, and the sin and cos series on that grid must stay fast
    p = tmp_path / "far.json"
    p.write_text('{"kind": "polyline", "vertices": [[0, 0], ["1e300", 1]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "pathvar", "variation", str(p), "--theta", theta, "--eps", "1e-9"],
        capture_output=True,
        env=child_env(),
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["value"]
    with mpmath.workdps(400):
        th = mpmath.pi / 3 if theta == "pi/3" else mpmath.mpf(1) / 3
        exact = Fraction(mpmath.nstr(abs(10**300 * mpmath.cos(th) + mpmath.sin(th)), 390))
    assert Fraction(value["lo"]) <= exact <= Fraction(value["hi"])


def test_stdout_bytes_deterministic(sawtooth_file, capsys):
    args = ("variation", sawtooth_file, "--theta", "pi/3", "--eps", "1e-7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_module_entry_point(sawtooth_file):
    proc = subprocess.run(
        [sys.executable, "-m", "pathvar", "length", sawtooth_file, "--eps", "1e-4"],
        capture_output=True,
        env=child_env(),
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["quantity"] == "length"

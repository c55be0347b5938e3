"""The command line's exit contract under generated path files.

Every input ends in exit 0 (a certificate), 2 (a rejection, with nothing on
stdout) or 3 (an honest bracket or a named cap), never in a traceback.  The
generated files are small valid paths of every kind and the same fields
with wrong types (strings, booleans, nulls, bare numbers, nested or empty
lists), odd numbers (a zero denominator, a huge exponent, integers past the
bit cap) and unknown kinds; each is read from stdin by `main` in-process
under `length`, `variation` or `decide`.  The same contract holds under
generated arguments: every subcommand, on small valid path files, with each
flag missing, repeated or given an odd value (a negative, zero, a zero
denominator, nan, a decimal at or past the exponent cap, 10**9), both
direction flags at once, and inverted or one-point brackets.  Hypothesis
(MacIver et al., JOSS 2019) runs a fixed, derandomized set of examples,
each within a deadline.
"""

import contextlib
import io
import json
import sys
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from pathvar.cli import main

# numbers a path file may spell, and what must be refused in their place
SMALL = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-3/4", "0.25", "2", "1e-1"]),
    st.sampled_from([0.5, -1.25]),
)
ODD = st.sampled_from(["1/0", "1e5000", "1e-5000", 10**1100, "9" * 1100, "x", "", "inf", "nan"])
WRONG = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(-3, 3),
    st.sampled_from([0.5, 10**11]),
    st.just([]),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(lambda xs: [xs]),
    st.dictionaries(st.sampled_from(["a", "kind"]), st.integers(0, 1), max_size=1),
)
NUMBER = st.one_of(SMALL, SMALL, SMALL, ODD, WRONG)
PAIR = st.one_of(st.lists(SMALL, min_size=2, max_size=2), st.lists(NUMBER, max_size=3), WRONG)


def _field(valid):
    return st.one_of(valid, valid, valid, WRONG, ODD)


def _paths(num, pair, field):
    """Every kind, with numbers from num, vertices and samples from pair and
    each field passed through field."""
    ts = st.sampled_from([[0, 1], [0, "1/2", 1], [0, "1/4", "3/4", 1], [1, 0]])
    samples = ts.flatmap(lambda t: st.lists(num, min_size=len(t), max_size=len(t)).map(
        lambda ys: [[a, b] for a, b in zip(t, ys)]))
    kinds = {
        "polyline": {"vertices": st.lists(pair, min_size=1, max_size=5)},
        "polynomial": {"x": st.lists(num, max_size=4), "y": st.lists(num, max_size=4)},
        "sampled-graph": {"samples": samples, "lipschitz": st.sampled_from([0, 2, 30, "7/2", -1])},
        "sawtooth": {"n": st.integers(-1, 4)},
        "mixture": {"bits": st.lists(st.sampled_from([0, 0, 0, 1]), max_size=4)},
    }
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just(kind), **{k: field(v) for k, v in fields.items()}})
        for kind, fields in kinds.items()
    )


VALID = _paths(SMALL, st.lists(SMALL, min_size=2, max_size=2), lambda v: v)
BROKEN = _paths(NUMBER, PAIR, _field)


def _drop_a_field(obj: dict):
    keys = sorted(obj)
    return st.sampled_from(keys).map(lambda k: {key: v for key, v in obj.items() if key != k})


DOCUMENT = st.one_of(
    VALID,
    VALID,
    BROKEN,
    BROKEN.flatmap(_drop_a_field),
    st.fixed_dictionaries({"kind": st.one_of(st.sampled_from(["spline", ""]), WRONG)}),
    WRONG,
)
TEXT = st.one_of(
    DOCUMENT.map(json.dumps),
    st.sampled_from(["", "{", "[1, 2", "{\"kind\": \"polyline\", \"vertices\": [[0, 0], [1e5000, 1]]}"]),
)

EPS = st.sampled_from(["1/64", "1e-3"])
DIRECTION = st.sampled_from([("--theta", "pi/3"), ("--direction", "0,1"), ("--theta", "1/3")])
ARGV = st.one_of(
    EPS.map(lambda eps: ["length", "-", "--eps", eps]),
    st.tuples(DIRECTION, EPS).map(lambda de: ["variation", "-", *de[0], "--eps", de[1]]),
    DIRECTION.map(lambda d: ["decide", "-", *d, "--a", "1/4", "--b", "3/4"]),
)




def _run(text: str, argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=500,
    deadline=timedelta(seconds=2),
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(TEXT, ARGV)
def test_cli_exit_contract_on_generated_paths(text, argv):
    code, out, _ = _run(text, argv)
    if code != 2:
        json.loads(out)  # a certificate, a verdict or a bracket


# -- generated arguments ---------------------------------------------------------------

PATH_FILES = st.sampled_from([
    {"kind": "sawtooth", "n": 2},
    {"kind": "polyline", "vertices": [[0, 0], [1, 1], [2, 0]]},
    {"kind": "polynomial", "x": [0, 1], "y": [0, 0, 1]},
    {"kind": "sampled-graph", "samples": [[0, 0], ["1/2", "1/4"], [1, 0]], "lipschitz": 1},
    {"kind": "mixture", "bits": [0, 1]},
]).map(json.dumps)
# odd spellings every value-taking flag is given: signs, zeros, a zero
# denominator, nan and inf, decimals at and past the exponent cap, 10**9
ODD_VALUE = st.sampled_from([
    "-1", "0", "-0", "1/0", "nan", "inf", "", "x", "1e-300", "1e300", "1e4301",
    "1e-4301", "1000000000", "-1000000000", "0.5", "\u00b2", "\u0663",
])
VALID_VALUE = {
    "--eps": ["1/64", "1e-3", "1e300"],
    "--digits": ["0", "3", "12"],
    "--count": ["1", "2", "3"],
    "--format": ["csv", "json"],
    "--a": ["1/4", "1", "0.9", "-2"],
    "--b": ["3/4", "1", "1.1", "2"],
    "--theta": ["pi/3", "3pi/4", "1/3", "0pi", "1e300pi", "pi/1000000000"],
    "--direction": ["0,1", "3,4", "1e300,1", "1e-300,1"],
    "--n": ["0", "2", "4"],
    "--k": ["0", "3", "5"],
    "--bits": ["0,1", "1", "0,0,1", ""],
}
# values only some flags take, beside the odd spellings they all get
ODD_FOR = {
    "--count": ["65537"],
    "--format": ["xml"],
    "--theta": ["-pi", "pi/0", "1e300"],
    "--direction": ["0,0", "1/0,1", "nan,1", "1,", "1,2,3"],
    "--bits": ["2", "1,1", "0,1,x", ",", ",".join(["0"] * 24 + ["1"])],
}
COMMANDS = {
    "length": ("--eps", "--digits"),
    "variation": ("--eps", "--digits", "--theta", "--direction"),
    "profile": ("--eps", "--digits", "--count", "--format"),
    "decide": ("--digits", "--theta", "--direction", "--a", "--b"),
    "demo": ("--digits", "--n", "--k"),
    "gen": ("--n", "--bits"),
}
FAMILIES = ("sawtooth", "mixture", "tilted")
# a bracket the decide line starts from: valid, inverted or one point
BRACKETS = st.sampled_from([("1/4", "3/4"), ("0.9", "1.1"), ("3/4", "1/4"), ("1/2", "1/2")])


def _value(flag: str, odd: bool):
    if odd:
        return ODD_VALUE | st.sampled_from(ODD_FOR.get(flag, ["-1"]))
    return st.sampled_from(VALID_VALUE[flag])


@st.composite
def _command_lines(draw):
    """A valid command line, then up to three edits: a flag dropped, given an
    odd value, or repeated (argparse keeps the last); a direction flag
    added beside the other gives both at once."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    head = [command] + ([draw(st.sampled_from(FAMILIES))] if command == "gen" else [])
    head += ["-"] if command not in ("demo", "gen") else []
    pairs = [(f, draw(_value(f, False))) for f in flags if f != "--direction"]
    if "--direction" in flags and draw(st.booleans()):  # a ray in place of the angle
        ray = draw(_value("--direction", False))
        pairs = [("--direction", ray) if f == "--theta" else (f, v) for f, v in pairs]
    if command == "decide":
        a, b = draw(BRACKETS)
        pairs = [(f, {"--a": a, "--b": b}.get(f, v)) for f, v in pairs]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(flags))
        edit = draw(st.sampled_from(["odd", "drop", "repeat", "repeat odd"]))
        if edit == "drop":
            pairs = [(f, v) for f, v in pairs if f != flag]
        elif edit == "odd":
            pairs = [(f, v) for f, v in pairs if f != flag] + [(flag, draw(_value(flag, True)))]
        else:
            pairs.append((flag, draw(_value(flag, edit == "repeat odd"))))
    if draw(st.sampled_from([False] * 15 + [True])):  # a missing positional
        head = head[:1]
    return head + [f"{f}={v}" for f, v in pairs]


@settings(
    max_examples=400,
    deadline=timedelta(seconds=2),
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(PATH_FILES, _command_lines())
def test_cli_exit_contract_on_generated_arguments(text, argv):
    _run(text, argv)

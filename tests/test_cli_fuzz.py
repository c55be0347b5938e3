"""The command line's exit contract under generated path files.

Every input ends in exit 0 (a certificate), 2 (a rejection, with nothing on
stdout) or 3 (an honest bracket or a named cap), never in a traceback.  The
generated files are small valid paths of every kind and the same fields
with wrong types (strings, booleans, nulls, bare numbers, nested or empty
lists), odd numbers (a zero denominator, a huge exponent, integers past the
bit cap) and unknown kinds; each is read from stdin by `main` in-process
under `length`, `variation` or `decide`.  Hypothesis (MacIver et al., JOSS
2019) runs a fixed, derandomized set of examples, each within a deadline.
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


@settings(
    max_examples=500,
    deadline=timedelta(seconds=2),
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(TEXT, ARGV)
def test_cli_exit_contract_on_generated_paths(text, argv):
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
    else:
        json.loads(out.getvalue())  # a certificate, a verdict or a bracket

"""The library's front door keeps the command line's rules.

The public entry points are called with arguments drawn from ints,
Fractions at and past the bit cap, floats (NaN and the infinities among
them), booleans, strings and None: the path and Direction constructors
(raw rays and angles of any of these, or of three entries, and polynomial
paths whose coordinates are no polynomial), path_from_json (with a field
missing, or nested past the recursion limit), then certified_length,
certified_variation, variation_order_decide and variation_profile on
whatever was built, with a direction that may not be a Direction and, at
coarse tolerances, a length oracle: none, the path's own, another path's,
or an object that is none.
Each call returns a certificate or a verdict, or raises ValueError (DomainError
is one), TypeError or ResourceError, with pathvar's own message: a message
from Python's own limits, such as its cap on the digits of an int string,
is a failure.  Hypothesis (MacIver et al., JOSS 2019) runs a fixed,
derandomized set of examples, each within a deadline.
"""

import json
from datetime import timedelta
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from pathvar import (
    Certificate,
    CroftonLengthOracle,
    Direction,
    Polyline,
    PolynomialPath,
    RationalPoly,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    Verdict,
    certified_length,
    certified_variation,
    path_from_json,
    variation_order_decide,
    variation_profile,
)
from pathvar.numerics.dyadic import EXACT_BITS_CAP
from pathvar.rectify import PROFILE_ROW_CAP

F = Fraction
CAP = 1 << EXACT_BITS_CAP

SMALL = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([F(1, 2), F(-3, 4), F(1, 3), F(5, 2)]),
)
NOT_INT = st.one_of(
    st.sampled_from([F(1, CAP), F(CAP - 1, 3), F(1, 2 * CAP), F(2 * CAP + 1), F(3, CAP << 1)]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.5, -0.0, 1e300, 5e-324]),
    st.booleans(),
    st.sampled_from(["1/3", "0.25", "1e-9", "-2", "x", "", "1/0", "1e5000", "1e-5000", "9" * 400, "nan"]),
    st.none(),
)
ODD = st.one_of(NOT_INT, st.integers(-(1 << 40), 1 << 40))
NUMBER = st.one_of(SMALL, SMALL, ODD)
# tolerances: mostly coarse, so that a valid call stays cheap, and the odd ones
COARSE = st.sampled_from([F(1, 8), F(1, 100), "1/64", 0.25, 1])
EPS = st.one_of(COARSE, COARSE, ODD)
FIXED_BRACKET = st.sampled_from([(F(1, 4), F(3, 4)), (0, 2), (1, "3/2"), ("1/2", 10)])
BRACKET = st.one_of(FIXED_BRACKET, FIXED_BRACKET, st.tuples(NUMBER, NUMBER))
# a length oracle, by the path it answers for: no oracle, the path's own,
# another path's, or an object that has none of the role
ORACLE = st.sampled_from([None, None, "own", "own", "other", "object"])
OTHER = CroftonLengthOracle(Polyline(((0, 0), (1, 1))))
# profile row counts: a few rows, none, past the row cap, or not an int
COUNT = st.one_of(
    st.integers(1, 3), st.integers(1, 3), st.integers(-1, 0),
    st.sampled_from([PROFILE_ROW_CAP, 1 << 40]), NOT_INT,
)


@st.composite
def paths(draw):
    """A thunk that builds a path of some kind from drawn arguments, every
    one of them small and valid in two examples of three."""
    num = draw(st.sampled_from([SMALL, SMALL, NUMBER]))
    kind = draw(st.sampled_from(["polyline", "polynomial", "sampled", "sawtooth", "mixture", "json"]))
    if kind == "polyline":
        vertices = tuple((draw(num), draw(num)) for _ in range(draw(st.integers(0, 4))))
        return lambda: Polyline(vertices)
    if kind == "polynomial":
        xs = draw(st.lists(num, max_size=3))
        ys = draw(st.lists(num, max_size=3))
        if draw(st.integers(0, 3)) == 0:  # coordinates that are no polynomial
            y = draw(st.sampled_from([None, ys, RationalPoly([1])]))
            return lambda: PolynomialPath(xs, y)
        return lambda: PolynomialPath(RationalPoly(xs), RationalPoly(ys))
    if kind == "sampled":
        ts = draw(st.sampled_from([[0, 1], [0, F(1, 2), 1], [F(1, 2), 1]]))
        if draw(st.booleans()):
            ts[-1] = draw(num)
        samples = tuple((t, draw(num)) for t in ts)
        lipschitz = draw(st.one_of(st.just(20), num))
        return lambda: SampledGraph(samples, lipschitz)
    if kind == "sawtooth":
        n = draw(st.one_of(st.integers(0, 3), st.integers(0, 3), ODD))
        return lambda: SawtoothGraph(n)
    if kind == "mixture":
        bit = st.sampled_from([0, 0, 1])
        bits = tuple(draw(st.lists(draw(st.sampled_from([bit, bit, st.one_of(bit, ODD)])), max_size=3)))
        return lambda: SawtoothMixture(bits)
    doc = {"kind": "polyline", "vertices": [[0, 0], [draw(SMALL), draw(SMALL)]]}
    if draw(st.booleans()):
        doc = {"kind": "polynomial", "x": [0, 1], "y": [0, draw(SMALL), draw(SMALL)]}
    if draw(st.integers(0, 3)) == 0:  # a field missing
        doc.pop(draw(st.sampled_from(sorted(doc))))
    text = json.dumps(doc, default=str)
    if draw(st.booleans()):
        odd = draw(ODD)
        text = text.replace("0", json.dumps(odd, default=str) if not isinstance(odd, float) else repr(odd), 1)
    if draw(st.integers(0, 7)) == 0:  # nested past the recursion limit
        text = "[" * 100_000 + text + "]" * 100_000
    return lambda: path_from_json(text)


@st.composite
def directions(draw):
    """A thunk that builds a Direction from drawn arguments, small and valid
    in two examples of three, or now and then a value that is no Direction,
    or straight from the constructor: a ray of two numbers of any kind, the
    zero ray among them, a ray of three, an angle whose times_pi may be no
    bool, or neither a ray nor an angle."""
    num = draw(st.sampled_from([SMALL, SMALL, NUMBER]))
    kinds = ["vector", "theta_pi", "radians", "vector", "theta_pi", "radians", "other", "raw", "raw"]
    kind = draw(st.sampled_from(kinds))
    if kind == "other":
        other = draw(st.sampled_from([(0, 1), 1, F(1, 2), "pi/2", Direction]))
        return lambda: other
    if kind == "raw":
        if draw(st.booleans()):
            angle = (draw(NUMBER), draw(st.one_of(st.booleans(), st.booleans(), SMALL)))
            return lambda: Direction(angle=angle)
        ray = draw(st.one_of(
            st.sampled_from([(0, 0), (0.5, 1), ("1", "2"), (1, 2, 3), (0, 0.0)]),
            st.tuples(SMALL, SMALL), st.tuples(NUMBER, NUMBER), st.none(),
        ))
        return (lambda: Direction()) if ray is None else (lambda: Direction(ray=ray))
    if kind == "vector":
        wx, wy = draw(num), draw(num)
        return lambda: Direction.from_vector(wx, wy)
    q = draw(num)
    return (lambda: Direction.from_theta_pi(q)) if kind == "theta_pi" else (lambda: Direction.from_radians(q))


# the message Python itself gives when one of its limits is met, or when an
# operation meets an operand it does not take
PYTHON_MESSAGES = (
    "Exceeds the limit",
    "integer string conversion",
    "maximum recursion depth",
    "too large to convert",
    "int too large",
    "cannot convert float",
    "invalid literal",
    "can't multiply sequence",
    "unsupported operand",
    "values to unpack",
)


def _call(make):
    """make()'s value, or None when it raises an allowed error with
    pathvar's own message."""
    try:
        return make()
    except (ValueError, TypeError, ResourceError) as exc:
        message = str(exc)
        assert not any(python in message for python in PYTHON_MESSAGES), repr(exc)
        return None


@settings(
    max_examples=320,
    deadline=timedelta(seconds=2),
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    paths(),
    directions(),
    st.sampled_from(["length", "variation", "decide", "profile"]),
    EPS,
    BRACKET,
    COUNT,
    ORACLE,
    COARSE,
    FIXED_BRACKET,
)
def test_library_entry_points_keep_their_contract(
    make_path, make_direction, op, eps, bracket, count, oracle, coarse, fixed_bracket
):
    path = _call(make_path)
    d = _call(make_direction)
    if path is None or (d is None and op in ("variation", "decide")):
        return
    # the reverse route at a fine tolerance meets the mesh cap only past the
    # deadline, so a length oracle comes with a coarse tolerance or bracket
    if oracle == "own":
        length_oracle = _call(lambda: CroftonLengthOracle(path))  # None for a sampled graph
    else:
        length_oracle = {None: None, "other": OTHER, "object": object()}[oracle]
    if length_oracle is not None:
        eps, bracket = coarse, fixed_bracket
    # another path's oracle, or a non-oracle, certifies nothing but a sampled graph's bracket
    refused = oracle == "object" or oracle == "other" and path != OTHER.path
    refused = refused and not isinstance(path, SampledGraph)
    if op == "length":
        answer = _call(lambda: certified_length(path, eps))
    elif op == "variation":
        answer = _call(lambda: certified_variation(path, d, eps, length_oracle))
        assert answer is None or not refused
    elif op == "decide":
        answer = _call(lambda: variation_order_decide(path, d, *bracket, length_oracle))
        assert answer is None or isinstance(answer, (Verdict, Certificate)) and not refused
        return
    else:
        answer = _call(lambda: variation_profile(path, count, eps))
        assert answer is None or all(isinstance(cert, Certificate) for _, cert in answer)
        return
    assert answer is None or isinstance(answer, Certificate)

"""Seeded query lists for the three workloads, and the checks on their answers.

Generation is pure data and imports no pathvar: a workload seed fixes every
path, direction, tolerance and bracket, and the program under test only sees
the generated objects.  What varies with the seed is deliberately
cost-neutral (coordinates, coefficients, direction choice), while the path
sizes, degrees and query kinds are fixed, so that runs on different seeds
measure the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import reference as ref

F = Fraction

WORKLOADS = ("polyline", "polynomial", "cli")

PI_FRACTIONS = (F(1, 3), F(1, 5), F(2, 5), F(2, 7), F(3, 7), F(3, 8), F(5, 12), F(7, 12))
RADIANS = (F(1, 4), F(2, 5), F(3, 4), F(1), F(5, 4), F(7, 5))

EPS_POLYLINE = F(1, 10**9)
EPS_POLY_LENGTH = F(1, 10**6)
EPS_COARSE_LENGTH = F(1, 1000)
# per-node Crofton tolerances on the parabola: at 1/20 the net has 1,269
# nodes; at 1/40 (2,537 nodes) its trig working set no longer fits the
# 8,192-entry trig cache, so every cycle re-derives node snaps
EPS_NET = (F(1, 20), F(1, 40))
EPS_POLY_VARIATION = F(1, 1000)
EPS_ACHIEVE = F(1, 10**9)
DECIDE_WIDTH = F(1, 50)


@dataclass(frozen=True)
class PathData:
    """A path as plain data.  kind is sawtooth, tilt (of a sawtooth),
    polyline or polynomial."""

    name: str
    kind: str
    n: int = 0
    vertices: tuple = ()
    x: tuple = ()
    y: tuple = ()


@dataclass(frozen=True)
class Query:
    """One library call.  op is length, length_net (per-node Crofton route),
    variation, achieve (critical-point oracle) or decide."""

    op: str
    path: str
    eps: Optional[Fraction] = None
    direction: Optional[tuple] = None
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None

    @property
    def kind(self) -> str:
        if self.op in ("length", "length_net"):
            return "length"
        if self.op in ("variation", "achieve"):
            return "variation"
        return "other"


@dataclass(frozen=True)
class CliQuery:
    """One `python -m pathvar` invocation.  argv names input files as
    {name}; check says what the stdout must satisfy; probe marks the
    ROADMAP robustness probes, which are reported apart from the mix."""

    argv: tuple
    expect: int
    kind: str
    check: tuple = ("none",)
    probe: bool = False


# -- shared pieces ---------------------------------------------------------------


def _ray(rng) -> tuple:
    while True:
        wx, wy = rng.randint(-9, 9), rng.randint(-9, 9)
        if (wx, wy) != (0, 0):
            return ("ray", F(wx), F(wy))


def _angle(rng, kind: str) -> tuple:
    if kind == "pi":
        return ("pi", rng.choice(PI_FRACTIONS))
    return ("rad", rng.choice(RADIANS))


def _bracket(rng, approx: float) -> tuple[Fraction, Fraction]:
    """A bracket of width DECIDE_WIDTH placed near the true value, so both
    verdicts are in play."""
    a = F(round(approx * 256), 256) - DECIDE_WIDTH * F(rng.randint(1, 3), 4)
    return a, a + DECIDE_WIDTH


def path_variation(pd: PathData, direction: tuple):
    if pd.kind == "sawtooth":
        return ref.sawtooth_variation(direction)
    if pd.kind == "polynomial":
        return ref.polynomial_variation(pd.x, pd.y, direction)
    return ref.polyline_variation(pd.vertices, direction)


def path_length(pd: PathData):
    if pd.kind == "sawtooth":
        return ref.SAWTOOTH_LENGTH
    if pd.kind == "polynomial":
        return ref.polynomial_length(pd.x, pd.y)
    return ref.polyline_length(pd.vertices)


# -- polyline workload -----------------------------------------------------------
#
# Timings on a shared host vary by a third from query to query, so each
# reported percentile is placed inside a class of equally sized paths that
# contributes many samples, rather than between two lone queries of very
# different cost.  Every path of a class gets one length query, one
# variation along an exact ray and one along an angle, so the length and
# variation medians fall in the same class as the overall median.


def _random_polyline(rng, m: int) -> tuple:
    x = y = F(0)
    verts = [(x, y)]
    while len(verts) < m:
        dx, dy = F(rng.randint(-16, 16), 16), F(rng.randint(-16, 16), 16)
        if dx or dy:
            x, y = x + dx, y + dy
            verts.append((x, y))
    return tuple(verts)


# size classes: (sawtooth scales, random polyline sizes).  sawtooth(n) and
# its tilt have 2**(n+1) + 1 vertices.  The 257-vertex class holds the
# medians and the 1,025-vertex class the 90th percentile.
POLYLINE_CLASSES = (
    ((6,), (65, 65, 65, 129, 129, 129)),
    ((7,), (257,) * 16),
    ((8,), (513,)),
    ((9,), (1025,)),
)


def polyline_workload(seed: int) -> tuple[dict, list]:
    rng = random.Random(seed)
    paths: dict[str, PathData] = {}
    queries: list[Query] = []

    def add(pd: PathData) -> str:
        paths[pd.name] = pd
        return pd.name

    def sawtooth(n: int) -> str:
        return add(PathData(f"sawtooth-{n}", "sawtooth", n=n))

    def tilt(n: int) -> str:
        return add(PathData(f"tilt-{n}", "tilt", n=n,
                            vertices=ref.tilt_vertices(ref.sawtooth_vertices(n))))

    def polyline(m: int) -> str:
        return add(PathData(f"polyline-{m}-{len(paths)}", "polyline",
                            vertices=_random_polyline(rng, m)))

    def decide(name: str, ray: tuple) -> Query:
        a, b = _bracket(rng, path_variation(paths[name], ray).approx())
        return Query("decide", name, None, ray, a, b)

    angle_kinds = ("pi", "rad")
    for scales, sizes in POLYLINE_CLASSES:
        names = [sawtooth(n) for n in scales] + [tilt(n) for n in scales]
        names += [polyline(m) for m in sizes]
        for i, name in enumerate(names):
            queries += [
                Query("length", name, EPS_POLYLINE),
                Query("variation", name, EPS_POLYLINE, _ray(rng)),
                Query("variation", name, EPS_POLYLINE, _angle(rng, angle_kinds[i % 2])),
            ]
        randoms = names[2 * len(scales):]
        count = 4 if len(randoms) > 4 else 1
        queries += [decide(name, _ray(rng)) for name in randoms[:count]]
    # the largest paths, fewer than a tenth of the queries
    big = polyline(2049)
    queries += [
        Query("variation", sawtooth(10), EPS_POLYLINE, _angle(rng, "pi")),
        Query("length", sawtooth(11), EPS_POLYLINE),
        Query("variation", "sawtooth-11", EPS_POLYLINE, _ray(rng)),
        Query("length", tilt(10), EPS_POLYLINE),
        Query("variation", big, EPS_POLYLINE, _angle(rng, "rad")),
    ]
    return paths, queries


# -- polynomial workload ---------------------------------------------------------


def _random_polynomial(rng, degree: int, name: str) -> PathData:
    """x = t + b t**2, y = a1 t + a2 t**2 + ... with small dyadic
    coefficients.  The a_k (k >= 2) are nonnegative and drawn from ranges
    that keep the bound on |alpha''| inside one factor-of-4 band per degree,
    so the uniform-witness mesh, and with it the cost of each query, is the
    same for every seed."""
    b = F(rng.randint(0, 2), 16)
    a1 = F(rng.randint(-8, 8), 8)
    if degree == 2:
        y = (F(0), a1, F(rng.randint(12, 16), 16))
    elif degree == 3:
        y = (F(0), a1, F(rng.randint(4, 12), 16), F(rng.randint(1, 2), 16))
    else:
        y = (F(0), a1, F(rng.randint(8, 12), 16), F(rng.randint(1, 2), 16),
             F(rng.randint(1, 2), 32))
    return PathData(name, "polynomial", x=(F(0), F(1), b), y=y)


def polynomial_workload(seed: int) -> tuple[dict, list]:
    """Heavy queries (the per-node nets, the refinement-gain variations, the
    quartic's and the degree-4 path's lengths), a class of uniform-witness
    lengths at 1e-6 and decisions at 0.1-0.3 s that holds the 90th
    percentile and the length median, and many critical-point
    achieve_variation calls of about a millisecond that hold the overall
    and variation medians."""
    rng = random.Random(seed)
    paths = {
        "parabola": PathData("parabola", "polynomial", x=ref.PARABOLA_X, y=ref.PARABOLA_Y),
        "quartic": PathData("quartic", "polynomial", x=(F(0), F(1)), y=(F(0),) * 4 + (F(1),)),
    }
    for degree, count in ((2, 3), (3, 5), (4, 1)):
        for j in range(count):
            pd = _random_polynomial(rng, degree, f"random-deg{degree}-{j}")
            paths[pd.name] = pd
    vertical = ("ray", F(0), F(1))
    queries = [
        Query("length_net", "parabola", EPS_NET[0]),
        Query("length_net", "parabola", EPS_NET[1]),
        Query("variation", "parabola", EPS_POLY_VARIATION, vertical),
        Query("variation", "random-deg2-0", EPS_POLY_VARIATION, _ray(rng)),
    ]
    queries += [Query("length", name, EPS_POLY_LENGTH) for name in paths]
    # four coarse lengths below that class balance the four heavy length
    # queries above it, so that the length median falls in its middle
    queries += [Query("length", name, EPS_COARSE_LENGTH) for name in list(paths)[2:6]]
    for name in ("parabola", "random-deg2-0", "random-deg3-0"):
        d = _ray(rng)
        a, b = _bracket(rng, path_variation(paths[name], d).approx())
        queries.append(Query("decide", name, None, d, a, b))
    # costs of the critical-point oracle rise from parabola rays through
    # parabola angles to the quartic; the counts place the overall and the
    # variation medians inside the dense middle of the parabola group
    for count, name, kinds in ((37, "parabola", (0,)), (26, "parabola", (1, 2)),
                               (4, "quartic", (0, 1, 2)), (1, "quartic", (1,))):
        for _ in range(count):
            ds = _one_critical_point(rng)
            queries += [Query("achieve", name, EPS_ACHIEVE, ds[k]) for k in kinds]
    return paths, queries


# angles in (pi/2, pi - atan(1/2)), where the projection of the parabola
# (t, t**2), and of the quartic (t, t**4), has one interior critical point
CRITICAL_PI = (F(7, 12), F(3, 5), F(5, 8), F(2, 3), F(7, 10), F(5, 7), F(3, 4), F(4, 5))
CRITICAL_RADIANS = (F(8, 5), F(13, 8), F(7, 4), F(2), F(9, 4), F(5, 2))


def _one_critical_point(rng) -> list[tuple]:
    """A ray, a pi-fraction and a radian direction along each of which the
    parabola's and the quartic's projections have exactly one critical point
    in (0, 1), never a dyadic one, so the critical-point oracle does the same
    work for every seed.  For the ray (wx, wy) the parabola's critical point
    is -wx / (2 wy); an odd wy that does not divide wx keeps it off the
    dyadic grid."""
    wy = rng.choice((3, 5, 7, 9))
    wx = -rng.choice([k for k in range(1, 2 * wy) if k % wy])
    sign = rng.choice((1, -1))
    return [
        ("ray", F(sign * wx), F(sign * wy)),
        ("pi", rng.choice(CRITICAL_PI)),
        ("rad", rng.choice(CRITICAL_RADIANS)),
    ]


def warm_set(queries: list) -> list:
    """The first query of each op.  Per-node Crofton queries are left out:
    their trig working set overflows the trig cache within the cycle, so
    warming them cannot carry over to the timed loop."""
    seen, out = set(), []
    for q in queries:
        if q.op not in seen and q.op != "length_net":
            seen.add(q.op)
            out.append(q)
    return out


# -- cli workload ------------------------------------------------------------------


def _sampled_graph(rng) -> dict:
    """Eight cells with slopes in [-2, 2] under the declared Lipschitz 2."""
    y = F(0)
    samples = [[0, 0]]
    for j in range(1, 9):
        y += F(rng.randint(-4, 4), 16)
        samples.append([f"{j}/8", str(y)])
    return {"kind": "sampled-graph", "samples": samples, "lipschitz": 2}


def cli_workload(seed: int) -> tuple[dict, list]:
    """Inputs as wire-format JSON objects keyed by name, and the argv list."""
    rng = random.Random(seed)
    inputs: dict[str, dict] = {f"saw{n}": {"kind": "sawtooth", "n": n} for n in range(2, 7)}
    inputs["diagonal"] = {"kind": "polyline", "vertices": [[0, 0], [1, 1]]}
    inputs["parabola"] = {"kind": "polynomial", "x": [0, 1], "y": [0, 0, 1]}
    inputs["quartic"] = {"kind": "polynomial", "x": [0, 1], "y": [0, 0, 0, 0, 1]}
    inputs["sampled"] = _sampled_graph(rng)

    parabola = PathData("parabola", "polynomial", x=ref.PARABOLA_X, y=ref.PARABOLA_Y)
    quartic = PathData("quartic", "polynomial", x=(F(0), F(1)), y=(F(0),) * 4 + (F(1),))
    gen_n = rng.randint(2, 6)
    bits = [0] * rng.randint(1, 3) + [1]
    decide_dir = _ray(rng)
    a, b = _bracket(rng, path_variation(parabola, decide_dir).approx())
    ray = ("ray", F(3), F(4))
    saw = lambda n: PathData(f"saw{n}", "sawtooth", n=n)  # noqa: E731
    diagonal = PathData("diagonal", "polyline", vertices=((F(0), F(0)), (F(1), F(1))))
    q = CliQuery
    queries = [
        q(("gen", "sawtooth", "--n", str(gen_n)), 0, "other",
          ("gen", {"kind": "sawtooth", "n": gen_n})),
        q(("gen", "tilted", "--bits", ",".join(map(str, bits))), 0, "other",
          ("gen-polyline", (1 << (len(bits) + 1)) + 1)),
    ]
    # lengths (cold two-direction constant, 0.2 s) are a third of the
    # measured mix, so that the 90th percentile falls inside their class
    queries += [q(("length", f"{{saw{n}}}", "--eps", "1e-9"), 0, "length", ("length", saw(n)))
                for n in range(2, 7)]
    queries += [
        q(("length", "{diagonal}", "--eps", "1e-9"), 0, "length", ("length", diagonal)),
        q(("length", "{parabola}", "--eps", "1e-3"), 0, "length", ("length", parabola)),
        q(("length", "{quartic}", "--eps", "1e-3"), 0, "length", ("length", quartic)),
        q(("variation", "{saw2}", "--theta", "pi/3", "--eps", "1e-9"), 0, "variation",
          ("variation", saw(2), ("pi", F(1, 3)))),
        q(("variation", "{saw4}", "--theta", "0.25", "--eps", "1e-9"), 0, "variation",
          ("variation", saw(4), ("rad", F(1, 4)))),
        q(("variation", "{saw6}", "--direction", "3,4", "--eps", "1e-9"), 0, "variation",
          ("variation", saw(6), ray)),
        q(("variation", "{saw5}", "--theta", "3pi/4", "--eps", "1e-9"), 0, "variation",
          ("variation", saw(5), ("pi", F(3, 4)))),
        q(("variation", "{parabola}", "--theta", "pi/3", "--eps", "1e-9"), 0, "variation",
          ("variation", parabola, ("pi", F(1, 3)))),
        q(("variation", "{quartic}", "--direction", "1,2", "--eps", "1e-9"), 0, "variation",
          ("variation", quartic, ("ray", F(1), F(2)))),
        q(("variation", "{saw3}", "--theta", "1/3", "--eps", "1e-9"), 0, "variation",
          ("variation", saw(3), ("rad", F(1, 3)))),
        q(("variation", "{saw6}", "--theta", "pi/5", "--eps", "1e-9"), 0, "variation",
          ("variation", saw(6), ("pi", F(1, 5)))),
        q(("variation", "{parabola}", "--direction", "1,1", "--eps", "1e-9"), 0, "variation",
          ("variation", parabola, ("ray", F(1), F(1)))),
        q(("profile", "{saw3}", "--count", "8", "--format", "csv"), 0, "other",
          ("profile", saw(3), 8, "csv")),
        q(("profile", "{parabola}", "--count", "4", "--format", "json"), 0, "other",
          ("profile", parabola, 4, "json")),
        q(("decide", "{saw5}", "--theta", "pi/2", "--a", "0.9", "--b", "1.1"), 0, "other",
          ("decide", saw(5), ("ray", F(0), F(1)), F(9, 10), F(11, 10))),
        # "=" keeps a negative component from reading as an option
        q(("decide", "{parabola}", f"--direction={decide_dir[1]},{decide_dir[2]}",
           "--a", str(a), "--b", str(b)), 0, "other", ("decide", parabola, decide_dir, a, b)),
        q(("demo", "--n", "8", "--k", "3"), 0, "other", ("demo",)),
        # sampled graphs: an honest non-shrinking bracket, exit 3
        q(("length", "{sampled}"), 3, "other", ("bracket",)),
        q(("variation", "{sampled}", "--theta", "pi/4"), 3, "other", ("bracket",)),
        q(("decide", "{sampled}", "--theta", "0", "--a", "0.1", "--b", "0.2"), 3, "other",
          ("bracket",)),
        # malformed arguments: rejection, exit 2
        q(("length", "{saw2}", "--eps", "nope"), 2, "other"),
        q(("variation", "{saw2}", "--eps", "1e-6"), 2, "other"),
        q(("decide", "{saw2}", "--theta", "0", "--a", "1", "--b", "0.5"), 2, "other"),
        q(("length", "{missing}"), 2, "other"),
        # ROADMAP robustness probes, with the exit each one should have
        q(("length", "{saw2}", "--digits", "-1"), 2, "other", probe=True),
        q(("length", "{saw2}", "--workers", "0"), 2, "other", probe=True),
        q(("decide", "{parabola}", "--direction", "0,1", "--a", "0.99999999",
           "--b", "1.00000001"), 0, "other",
          ("decide", parabola, ("ray", F(0), F(1)), F("0.99999999"), F("1.00000001")),
          probe=True),
        q(("length", "{diagonal}", "--eps", "1e-6"), 0, "length",
          ("length-walked", diagonal),
          probe=True),
    ]
    return inputs, queries


def build(workload: str, seed: int):
    if workload == "polyline":
        return polyline_workload(seed)
    if workload == "polynomial":
        return polynomial_workload(seed)
    if workload == "cli":
        return cli_workload(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- checks on library answers -----------------------------------------------------


def check_library(q: Query, pd: PathData, answer: tuple) -> tuple[bool, Optional[Fraction], str]:
    """(correct, width/eps for a converged certificate or None, message)."""
    tag = answer[0]
    if tag == "cert":
        _, lo, hi, tol, kind = answer
        truth = path_length(pd) if q.kind == "length" else path_variation(pd, q.direction)
        if kind != "two-sided-converged" or tol != q.eps:
            return False, None, f"unexpected certificate kind {kind} or tolerance {tol}"
        if hi - lo > q.eps:
            return False, None, f"certificate wider than eps: {float(hi - lo)!r}"
        if not truth.within(lo, hi):
            return False, None, f"certificate [{float(lo)!r}, {float(hi)!r}] misses the reference"
        return True, (hi - lo) / q.eps, ""
    truth = path_variation(pd, q.direction)
    if tag == "enclosure":
        _, lo, hi = answer
        # oracle contract: v_{d,P} is enclosed and v_d <= v_{d,P} + eps
        ok = truth.within(lo, hi, slack=q.eps)
        return ok, None, "" if ok else "oracle enclosure misses the reference"
    verdict = answer[1]
    return _verdict_ok(truth, verdict, q.a, q.b)


_BIG = F(10**9)


def _verdict_ok(truth, verdict: str, a: Fraction, b: Fraction):
    if verdict == "greater-than-a":
        ok = truth.within(a, _BIG)
    elif verdict == "less-than-b":
        ok = truth.within(-_BIG, b)
    else:
        ok = False
    return ok, None, "" if ok else f"verdict {verdict} is wrong for bracket ({a}, {b})"


# -- checks on cli answers -----------------------------------------------------------


def check_cli(q: CliQuery, code: int, stdout: str) -> tuple[bool, Optional[Fraction], str]:
    """(passed, width/tolerance for a converged certificate or None, message)."""
    if code != q.expect:
        return False, None, f"exit {code}, expected {q.expect}"
    check = q.check
    what = check[0]
    if what == "none":
        return True, None, ""
    try:
        if what == "profile" and check[3] == "csv":
            doc = None
        else:
            doc = json.loads(stdout)
    except json.JSONDecodeError:
        return False, None, "stdout is not JSON"
    if what == "gen":
        ok = doc == check[1]
        return ok, None, "" if ok else "unexpected gen output"
    if what == "gen-polyline":
        ok = doc.get("kind") == "polyline" and len(doc.get("vertices", ())) == check[1]
        return ok, None, "" if ok else "unexpected tilted output"
    if what == "bracket":
        ok = doc.get("kind") == "non-shrinking-bracket" and F(doc["value"]["lo"]) <= F(doc["value"]["hi"])
        return ok, None, "" if ok else "malformed bracket"
    if what in ("length", "length-walked", "variation"):
        pd = check[1]
        truth = path_variation(pd, check[2]) if what == "variation" else path_length(pd)
        lo, hi, tol = F(doc["value"]["lo"]), F(doc["value"]["hi"]), F(doc["tolerance"])
        if doc.get("kind") != "two-sided-converged":
            return False, None, "not a converged certificate"
        if hi - lo > tol:
            return False, None, "certificate wider than its tolerance"
        if not truth.within(lo, hi):
            return False, None, "certificate misses the reference"
        if what == "length-walked" and _unwalked_net(doc):
            return False, None, f"reports net_size {doc['net_size']} but walked no net node"
        return True, (hi - lo) / tol, ""
    if what == "decide":
        _, pd, direction, a, b = check
        return _verdict_ok(path_variation(pd, direction), doc.get("verdict"), a, b)
    if what == "profile":
        return _check_profile(check, doc, stdout)
    if what == "demo":
        # the vertical variation of every sawtooth is exactly 1
        one = ref.Sqrt(F(1))
        exact, bracket = doc["exact"]["value"], doc["bracket"]["value"]
        ok = one.within(F(exact["lo"]), F(exact["hi"])) and one.within(
            F(bracket["lo"]), F(bracket["hi"])
        )
        return ok, None, "" if ok else "demo certificate misses 1"
    return False, None, f"unknown check {what!r}"


def _unwalked_net(doc: dict) -> bool:
    """A length certificate that names a direction net it never walked: the
    uniform-witness route reports net_size although no net node was
    evaluated.  A certificate that reports the nodes it evaluated passes."""
    size = doc.get("net_size")
    if not size:
        return False
    work = doc.get("work") or {}
    walked = work.get("net_nodes_evaluated")
    if walked is not None:
        return walked != size
    return "node_defect" not in (doc.get("budget") or {})


def _check_profile(check: tuple, doc, stdout: str):
    _, pd, count, fmt = check
    if fmt == "csv":
        lines = stdout.strip().splitlines()[1:]
        rows = [tuple(F(v) for v in line.split(",")[2:]) for line in lines]
    else:
        rows = [(F(r["v"]["lo"]), F(r["v"]["hi"])) for r in doc["rows"]]
    if len(rows) != count + 1:
        return False, None, f"{len(rows)} profile rows, expected {count + 1}"
    for j, (lo, hi) in enumerate(rows):
        q = F(j, count) % 1
        direction = ("ray", F(1), F(0)) if q == 0 else (
            ("ray", F(0), F(1)) if q == F(1, 2) else ("pi", q)
        )
        # rows are oracle answers: v_{d,P} enclosed, padded by the tolerance
        if not path_variation(pd, direction).within(lo, hi):
            return False, None, f"profile row {j} misses the reference"
    return True, None, ""

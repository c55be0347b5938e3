"""Planar path descriptions and their exact evaluation.

Three kinds are supported: explicit polylines, polynomial coordinate pairs
and Lipschitz-bounded sampled graphs.  Polylines and polynomial paths
evaluate to exact rationals at rational parameters; the sampled graph is
known only at its samples, so eval_rational answers None in between and no
enclosure is offered there (its honest brackets live in pathvar.oracles).
A polyline caches its vertex partition and its chords, runs of integer
pairs over a common denominator (Run, Chords): chords built once per path.

The paper's counterexamples are polylines with a compact spelling: the
sawtooth graph t -> (t, f_n(t)) with f_n(t) = 2**-n * inf_k |2**n t - k|,
and the mixture carrying at most one active sawtooth scale.  Their chords
are one tooth repeated 2**n times, their partition is counted from them and
eval_rational takes f_n in closed form; corners only where a vertex is read (tilt).

JSON wire format (numbers may be integers, decimal strings, "p/q" strings,
or exact reinterpretations of float literals, all read under the caps of
pathvar.numerics.dyadic.parse_exact: the JSON reader checks shapes and
refuses a missing field or nesting past the recursion limit, and the
constructors read each number through to_fraction; each path class
names its kind in the class attribute `kind` and the fields it writes in
`_fields`, and a polyline has two compact spellings besides its vertices):

    {"kind": "polyline", "vertices": [[x, y], ...]}
    {"kind": "sawtooth", "n": 3}
    {"kind": "mixture", "bits": [0, 0, 1]}
    {"kind": "polynomial", "x": [c0, c1, ...], "y": [c0, c1, ...]}
    {"kind": "sampled-graph", "samples": [[t, y], ...], "lipschitz": L}
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from functools import cached_property
from fractions import Fraction
from operator import sub
from typing import NamedTuple, Optional, Union

from ..numerics.dyadic import parse_exact, sqrt_up, to_fraction
from ..numerics.ratpoly import RationalPoly, square_free_chain, sturm_isolate, widen_point
from .partitions import Partition

# The one cap on the points the library builds: a sawtooth's corners, the
# demo's samples, a uniform witness mesh and the nodes of a direction net.
SAWTOOTH_VERTEX_CAP = (1 << 21) + 1


class ResourceError(RuntimeError):
    """A certified computation exceeded its configured resource budget."""


# Bit length past which a run of chords through points takes no new denominator.
RUN_BITS = 256


class Run(NamedTuple):
    """Consecutive chords (dx[i], dy[i]) / den: integer numerators over one
    common denominator den > 0, the period dx, dy taken repeat times."""

    dx: tuple[int, ...]
    dy: tuple[int, ...]
    den: int
    repeat: int = 1


class Chords:
    """A chord decomposition, as runs of consecutive chords in order.
    len() counts the chords, a run's period once per repeat.  sectors holds
    what pathvar.variation.chord_variation keeps: None, False or its views."""

    __slots__ = ("runs", "sectors")

    def __init__(self, runs: tuple[Run, ...]):
        self.runs = runs
        self.sectors = None

    def __len__(self):
        return sum(len(run.dx) * run.repeat for run in self.runs)

    def total(self, bounds) -> tuple[int, int]:
        """The integer bounds (lo, hi) of each run, given in the runs' order,
        taken repeat times and added: how both chord kernels add their
        rounded terms."""
        lo = hi = 0
        for run, (run_lo, run_hi) in zip(self.runs, bounds):
            lo, hi = lo + run_lo * run.repeat, hi + run_hi * run.repeat
        return lo, hi


def numerators_over(qs, den: int) -> list[int]:
    """The integers n with n / den = q, for rationals q whose denominators
    divide den."""
    return [q.numerator * (den // q.denominator) for q in qs]


def _run_through(points, den: int) -> Run:
    xs = numerators_over((x for x, _ in points), den)
    ys = numerators_over((y for _, y in points), den)
    return Run(tuple(map(sub, xs[1:], xs)), tuple(map(sub, ys[1:], ys)), den)


def chords_through(points) -> Chords:
    """Chords between consecutive exact points (pairs of Fractions or ints).
    A run goes on over the least common denominator of its points'
    coordinates while that stays within RUN_BITS bits, or while the run has
    no chord yet; the next run starts at the point where this one ends."""
    runs, start, den = [], 0, 1
    for i, (x, y) in enumerate(points):
        if den % x.denominator == 0 and den % y.denominator == 0:
            continue
        joined = math.lcm(den, x.denominator, y.denominator)
        if joined.bit_length() > RUN_BITS and i - start > 1:
            runs.append(_run_through(points[start:i], den))
            start = i - 1
            prev_x, prev_y = points[start]
            joined = math.lcm(prev_x.denominator, prev_y.denominator, x.denominator, y.denominator)
        den = joined
    runs.append(_run_through(points[start:], den))
    return Chords(tuple(runs))


class _Record:
    """A frozen record of the attributes its class names in _fields, set once
    by __init__: == and hash over them within one class, a repr naming them,
    and AttributeError on assignment.  Instances keep a __dict__, where
    cached_property stores what it builds and where copy and pickle restore
    the fields without assigning."""

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, *value):  # with no value, also __delattr__
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is frozen")

    __delattr__ = __setattr__


class Polyline(_Record):
    kind = "polyline"
    _fields = ("vertices",)

    def __init__(self, vertices: tuple[tuple[Fraction, Fraction], ...]):
        vs = tuple((to_fraction(x), to_fraction(y)) for x, y in vertices)
        if not vs:
            raise ValueError("polyline needs at least one vertex")
        vars(self).update(vertices=vs)

    @cached_property
    def vertex_partition(self) -> Partition:
        """Vertex j at parameter j / 2**k for j < m - 1 and the last at 1,
        with 2**k the least power of two that is at least the m - 1
        vertex_chords; the trivial partition for a single vertex."""
        cells = len(self.vertex_chords)
        if cells == 0:
            return Partition.trivial()
        k = (cells - 1).bit_length()
        return Partition.on_grid(range(cells + 1) if cells == 1 << k else (*range(cells), 1 << k), k)

    @cached_property
    def vertex_chords(self) -> Chords:
        """The chords over the vertex partition, built once per path."""
        return chords_through(self.vertices)


class PolynomialPath(_Record):
    kind = "polynomial"
    _fields = ("x", "y")

    def __init__(self, x: RationalPoly, y: RationalPoly):
        if not (isinstance(x, RationalPoly) and isinstance(y, RationalPoly)):
            raise TypeError("polynomial path coordinates must be RationalPoly")
        vars(self).update(x=x, y=y)

    # bounds on |alpha'| and |alpha''| over [0, 1], built once per path
    @cached_property
    def speed_bound(self) -> Fraction:
        return _sup_norm_bound(self.x.derivative(), self.y.derivative())

    @cached_property
    def bend_bound(self) -> Fraction:
        return _sup_norm_bound(self.x.derivative().derivative(), self.y.derivative().derivative())

    @cached_property
    def turning(self) -> tuple:
        """(x', y', s, ends, tangents): s is the square-free part of T = x' y' (x' y'' - x'' y'),
        nonzero factors only; ends are 0, cells (nl, nh, q) of positive width around T's roots in
        (0, 1) and at a cusp alpha' = 0 at an end, and 1.  Between cells alpha' turns one way in one
        quadrant.  tangents are integer pairs, positive multiples of alpha'(0) and alpha'(1)."""
        xp, yp = self.x.derivative(), self.y.derivative()
        fs = (xp, yp, xp * yp.derivative() - xp.derivative() * yp)
        chain = square_free_chain(math.prod((f for f in fs if not f.is_zero()), start=RationalPoly([1])))
        cells = [widen_point(*c) for c in sturm_isolate(chain[0], chain) if 0 < c[1] and c[0] < c[2]]
        (a, _, qa), (_, b, qb) = (cells[0], cells[-1]) if cells else ((1, 1, 1), (0, 0, 1))
        cusp = [not xp.sign_at(e) and not yp.sign_at(e) for e in (0, 1)]
        cells = [(0, 0, 1)] + [(0, a, 2 * qa)] * cusp[0] + cells + [(b + qb, 2 * qb, 2 * qb)] * cusp[1]
        tangents = tuple((xp.horner(e) * yp.den, yp.horner(e) * xp.den) for e in (0, 1))
        return xp, yp, chain[0], (*cells, (1, 1, 1)), tangents


def _sup_norm_bound(px: RationalPoly, py: RationalPoly) -> Fraction:
    ax, ay = (Fraction(max(-lo, hi), s) for lo, hi, s in (px.range_ints(0, 1), py.range_ints(0, 1)))
    return sqrt_up(ax * ax + ay * ay, -32)


class SampledGraph(_Record):
    kind = "sampled-graph"
    _fields = ("samples", "lipschitz")

    def __init__(self, samples: tuple[tuple[Fraction, Fraction], ...], lipschitz: Fraction):
        ss = tuple((to_fraction(t), to_fraction(y)) for t, y in samples)
        lip = to_fraction(lipschitz)
        if len(ss) < 2 or ss[0][0] != 0 or ss[-1][0] != 1:
            raise ValueError("samples must run from t=0 to t=1")
        if lip < 0:
            raise ValueError("Lipschitz constant must be nonnegative")
        for (t0, y0), (t1, y1) in zip(ss, ss[1:]):
            if t1 <= t0:
                raise ValueError("sample parameters must be strictly increasing")
            if abs(y1 - y0) > lip * (t1 - t0):
                raise ValueError("samples violate the declared Lipschitz constant")
        vars(self).update(samples=ss, lipschitz=lip)


def _teeth_cells(path) -> int:
    """2**(n+1) for the scale-n teeth, n = path.active_scale(), or 1 for the flat
    segment: the one SAWTOOTH_VERTEX_CAP check, before any shift (n + 2 bits)."""
    n = path.active_scale()
    if n is None:
        return 1
    if n + 2 > SAWTOOTH_VERTEX_CAP.bit_length():
        raise ResourceError(f"sawtooth scale exceeds the vertex cap of {SAWTOOTH_VERTEX_CAP} vertices")
    return 1 << (n + 1)


def _corners(path) -> tuple[tuple[Fraction, Fraction], ...]:
    """The corners (j / cells, (j mod 2) / cells), j = 0..cells; one cell is flat."""
    cells = _teeth_cells(path)
    if cells == 1:
        return ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    return tuple((Fraction(j, cells), Fraction(j & 1, cells)) for j in range(cells + 1))


class _Teeth:
    """The vertices and the chords of a sawtooth or a mixture, from its
    scale alone; the corners only where a vertex is read."""

    vertices = cached_property(_corners)

    @cached_property
    def vertex_chords(self) -> Chords:
        """The tooth (1, 1), (1, -1) over 2**(n+1), repeated 2**n times."""
        cells = _teeth_cells(self)
        run = Run((1,), (0,), 1) if cells == 1 else Run((1, 1), (1, -1), cells, cells >> 1)
        return Chords((run,))


class SawtoothGraph(_Teeth, Polyline):
    kind = "sawtooth"
    _fields = ("n",)

    def __init__(self, n: int):
        if type(n) is not int or n < 0:  # no bool either
            raise ValueError("sawtooth scale must be a nonnegative integer")
        vars(self).update(n=n)

    def active_scale(self) -> int:
        return self.n


class SawtoothMixture(_Teeth, Polyline):
    kind = "mixture"
    _fields = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        bs = tuple(bits)
        if any(type(b) is not int or b not in (0, 1) for b in bs):  # no bool either
            raise ValueError("mixture bits must be 0 or 1")
        if sum(bs) > 1:
            raise ValueError("at most one mixture bit may be set")
        vars(self).update(bits=bs)

    def active_scale(self) -> Optional[int]:
        for i, b in enumerate(self.bits):
            if b:
                return i + 1
        return None


PathSpec = Union[Polyline, PolynomialPath, SampledGraph]


# -- evaluation ----------------------------------------------------------------


def eval_rational(path: PathSpec, t: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """Exact value at a rational parameter, or None for a sampled graph
    strictly between its samples, where it is not known."""
    t = to_fraction(t)
    if t < 0 or t > 1:
        raise ValueError("parameter outside [0, 1]")
    if isinstance(path, _Teeth):  # (t, 2**-n * dist(2**n t, Z)), or (t, 0) when flat
        half = _teeth_cells(path) >> 1
        return (t, abs(t * half - round(t * half)) / half if half else Fraction(0))
    if isinstance(path, Polyline):
        vs = path.vertices
        if len(vs) == 1:
            return vs[0]
        grid = path.vertex_partition
        u = t * (1 << grid.k)  # t on the vertex grid
        j = min(u.numerator // u.denominator, len(vs) - 2)
        n0, n1 = grid.nums[j], grid.nums[j + 1]
        lam = (u - n0) / (n1 - n0)
        (x0, y0), (x1, y1) = vs[j], vs[j + 1]
        return (x0 + lam * (x1 - x0), y0 + lam * (y1 - y0))
    if isinstance(path, PolynomialPath):
        return (path.x(t), path.y(t))
    if isinstance(path, SampledGraph):
        ts = [s[0] for s in path.samples]
        j = bisect_right(ts, t) - 1
        if ts[j] == t:
            return path.samples[j]
        return None
    raise TypeError(f"unknown path kind {type(path)!r}")


# -- polyline views ------------------------------------------------------------


def as_polyline(path: PathSpec) -> Optional[Polyline]:
    """The path itself when it is piecewise linear, else None."""
    return path if isinstance(path, Polyline) else None


# -- JSON codec -----------------------------------------------------------------


def path_to_json_dict(path: PathSpec) -> dict:
    """The path's kind and each of its fields: tuples as lists, a polynomial
    as its coefficients, an integer as itself and any other number as "p/q"."""
    if not isinstance(path, _Record):
        raise TypeError(f"unknown path kind {type(path)!r}")

    def wire(v):
        if isinstance(v, tuple):
            return [wire(item) for item in v]
        if isinstance(v, RationalPoly):
            return [wire(c) for c in v.coeffs]
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    return {"kind": path.kind, **{f: wire(getattr(path, f)) for f in path._fields}}


def _listed(v, what: str, length: Optional[int] = None) -> list:
    if not isinstance(v, list) or length not in (None, len(v)):
        raise ValueError(f"{what} must be a JSON list" + (f" of {length}" if length else ""))
    return v


def _pairs(v, what: str) -> tuple:
    each = f"each of the {what}"
    return tuple(_listed(p, each, 2) for p in _listed(v, what))


def path_from_json_dict(obj: dict) -> PathSpec:
    if not isinstance(obj, dict):
        raise ValueError("path description must be a JSON object")
    kind = obj.get("kind")
    if kind == "polyline":
        return Polyline(_pairs(obj.get("vertices"), "vertices"))
    if kind == "polynomial":
        return PolynomialPath(*(RationalPoly(_listed(obj.get(c), c)) for c in "xy"))
    if kind == "sampled-graph":
        if obj.get("lipschitz") is None:
            raise ValueError("lipschitz must be a number")
        return SampledGraph(_pairs(obj.get("samples"), "samples"), obj.get("lipschitz"))
    if kind == "sawtooth":
        return SawtoothGraph(obj.get("n"))
    if kind == "mixture":
        return SawtoothMixture(tuple(_listed(obj.get("bits"), "bits")))
    raise ValueError(f"unknown path kind {kind!r}")


def path_to_json(path: PathSpec) -> str:
    return json.dumps(path_to_json_dict(path), separators=(", ", ": "))


def path_from_json(text: str) -> PathSpec:
    # float literals are reinterpreted exactly as the decimal they spell, and
    # integers meet the same caps
    try:
        obj = json.loads(text, parse_float=parse_exact, parse_int=lambda i: parse_exact(i).numerator)
    except RecursionError:
        raise ValueError("path description nests past the recursion limit") from None
    return path_from_json_dict(obj)

"""Planar path descriptions and their exact evaluation.

Five kinds are supported: explicit polylines, polynomial coordinate pairs,
Lipschitz-bounded sampled graphs, sawtooth graphs t -> (t, f_n(t)) with
f_n(t) = 2**-n * inf_k |2**n t - k|, and mixtures carrying at most one active
sawtooth scale.  All kinds except the sampled graph evaluate to exact
rationals at rational parameters; the sampled graph is known only at its
samples, so eval_rational answers None in between and no enclosure is
offered there (its honest brackets live in pathvar.oracles).

JSON wire format (numbers may be integers, decimal strings, "p/q" strings,
or exact reinterpretations of float literals; each path class names its
kind in the class attribute `kind`):

    {"kind": "polyline", "vertices": [[x, y], ...]}
    {"kind": "polynomial", "x": [c0, c1, ...], "y": [c0, c1, ...]}
    {"kind": "sampled-graph", "samples": [[t, y], ...], "lipschitz": L}
    {"kind": "sawtooth", "n": 3}
    {"kind": "mixture", "bits": [0, 0, 1]}
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from ..numerics.ratpoly import RationalPoly
from .partitions import Partition

SAWTOOTH_VERTEX_CAP = (1 << 21) + 1


class ResourceError(RuntimeError):
    """A certified computation exceeded its configured resource budget."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Polyline:
    kind = "polyline"
    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        vs = tuple((_frac(x), _frac(y)) for x, y in self.vertices)
        if not vs:
            raise ValueError("polyline needs at least one vertex")
        object.__setattr__(self, "vertices", vs)

    def vertex_params(self) -> tuple[Fraction, ...]:
        """Dyadic parameter of each vertex: j * 2**-L for j < m-1, then 1."""
        cached = getattr(self, "_params", None)
        if cached is not None:
            return cached
        m = len(self.vertices)
        if m == 1:
            ps = (Fraction(0),)
        else:
            level = max(0, (m - 2).bit_length())
            ps = tuple(Fraction(j, 1 << level) for j in range(m - 1)) + (Fraction(1),)
        # frozen dataclass; the cache is derived data, not a field
        object.__setattr__(self, "_params", ps)
        return ps


@dataclass(frozen=True)
class PolynomialPath:
    kind = "polynomial"
    x: RationalPoly
    y: RationalPoly


@dataclass(frozen=True)
class SampledGraph:
    kind = "sampled-graph"
    samples: tuple[tuple[Fraction, Fraction], ...]
    lipschitz: Fraction

    def __post_init__(self):
        ss = tuple((_frac(t), _frac(y)) for t, y in self.samples)
        lip = _frac(self.lipschitz)
        if len(ss) < 2 or ss[0][0] != 0 or ss[-1][0] != 1:
            raise ValueError("samples must run from t=0 to t=1")
        if lip < 0:
            raise ValueError("Lipschitz constant must be nonnegative")
        for (t0, y0), (t1, y1) in zip(ss, ss[1:]):
            if t1 <= t0:
                raise ValueError("sample parameters must be strictly increasing")
            if abs(y1 - y0) > lip * (t1 - t0):
                raise ValueError("samples violate the declared Lipschitz constant")
        object.__setattr__(self, "samples", ss)
        object.__setattr__(self, "lipschitz", lip)


@dataclass(frozen=True)
class SawtoothGraph:
    kind = "sawtooth"
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("sawtooth scale must be nonnegative")


@dataclass(frozen=True)
class SawtoothMixture:
    kind = "mixture"
    bits: tuple[int, ...]

    def __post_init__(self):
        bs = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bs):
            raise ValueError("mixture bits must be 0 or 1")
        if sum(bs) > 1:
            raise ValueError("at most one mixture bit may be set")
        object.__setattr__(self, "bits", bs)

    def active_scale(self) -> Optional[int]:
        for i, b in enumerate(self.bits):
            if b:
                return i + 1
        return None


PathSpec = Union[Polyline, PolynomialPath, SampledGraph, SawtoothGraph, SawtoothMixture]


# -- evaluation ----------------------------------------------------------------


def _sawtooth_value(n: int, t: Fraction) -> Fraction:
    u = t * (1 << n)
    k = (u.numerator * 2 + u.denominator) // (2 * u.denominator)  # nearest integer
    return abs(u - k) / (1 << n)


def eval_rational(path: PathSpec, t: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """Exact value at a rational parameter, or None for a sampled graph
    strictly between its samples, where it is not known."""
    t = _frac(t)
    if t < 0 or t > 1:
        raise ValueError("parameter outside [0, 1]")
    if isinstance(path, Polyline):
        vs = path.vertices
        if len(vs) == 1:
            return vs[0]
        ps = path.vertex_params()
        j = bisect_right(ps, t) - 1
        if j >= len(vs) - 1:
            return vs[-1]
        t0, t1 = ps[j], ps[j + 1]
        lam = (t - t0) / (t1 - t0)
        (x0, y0), (x1, y1) = vs[j], vs[j + 1]
        return (x0 + lam * (x1 - x0), y0 + lam * (y1 - y0))
    if isinstance(path, PolynomialPath):
        return (path.x(t), path.y(t))
    if isinstance(path, SawtoothGraph):
        return (t, _sawtooth_value(path.n, t))
    if isinstance(path, SawtoothMixture):
        m = path.active_scale()
        return (t, _sawtooth_value(m, t) if m is not None else Fraction(0))
    if isinstance(path, SampledGraph):
        ts = [s[0] for s in path.samples]
        j = bisect_right(ts, t) - 1
        if ts[j] == t:
            return path.samples[j]
        return None
    raise TypeError(f"unknown path kind {type(path)!r}")


# -- canonical partitions and polyline views -----------------------------------


def canonical_partition(path: PathSpec) -> Optional[Partition]:
    """The partition a path's own structure singles out.

    None means unavailable (sampled graph with non-dyadic sample parameters).
    """
    if isinstance(path, Polyline):
        ps = list(path.vertex_params())
        if len(ps) == 1:
            return Partition.trivial()
        return Partition(ps)
    if isinstance(path, PolynomialPath):
        return Partition.trivial()
    if isinstance(path, SawtoothGraph):
        return Partition.uniform(1 << (path.n + 1))
    if isinstance(path, SawtoothMixture):
        m = path.active_scale()
        return Partition.uniform(1 << (m + 1)) if m is not None else Partition.trivial()
    if isinstance(path, SampledGraph):
        try:
            return Partition([s[0] for s in path.samples])
        except ValueError:
            return None
    raise TypeError(f"unknown path kind {type(path)!r}")


def as_polyline(path: PathSpec) -> Optional[Polyline]:
    """Exact polyline view for the piecewise-linear kinds."""
    if isinstance(path, Polyline):
        return path
    if isinstance(path, SawtoothGraph):
        n = path.n
        count = (1 << (n + 1)) + 1
        if count > SAWTOOTH_VERTEX_CAP:
            raise ResourceError(f"sawtooth scale {n} exceeds the vertex cap")
        verts = []
        for j in range(count):
            t = Fraction(j, count - 1)
            verts.append((t, _sawtooth_value(n, t)))
        return Polyline(tuple(verts))
    if isinstance(path, SawtoothMixture):
        m = path.active_scale()
        if m is None:
            return Polyline(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))
        return as_polyline(SawtoothGraph(m))
    return None


# -- JSON codec -----------------------------------------------------------------


def _num_to_json(q: Fraction):
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"


def _num_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError("booleans are not numbers")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"cannot read {v!r} as an exact number")


def path_to_json_dict(path: PathSpec) -> dict:
    if isinstance(path, Polyline):
        return {
            "kind": path.kind,
            "vertices": [[_num_to_json(x), _num_to_json(y)] for x, y in path.vertices],
        }
    if isinstance(path, PolynomialPath):
        return {
            "kind": path.kind,
            "x": [_num_to_json(c) for c in path.x.coeffs],
            "y": [_num_to_json(c) for c in path.y.coeffs],
        }
    if isinstance(path, SampledGraph):
        return {
            "kind": path.kind,
            "samples": [[_num_to_json(t), _num_to_json(y)] for t, y in path.samples],
            "lipschitz": _num_to_json(path.lipschitz),
        }
    if isinstance(path, SawtoothGraph):
        return {"kind": path.kind, "n": path.n}
    if isinstance(path, SawtoothMixture):
        return {"kind": path.kind, "bits": list(path.bits)}
    raise TypeError(f"unknown path kind {type(path)!r}")


def path_from_json_dict(obj: dict) -> PathSpec:
    if not isinstance(obj, dict):
        raise ValueError("path description must be a JSON object")
    kind = obj.get("kind")
    if kind == "polyline":
        return Polyline(tuple((_num_from_json(x), _num_from_json(y)) for x, y in obj["vertices"]))
    if kind == "polynomial":
        return PolynomialPath(
            RationalPoly([_num_from_json(c) for c in obj["x"]]),
            RationalPoly([_num_from_json(c) for c in obj["y"]]),
        )
    if kind == "sampled-graph":
        return SampledGraph(
            tuple((_num_from_json(t), _num_from_json(y)) for t, y in obj["samples"]),
            _num_from_json(obj["lipschitz"]),
        )
    if kind == "sawtooth":
        n = obj["n"]
        if not isinstance(n, int):
            raise ValueError("sawtooth scale must be an integer")
        return SawtoothGraph(n)
    if kind == "mixture":
        return SawtoothMixture(tuple(obj["bits"]))
    raise ValueError(f"unknown path kind {kind!r}")


def path_to_json(path: PathSpec) -> str:
    return json.dumps(path_to_json_dict(path), separators=(", ", ": "))


def path_from_json(text: str) -> PathSpec:
    # float literals are reinterpreted exactly as the decimal they spell
    obj = json.loads(text, parse_float=Fraction)
    return path_from_json_dict(obj)

"""Sawtooth families and the sampling blind spot they create.

The scale-n sawtooth graph t -> (t, f_n(t)) with f_n(t) = 2**-n inf_k |2**n t - k|
has 2**n teeth of height 2**-(n+1), length sqrt(2) and vertical variation 1
at every scale, yet vanishes on every dyadic grid coarser than its teeth.
An observer who only sees samples on such a grid cannot distinguish it from
the flat segment: the honest answer is a bracket that refuses to shrink.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core.certificates import Certificate
from .core.paths import (
    SAWTOOTH_VERTEX_CAP,
    PathSpec,
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    eval_rational,
)
from .rectify import certified_variation
from .variation import Direction


def sawtooth(n: int) -> SawtoothGraph:
    """The scale-n sawtooth graph, a polyline whose chords are one tooth
    repeated and whose corners are built only where a point is read."""
    return SawtoothGraph(n)


def tilt(path: PathSpec) -> PathSpec:
    """Shear (x, y) -> (x, y + x), preserving the path kind where possible.

    Tilting mixes horizontal displacement into the ordinate, so vertical
    variation stops being blind to horizontal travel.
    """
    if isinstance(path, Polyline):
        return Polyline(tuple((x, y + x) for x, y in path.vertices))
    if isinstance(path, PolynomialPath):
        return PolynomialPath(path.x, path.y + path.x)
    if isinstance(path, SampledGraph):
        return SampledGraph(
            tuple((t, y + t) for t, y in path.samples), path.lipschitz + 1
        )
    raise TypeError(f"unknown path kind {type(path)!r}")


class DemoReport(NamedTuple):
    n: int
    k: int
    grid_resolution: Fraction
    feature_scale: Fraction
    observed: SampledGraph
    bracket: Certificate
    exact: Certificate
    commentary: str

    def to_json_dict(self, digits: int = 12) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "grid_resolution": str(self.grid_resolution),
            "feature_scale": str(self.feature_scale),
            "bracket": self.bracket.to_json_dict(digits),
            "exact": self.exact.to_json_dict(digits),
            "commentary": self.commentary,
        }


def adversarial_demo(n: int, k: int) -> DemoReport:
    """Sample the scale-n sawtooth on the uniform 2**k grid; certified_variation
    gives the samples an honest bracket and the full description a certificate.

    For k <= n every sample lands on a tooth root, so the data is identical
    to the flat segment's and the vertical-variation bracket stays [0, 1]
    no matter how large k gets within that range.
    """
    if n < 0 or k < 0:
        raise ValueError("scales must be nonnegative")
    # 2**(n+1) + 1 vertices and 2**k + 1 samples, each within the cap
    if max(n + 1, k) >= SAWTOOTH_VERTEX_CAP.bit_length():
        raise ResourceError(f"demo scales exceed the sawtooth vertex cap of {SAWTOOTH_VERTEX_CAP} points")
    cells = 1 << k
    teeth = SawtoothGraph(n)
    samples = tuple(eval_rational(teeth, Fraction(j, cells)) for j in range(cells + 1))
    observed = SampledGraph(samples, Fraction(1))
    vertical = Direction.from_vector(0, 1)
    bracket = certified_variation(observed, vertical)
    exact = certified_variation(teeth, vertical, Fraction(1, 1 << 20))
    if k <= n:
        blind = (
            "every sample hits a tooth root, so the observations are "
            "indistinguishable from the flat segment; the bracket cannot "
            "shrink below the full Lipschitz range"
        )
    else:
        blind = "the grid finally resolves the teeth and the bracket tightens"
    commentary = (
        f"scale-{n} sawtooth sampled at resolution 2^-{k}: {blind}. "
        "No algorithm reading finitely many samples of a merely-Lipschitz "
        "graph can certify its variation to arbitrary precision."
    )
    return DemoReport(
        n=n,
        k=k,
        grid_resolution=Fraction(1, cells),
        feature_scale=Fraction(1, 1 << n),
        observed=observed,
        bracket=bracket,
        exact=exact,
        commentary=commentary,
    )

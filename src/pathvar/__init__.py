"""Certified lengths and directional variations of planar paths.

Every numeric answer is an interval with exact dyadic endpoints that
provably contains the true value; tolerances are met by construction, not
by floating-point luck.  The two headline operations convert between the
two quantities in both directions: certified_length averages directional
variations over a finite direction net, or reads the path's uniform witness
(CroftonLengthOracle is that witness as a length oracle), and
RefinementGainOracle (pathvar.rectify) extracts every directional variation
from a length oracle through the refinement-gain inequality.  certified_variation asks the path's own
variation oracle, or RefinementGainOracle when a length oracle is passed.
Lipschitz-bounded sampled graphs, which cannot support convergent answers
at all, yield honest non-shrinking brackets instead.
"""

from .core.certificates import Certificate, CertKind
from .core.chords import polyline_length
from .core.partitions import Partition, merge_partitions
from .core.paths import (
    PathSpec,
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    eval_rational,
    path_from_json,
    path_to_json,
)
from .counterexamples import adversarial_demo, sawtooth, tilt
from .numerics.dyadic import Dyadic
from .numerics.interval import DomainError, Interval
from .numerics.ratpoly import RationalPoly
from .oracles import (
    PolylineOracle,
    PolynomialVariationOracle,
    sampled_bracket,
    sampled_length_bracket,
)
from .rectify import (
    CroftonLengthOracle,
    Verdict,
    build_direction_net,
    certified_length,
    certified_variation,
    variation_order_decide,
    variation_profile,
)
from .variation import Direction, directional_variation_on_partition, two_direction_length_bound

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertKind",
    "CroftonLengthOracle",
    "Direction",
    "DomainError",
    "Dyadic",
    "Interval",
    "Partition",
    "PathSpec",
    "Polyline",
    "PolylineOracle",
    "PolynomialPath",
    "PolynomialVariationOracle",
    "RationalPoly",
    "ResourceError",
    "SampledGraph",
    "SawtoothGraph",
    "SawtoothMixture",
    "Verdict",
    "adversarial_demo",
    "build_direction_net",
    "certified_length",
    "certified_variation",
    "directional_variation_on_partition",
    "eval_rational",
    "merge_partitions",
    "path_from_json",
    "path_to_json",
    "polyline_length",
    "sampled_bracket",
    "sampled_length_bracket",
    "sawtooth",
    "tilt",
    "two_direction_length_bound",
    "variation_order_decide",
    "variation_profile",
    "__version__",
]

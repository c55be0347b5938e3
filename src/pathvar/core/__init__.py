"""Path descriptions, partitions, chords and certificates."""

from .certificates import CertKind, Certificate, Provenance, decimal_down, decimal_up
from .chords import chord_deltas_exact, chord_length, polyline_length
from .partitions import Partition, merge_partitions
from .paths import (
    PathSpec,
    Polyline,
    PolynomialPath,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    as_polyline,
    canonical_partition,
    eval_rational,
    path_from_json,
    path_from_json_dict,
    path_to_json,
    path_to_json_dict,
)

__all__ = [
    "CertKind",
    "Certificate",
    "Provenance",
    "decimal_down",
    "decimal_up",
    "chord_deltas_exact",
    "chord_length",
    "polyline_length",
    "Partition",
    "merge_partitions",
    "PathSpec",
    "Polyline",
    "PolynomialPath",
    "ResourceError",
    "SampledGraph",
    "SawtoothGraph",
    "SawtoothMixture",
    "as_polyline",
    "canonical_partition",
    "eval_rational",
    "path_from_json",
    "path_from_json_dict",
    "path_to_json",
    "path_to_json_dict",
]

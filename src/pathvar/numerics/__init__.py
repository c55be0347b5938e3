"""Certified scalar substrate: dyadics, intervals, trig enclosures, polynomials."""

from .dyadic import Dyadic, ZERO, ONE, floor_to, ceil_to, sqrt_down, sqrt_up
from .interval import DomainError, Interval
from .ratpoly import RationalPoly, refine_root, sturm_chain, sturm_isolate
from .trig import (
    atan_enclosure,
    cos_enclosure,
    pi_enclosure,
    sin_enclosure,
)

__all__ = [
    "Dyadic",
    "ZERO",
    "ONE",
    "floor_to",
    "ceil_to",
    "sqrt_down",
    "sqrt_up",
    "DomainError",
    "Interval",
    "RationalPoly",
    "sturm_chain",
    "sturm_isolate",
    "refine_root",
    "pi_enclosure",
    "cos_enclosure",
    "sin_enclosure",
    "atan_enclosure",
]

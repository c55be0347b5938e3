"""Certified length from variations, and certified variation from length.

Forward direction: the averaging identity l = (1/2) * integral over [0, pi)
of v_theta says a finite direction net pins the length once per-node defects
and the net mesh are charged against the tolerance.  The nodes are exact
integer rays, so the net needs no trig.  By default certified_length skips
the net for the oracle's uniform witness: one partition P with a certified
bound on l - l_P, 0 for a vertex partition, and for a polynomial the sum over
the cells of a uniform mesh of arc - chord <= h**4 * B2**2 / (2 pi**2 |chord|),
from Wirtinger's inequality (PolynomialVariationOracle.witness_length, which
sums l_P in the same pass over the mesh).

The net's budget.  Over a partition with chords delta_i = l_i * u(theta_i),
v_{theta,P} = sum_i l_i |cos(theta - theta_i)| has derivative at most
sum_i l_i |sin(theta - theta_i)| <= l_P wherever it is differentiable, so
v_{theta,P} is l_P-Lipschitz in theta and v_theta = sup_P v_{theta,P} is
l-Lipschitz.  The constant is tight: one chord (1, 0) has v_theta =
|cos theta|, of slope 1 at pi/2.  Let P merge the oracle's partitions for
every node, each with defect at most tau at its node, and let theta_j be
the node nearest theta.  Then for any M >= l
    v_theta - v_{theta,P} <= tau + (l + l_P) * |theta - theta_j|.
Over a gap g between nodes |theta - theta_j| integrates to g**2/4, and the
gaps, each at most mesh, sum to pi, so sum g**2/4 <= pi * mesh/4 and
averaging over [0, pi) gives
    l - l_P <= (1/2) * [pi * tau + 2M * pi * mesh/4] <= eps/2 + eps/2
with tau = eps/pi and mesh = 1/n, n = ceil(pi * M / (2 eps)).

Reverse direction: a partition that nearly maximizes length admits no
variation gain in any direction.  If refining P could grow the w-variation
by more than delta, the inscribed length would grow by at least
sqrt(l_P**2 + delta**2) - l_P; so a length oracle answering within that gain
yields partitions certifying every directional variation at once.
RefinementGainOracle is that construction as a variation oracle, which
asks the length oracle for a partition only (uniform_witness).

Routes: one function, _route, picks the oracle, and only certified_length
and certified_variation call it and pad what it encloses.  A sampled graph
has no oracle: both return its non-shrinking sample bracket, length oracle
or not.  A given length oracle, which names the same path, is answered
through RefinementGainOracle over it (CroftonLengthOracle(path) runs the
reverse construction on the path's own uniform witness); otherwise the
path's own variation oracle answers.  Every other answer compares or lists
their certificates: variation_order_decide reads one certified_variation,
and variation_profile lists them.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Union

from .core.certificates import Certificate, CertKind
from .core.chords import polyline_length
from .core.partitions import Partition, merge_partitions
from .core.paths import SAWTOOTH_VERTEX_CAP, PathSpec, ResourceError, SampledGraph
from .numerics.dyadic import (
    ceil_to,
    eps_fraction,
    floor_log2,
    spell,
    sqrt_down,
    sqrt_up,
    to_fraction,
    working_exp,
)
from .numerics.interval import Interval
from .numerics.trig import pi_enclosure
from .oracles import achieve_variation, sampled_bracket, sampled_length_bracket, variation_oracle_for
from .variation import Direction, length_upper_bound, scale_interval

_MASS_FLOOR = Fraction(1, 1 << 20)

# The most rows a variation profile builds, one oracle call a row; a larger
# count is refused before the first row.
PROFILE_ROW_CAP = (1 << 16) + 1


# -- direction nets ----------------------------------------------------------------


class DirectionNet(NamedTuple):
    """The integer rays (n, k) and (-k, n) for -n <= k < n, one per node:
    node_count = 4n lines that sweep the half-turn from -pi/4 to 3pi/4.
    Neighbouring nodes, the last and the first included, have cross product
    n and dot product at least n**2, so their angle gap is at most
    atan(1/n) <= mesh = 1/n.  Nodes are built on demand, each an exact ray
    of integers (wx, wy); only the counts are stored.  The partition
    P a walk over the net yields has l - l_P <= eps, the walk's tolerance,
    which bounds (pi/2) * tau + (pi/4) * M * mesh because v_theta is
    l-Lipschitz in theta and the average distance to a node is mesh/4 (see
    the module docstring)."""

    node_count: int
    mesh: Fraction
    budget: dict

    def node(self, j: int) -> Direction:
        if not 0 <= j < self.node_count:
            raise IndexError("net node index out of range")
        n = self.node_count // 4
        k = j % (2 * n) - n
        return Direction(ray=(n, k) if j < 2 * n else (-k, n))


def build_direction_net(mass_bound: Fraction, eps) -> DirectionNet:
    """Net fine enough that averaging variations over it certifies length to
    eps for any path of length at most mass_bound: n = ceil(pi M / (2 eps)),
    4n nodes, mesh 1/n, and per-node defect tau = eps/pi, which the budget
    records and the caller charges (the budget proof is in the module
    docstring).  A net of more than SAWTOOTH_VERTEX_CAP nodes is refused
    before any node is walked."""
    eps_fr = eps_fraction(eps)
    m = max(to_fraction(mass_bound), _MASS_FLOOR)
    pi_hi = pi_enclosure(-64).hi
    n = math.ceil(pi_hi * m / (2 * eps_fr))
    if 4 * n > SAWTOOTH_VERTEX_CAP:
        raise ResourceError(f"direction net exceeds the point cap of {SAWTOOTH_VERTEX_CAP} nodes")
    mesh = Fraction(1, n)
    budget = {"eps": spell(eps_fr), "mass_bound": spell(m), "mesh": spell(mesh), "node_defect": spell(eps_fr / pi_hi)}
    return DirectionNet(4 * n, mesh, budget)


def crofton_partition(path: PathSpec, oracle, eps) -> tuple[Partition, DirectionNet]:
    """Partition P with l(path) - l_P <= eps, via direction-net averaging.

    The net is sized from the two-direction length bound, and each of its
    nodes asks the oracle for a partition only: the walk never encloses a
    variation.  The answers are merged in one exact set union, which no
    node order can change; when every node returns the same partition, as
    a vertex partition does, that partition is the answer.
    """
    eps_fr = eps_fraction(eps)
    net = build_direction_net(length_upper_bound(path, oracle).hi, eps_fr)
    tau = eps_fr / pi_enclosure(-64).hi
    parts = {oracle.variation_partition(net.node(j), tau) for j in range(net.node_count)}
    return (parts.pop() if len(parts) == 1 else merge_partitions(*parts)), net


def certified_length(
    path: PathSpec, eps=Fraction(1, 1000), use_uniform_witness: bool = True
) -> Certificate:
    """Two-sided length certificate of width at most eps.

    The inscribed length over a partition P bounds from below, and the
    certified defect l - l_P goes on top: the uniform witness's own defect,
    0 on a vertex partition, so an exact polyline is only as wide as its
    arithmetic, or, with use_uniform_witness=False, the net walk's tolerance.
    A sampled graph, which has no variation oracle, gets its non-shrinking
    sampled_length_bracket.
    """
    eps_fr = eps_fraction(eps)
    oracle = _route(path)
    if oracle is None:
        return sampled_length_bracket(path)
    eps_alg, prec = eps_fr * Fraction(15, 16), floor_log2(eps_fr) - 8
    if use_uniform_witness:
        part, defect, lp = oracle.witness_length(eps_alg, prec)
        pad = ceil_to(defect, prec)  # as _converged rounds it
        net_size, budget = 0, {"eps": spell(eps_alg), "witness_defect": spell(pad)}
    else:
        part, net = crofton_partition(path, oracle, eps_alg)
        lp = polyline_length(path, part, prec)
        pad, net_size, budget = eps_alg, net.node_count, net.budget
    return _converged(lp, pad, eps_fr, "direction-net-averaging", len(part), net_size, budget)


def _converged(value: Interval, pad, eps_fr: Fraction, *fields) -> Certificate:
    """The converged certificate at tolerance eps: value raised by its
    certified pad, rounded up on the 2**(floor_log2(eps) - 8) grid; fields
    are Certificate's method, partition_size, net_size and budget."""
    value = value + Interval.enclose_pair(0, pad, floor_log2(eps_fr) - 8)
    return Certificate(value, CertKind.TWO_SIDED_CONVERGED, eps_fr, *fields)


# -- refinement gain ----------------------------------------------------------------


def refinement_gain_bound(length_bound: Interval, delta) -> Interval:
    """Enclosure of sqrt(L**2 + delta**2) - L for L = hi(length_bound).

    Any refinement that grows some directional variation by more than delta
    grows the inscribed length by more than this; the bound is decreasing in
    L, so an upper length bound is the conservative choice.  The form
    delta**2 / (sqrt(L**2 + delta**2) + L) cancels nothing, so one square
    root at relative precision 2**-64 pins both ends.
    """
    d2 = eps_fraction(delta) ** 2
    l_hi = max(length_bound.hi, Fraction(0))
    s = l_hi * l_hi + d2
    exp = floor_log2(s) // 2 - 64
    g_lo = d2 / (sqrt_up(s, exp) + l_hi)
    g_hi = d2 / (sqrt_down(s, exp) + l_hi)
    return Interval.enclose_pair(g_lo, g_hi, floor_log2(g_lo) - 8)


class RefinementGainOracle:
    """Variation oracle synthesized from a length oracle of the same path,
    the converse of CroftonLengthOracle: one uniform_witness call at the
    refinement-gain tolerance for eps gives a partition with defect at most
    eps in every direction at once.  Only the length bound is enclosed, once."""

    method = "length-refinement-gain"

    def __init__(self, path: PathSpec, length_oracle):
        if not all(hasattr(length_oracle, n) for n in ("path", "uniform_witness", "achieve_length")):
            raise TypeError("a length oracle needs path, uniform_witness and achieve_length")
        if length_oracle.path != path:
            raise ValueError("the length oracle answers for another path")
        self.path = path
        self.length_oracle = length_oracle
        _, l0 = length_oracle.achieve_length(Fraction(1))
        self.length_bound = l0 + Interval(0, 1)

    def variation_partition(self, d: Direction, eps) -> Partition:
        tau = refinement_gain_bound(self.length_bound, eps_fraction(eps)).lo
        return self.length_oracle.uniform_witness(tau)[0]

    achieve_variation = achieve_variation


def _route(path: PathSpec, length_oracle=None):
    """The one route decision: None for a sampled graph, which every entry
    point answers with a non-shrinking bracket, length oracle or not; else
    RefinementGainOracle over a given length oracle, else the path's own."""
    if isinstance(path, SampledGraph):
        return None
    if length_oracle is not None:
        return RefinementGainOracle(path, length_oracle)
    return variation_oracle_for(path)


class Verdict(enum.Enum):
    GREATER_THAN_A = "greater-than-a"
    LESS_THAN_B = "less-than-b"


def variation_order_decide(
    path: PathSpec,
    d: Direction,
    a,
    b,
    length_oracle=None,
) -> Union[Verdict, Certificate]:
    """Decide v_d(path) > a or v_d(path) < b, given a < b, by comparing one
    certificate [lo, hi] = certified_variation(path, d, 3*(b-a)/4) with a:
    if lo > a then v_d > a (preferred when both hold); otherwise
    v_d <= hi <= a + 3*(b-a)/4 < b.  A sampled graph's bracket comes back
    as it is."""
    a, b = to_fraction(a), to_fraction(b)
    if not a < b:
        raise ValueError("decision bracket needs a < b")
    cert = certified_variation(path, d, 3 * (b - a) / 4, length_oracle)
    if cert.kind is CertKind.NON_SHRINKING_BRACKET:
        return cert
    return Verdict.GREATER_THAN_A if cert.value.lo > a else Verdict.LESS_THAN_B


def certified_variation(
    path: PathSpec,
    d: Direction,
    eps=Fraction(1, 1000),
    length_oracle=None,
) -> Certificate:
    """Two-sided certificate for v_d(path) of width at most eps: the routed
    oracle's enclosure at eps/2, padded above by eps/2.  With
    length_oracle=CroftonLengthOracle(path) this is the paper's construction
    of variation from length.  A sampled graph gets its sampled_bracket.
    """
    if not isinstance(d, Direction):
        raise TypeError(f"a direction must be a Direction, not {type(d).__name__}")
    eps_fr = eps_fraction(eps)
    oracle = _route(path, length_oracle)
    if oracle is None:
        return sampled_bracket(path, d)
    part, v = oracle.achieve_variation(d, eps_fr / 2)
    return _converged(v, eps_fr / 2, eps_fr, oracle.method, len(part))


def variation_profile(
    path: PathSpec, count: int, eps=Fraction(1, 1000)
) -> list[tuple[Interval, Certificate]]:
    """Rows (theta_j, certified_variation(path, d_j, eps)) at
    theta_j = j * pi / count, j = 0..count."""
    if count < 1:
        raise ValueError("profile needs at least one cell")
    if count + 1 > PROFILE_ROW_CAP:
        raise ValueError(f"profile rows exceed the row cap of {PROFILE_ROW_CAP} rows")
    pi = pi_enclosure(-80)
    return [
        (scale_interval(pi, q, -64), certified_variation(path, Direction.from_theta_pi(q), eps))
        for q in (Fraction(j, count) for j in range(count + 1))
    ]


# -- length oracles -----------------------------------------------------------------


class CroftonLengthOracle:
    """Length oracle from the uniform witness of the path's own variation
    oracle, for every path kind that has one; the net walk stays reachable
    through certified_length(..., use_uniform_witness=False).  Passed as
    length_oracle to certified_variation or variation_order_decide, it closes
    the loop between the two quantities: variation from length from
    variation."""

    def __init__(self, path: PathSpec):
        self.path = path
        self.var_oracle = variation_oracle_for(path)

    def uniform_witness(self, eps) -> tuple[Partition, Fraction]:
        return self.var_oracle.uniform_witness(eps_fraction(eps))

    def achieve_length(self, eps) -> tuple[Partition, Interval]:
        return self.var_oracle.witness_length(eps, working_exp(eps_fraction(eps)))[::2]

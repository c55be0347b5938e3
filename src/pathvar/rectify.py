"""Certified length from variations, and certified variation from length.

Forward direction: the averaging identity l = (1/2) * integral over [0, pi)
of v_theta says a finite direction net pins the length once per-node defects
and the net mesh are charged against the tolerance.  The nodes are exact
rational rays, so the net needs no trig.  With a partition P whose defect
at each net node is small, and v theta-Lipschitz with constant 2 * l, the
inscribed length l_P certifiably exhausts l.  An oracle with a uniform
witness (one partition good for every direction) skips the net altogether.

Reverse direction: a partition that nearly maximizes length admits no
variation gain in any direction.  If refining P could grow the w-variation
by more than delta, the inscribed length would grow by at least
sqrt(l_P**2 + delta**2) - l_P; so a length oracle answering within that gain
yields partitions certifying every directional variation at once.

Routes: certified_variation and variation_order_decide ask the path's own
variation oracle (variation_oracle_for) unless the caller passes a length
oracle; passing CroftonLengthOracle(path) runs the reverse construction on
top of the forward one.  A sampled graph has no oracle: certified_length,
certified_variation and variation_profile answer it with non-shrinking
sample brackets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core.certificates import Certificate, CertKind, Provenance
from .core.chords import polyline_length
from .core.partitions import Partition, merge_partitions
from .core.paths import PathSpec, SampledGraph
from .numerics.dyadic import (
    ceil_to,
    eps_fraction,
    floor_log2,
    sqrt_down,
    sqrt_up,
    working_exp,
)
from .numerics.interval import Interval
from .numerics.trig import pi_enclosure
from .oracles import (
    LengthOracle,
    VariationOracle,
    sampled_bracket,
    sampled_length_bracket,
    variation_oracle_for,
)
from .variation import (
    Direction,
    directional_variation_on_partition,
    length_upper_bound,
    scale_interval,
)

_MASS_FLOOR = Fraction(1, 1 << 20)


# -- direction nets ----------------------------------------------------------------


@dataclass
class DirectionNet:
    """The rational rays (n, k) and (-k, n) for -n <= k < n, one per node:
    node_count = 4n lines that sweep the half-turn from -pi/4 to 3pi/4.
    Neighbouring nodes, the last and the first included, have cross product
    n and dot product at least n**2, so their angle gap is at most
    atan(1/n) <= mesh = 1/n.  Nodes are built on demand; only the counts are
    stored.  The uniform-witness route walks no node and reports an empty
    net."""

    node_count: int
    mesh: Fraction
    budget: dict = field(default_factory=dict)

    def node(self, j: int) -> Direction:
        if not 0 <= j < self.node_count:
            raise IndexError("net node index out of range")
        n = self.node_count // 4
        k = j % (2 * n) - n
        return Direction.from_vector(n, k) if j < 2 * n else Direction.from_vector(-k, n)


def build_direction_net(mass_bound: Fraction, eps) -> DirectionNet:
    """Net fine enough that averaging variations over it certifies length to
    eps for any path of length at most mass_bound.

    With n = ceil(2 pi M / eps) the mesh is 1/n, and the budget is
    (pi/2) * [tau + 4M * mesh/2] <= eps/2 + eps/2 with per-node defect
    tau = eps/pi charged by the caller.
    """
    eps_fr = eps_fraction(eps)
    m = max(Fraction(mass_bound), _MASS_FLOOR)
    n = math.ceil(2 * pi_enclosure(-64).hi * m / eps_fr)
    return DirectionNet(
        node_count=4 * n,
        mesh=Fraction(1, n),
        budget={"eps": str(eps_fr), "mass_bound": str(m), "mesh": str(Fraction(1, n))},
    )


def crofton_partition(
    path: PathSpec,
    oracle: Optional[VariationOracle] = None,
    eps=Fraction(1, 1000),
    use_uniform_witness: bool = True,
) -> tuple[Partition, DirectionNet]:
    """Partition P with l(path) - l_P <= eps, via direction-net averaging.

    A uniform witness (one partition, defect <= tau for every direction)
    needs no net: it comes back with an empty one.  Otherwise the net is
    sized from the two-direction length bound, each of its nodes is sent to
    the oracle, and the answers are merged in one exact set union, which no
    node order can change.
    """
    eps_fr = eps_fraction(eps)
    if oracle is None:
        oracle = variation_oracle_for(path)
    pi_hi = pi_enclosure(-64).hi
    witness = getattr(oracle, "uniform_witness", None) if use_uniform_witness else None
    if witness is not None:
        # sup-defect tau_w over all directions gives l - l_P <= (pi/2) tau_w
        tau_w = 2 * eps_fr / pi_hi
        # no node is walked, so the net has no mesh
        net = DirectionNet(0, Fraction(0), {"eps": str(eps_fr), "witness_defect": str(tau_w)})
        return witness(tau_w), net
    net = build_direction_net(length_upper_bound(path, oracle).hi, eps_fr)
    tau = eps_fr / pi_hi
    net.budget["node_defect"] = str(tau)
    parts = [oracle.achieve_variation(net.node(j), tau)[0] for j in range(net.node_count)]
    return merge_partitions(*parts), net


def certified_length(
    path: PathSpec,
    eps=Fraction(1, 1000),
    oracle: Optional[VariationOracle] = None,
    use_uniform_witness: bool = True,
) -> Certificate:
    """Two-sided length certificate of width at most eps.

    The inscribed length over the net partition bounds from below; the
    averaging bound adds the certified defect on top.  A sampled graph, which
    has no variation oracle, gets its non-shrinking sampled_length_bracket.
    """
    eps_fr = eps_fraction(eps)
    if oracle is None:
        if isinstance(path, SampledGraph):
            return sampled_length_bracket(path)
        oracle = variation_oracle_for(path)
    eps_alg = eps_fr * Fraction(15, 16)
    part, net = crofton_partition(path, oracle, eps_alg, use_uniform_witness)
    exp = floor_log2(eps_fr) - 8
    lp = polyline_length(path, part, exp)
    pad = ceil_to(eps_alg, exp)
    value = Interval(lp.lo, lp.hi + pad)
    return Certificate(
        value,
        CertKind.TWO_SIDED_CONVERGED,
        eps_fr,
        Provenance(
            "direction-net-averaging",
            len(part),
            net_size=net.node_count,
            budget=dict(net.budget),
        ),
    )


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


class Verdict(enum.Enum):
    GREATER_THAN_A = "greater-than-a"
    LESS_THAN_B = "less-than-b"


def _gain_partition(length_oracle: LengthOracle, delta: Fraction) -> tuple[Partition, Fraction]:
    """A partition whose variation defect is at most delta in every direction,
    from one length-oracle call at the refinement-gain tolerance tau."""
    _, l0 = length_oracle.achieve_length(Fraction(1))
    tau = refinement_gain_bound(Interval(l0.lo, l0.hi + 1), delta).lo
    return length_oracle.achieve_length(tau)[0], tau


def variation_order_decide(
    path: PathSpec,
    d: Direction,
    a,
    b,
    length_oracle: Optional[LengthOracle] = None,
) -> Verdict:
    """Decide v_d(path) > a or v_d(path) < b, given a < b.

    One partition whose d-variation is within 3*(b-a)/8 of the truth, and
    one enclosure of that variation, come from the path's own variation
    oracle; when a length oracle is given, the partition comes from one
    length-oracle call at the refinement-gain tolerance (which serves every
    direction at once) and is enclosed here.  That one enclosure always
    resolves the bracket.  When both answers are true the greater-than exit
    is preferred.
    """
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("decision bracket needs a < b")
    eps = (b - a) / 2
    if length_oracle is None:
        _, v = variation_oracle_for(path).achieve_variation(d, eps * Fraction(3, 4))
    else:
        part, _ = _gain_partition(length_oracle, eps * Fraction(3, 4))
        v = directional_variation_on_partition(path, part, d, working_exp(eps, 3))
    # One enclosure [lo, hi] of v_P decides.  The partition's defect is at
    # most 3*eps/4, so v_P <= v <= v_P + 3*eps/4.  If lo > a then v > a.
    # Otherwise hi <= a + width, and hi < a + 5*eps/4 gives
    # v <= hi + 3*eps/4 < b; so any width below 5*eps/4 decides.  At the
    # precision 2**p an exact-ray enclosure is at most about 2.2 * 2**p wide
    # and an angle enclosure at most 2**p.  The oracle encloses at
    # p = working_exp(3*eps/4) <= floor_log2(eps) - 6, and the length route
    # at p = working_exp(eps, 3) <= floor_log2(eps) - 3, so 2**p <= eps/8
    # and the width is at most 0.28*eps either way.
    if v.lo > a:
        return Verdict.GREATER_THAN_A
    if v.hi < a + 5 * eps / 4:
        return Verdict.LESS_THAN_B
    raise RuntimeError(f"decision enclosure {v} is wider than 5/4 of {eps}")


def _padded_variation(
    oracle: VariationOracle, d: Direction, eps_fr: Fraction
) -> tuple[Partition, Interval]:
    """The oracle's enclosure at eps/2, padded above by eps/2."""
    half = eps_fr / 2
    part, v = oracle.achieve_variation(d, half)
    return part, Interval(v.lo, v.hi + ceil_to(half, floor_log2(eps_fr) - 8))


def certified_variation(
    path: PathSpec,
    d: Direction,
    eps=Fraction(1, 1000),
    length_oracle: Optional[LengthOracle] = None,
) -> Certificate:
    """Two-sided certificate for v_d(path) of width at most eps.

    By default the path's own variation oracle answers at eps/2 and the
    certificate pads its enclosure by eps/2.  With a length oracle the
    variation is produced through that oracle alone, by the refinement-gain
    bound; CroftonLengthOracle(path) makes that the paper's construction
    of variation from length.  Without a length oracle a sampled graph gets
    its non-shrinking sampled_bracket.
    """
    eps_fr = eps_fraction(eps)
    exp = floor_log2(eps_fr) - 8
    if length_oracle is None:
        if isinstance(path, SampledGraph):
            return sampled_bracket(path, d)
        oracle = variation_oracle_for(path)
        part, value = _padded_variation(oracle, d, eps_fr)
        provenance = Provenance(oracle.method, len(part))
    else:
        eps_alg = eps_fr * Fraction(15, 16)
        part, tau = _gain_partition(length_oracle, eps_alg)
        v = directional_variation_on_partition(path, part, d, exp)
        value = Interval(v.lo, v.hi + ceil_to(eps_alg, exp))
        provenance = Provenance(
            "length-refinement-gain",
            len(part),
            budget={"gain_tolerance": str(tau), "defect": str(eps_alg)},
        )
    return Certificate(value, CertKind.TWO_SIDED_CONVERGED, eps_fr, provenance)


def variation_profile(
    path: PathSpec, count: int, eps=Fraction(1, 1000)
) -> list[tuple[Interval, Interval]]:
    """Rows (theta_j, v_j) at theta_j = j * pi / count, j = 0..count.

    Each v_j equals certified_variation(path, d_j, eps).value, from one
    variation oracle built once for the whole profile; a sampled graph,
    which has none, gets its non-shrinking sampled_bracket values instead.
    """
    if count < 1:
        raise ValueError("profile needs at least one cell")
    eps_fr = eps_fraction(eps)
    oracle = None if isinstance(path, SampledGraph) else variation_oracle_for(path)
    pi = pi_enclosure(-80)
    rows = []
    for j in range(count + 1):
        q = Fraction(j, count)
        d = Direction.from_theta_pi(q)
        if oracle is None:
            v = sampled_bracket(path, d).value
        else:
            v = _padded_variation(oracle, d, eps_fr)[1]
        rows.append((scale_interval(pi, q, -64), v))
    return rows


# -- length oracles -----------------------------------------------------------------


class CroftonLengthOracle:
    """Length oracle synthesized from a variation oracle by direction-net
    averaging, for every path kind that has a variation oracle.  Passed as
    length_oracle to certified_variation or variation_order_decide, it closes
    the loop between the two quantities: variation from length from
    variation."""

    def __init__(
        self,
        path: PathSpec,
        var_oracle: Optional[VariationOracle] = None,
        use_uniform_witness: bool = True,
    ):
        self.path = path
        self.var_oracle = var_oracle if var_oracle is not None else variation_oracle_for(path)
        self.use_uniform_witness = use_uniform_witness

    def achieve_length(self, eps) -> tuple[Partition, Interval]:
        eps_fr = eps_fraction(eps)
        part, _net = crofton_partition(
            self.path, self.var_oracle, eps_fr, self.use_uniform_witness
        )
        return part, polyline_length(self.path, part, working_exp(eps_fr))

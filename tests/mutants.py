"""Soundness mutants: each entry weakens one charged term of a certificate,
and the tests named beside it must fail under it.

    python3 tests/mutants.py

For each entry the script copies src/ and tests/ into a temporary
directory, replaces the entry's source text there, which must occur
exactly once so that a refactor that moves the line fails loudly, and runs
the entry's tests in the copy with pytest -x.  It prints "killed" when they
fail and "survived" when they pass.  The unmutated copy runs every named
test first, so that a kill is a failure the mutation caused.  Exit status:
0 when every mutant is killed, 1 otherwise.  Standard library and pytest
only; the tier-1 suite does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ORACLE_TESTS = "tests/test_oracles.py::"
RECTIFY_TESTS = "tests/test_rectify.py::"


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "M5: an angle direction charges no snap gap",
        "src/pathvar/oracles.py",
        "        eps_core = Fraction(en * md * gd - 4 * mn * gn * ed, ed * md * gd)\n",
        "        eps_core = Fraction(en, ed)\n",
        (ORACLE_TESTS + "test_angle_partition_charges_the_snap_gap",),
    ),
    Mutant(
        "M8: a critical interval is charged its range, not twice it",
        "src/pathvar/oracles.py",
        "[(2, r.range_ints(*iv[:3])) for iv in roots]",
        "[(1, r.range_ints(*iv[:3])) for iv in roots]",
        (ORACLE_TESTS + "test_critical_charge_is_twice_the_range",
         ORACLE_TESTS + "test_partitions_meet_their_re_derived_bound"),
    ),
    Mutant(
        "a boundary cell is charged 2 ranges, not 4",
        "src/pathvar/oracles.py",
        "[(4, r.range_ints(*c)) for c in cells]",
        "[(2, r.range_ints(*c)) for c in cells]",
        (ORACLE_TESTS + "test_partitions_meet_their_re_derived_bound",),
    ),
    Mutant(
        "a zero sign at a piece's end is read as no root",
        "src/pathvar/oracles.py",
        "        return [(a, a, qa, 0)] if sa == 0 else [(b, b, qb, 0)]\n",
        "        return []\n",
        (ORACLE_TESTS + "test_zero_end_sign_is_a_critical_point",),
    ),
    Mutant(
        "enclose_pair rounds its lower end up",
        "src/pathvar/numerics/interval.py",
        "cls.on_grid(grid_bounds(lo, exp)[0], grid_bounds(hi, exp)[1], exp)",
        "cls.on_grid(grid_bounds(lo, exp)[1], grid_bounds(hi, exp)[1], exp)",
        ("tests/test_interval.py::test_enclose_pair_is_the_tightest_on_its_grid",),
    ),
    Mutant(
        "norm_enclosure leaves out the +1 on an inexact upper root",
        "src/pathvar/numerics/interval.py",
        "    return Interval.on_grid(*bounds, exp)\n",
        "    return Interval.on_grid(bounds[0], bounds[0], exp)\n",
        ("tests/test_interval.py::test_norm_enclosure_ends_are_the_root_floor_and_ceiling",),
    ),
    Mutant(
        "_converged rounds the pad down",
        "src/pathvar/rectify.py",
        "Interval.enclose_pair(0, pad, floor_log2(eps_fr) - 8)",
        "Interval(0, (-Interval.enclose_pair(-pad, -pad, floor_log2(eps_fr) - 8)).lo)",
        (RECTIFY_TESTS + "test_variation_certificate_covers_the_whole_defect_budget",),
    ),
    Mutant(
        "M2: _mesh rounds each 1/|chord| down",
        "src/pathvar/oracles.py",
        "recips = -sum(map(floordiv, repeat(-1 << g),",
        "recips = sum(map(floordiv, repeat(1 << g),",
        (ORACLE_TESTS + "test_witness_defect_covers_the_wirtinger_sum",),
    ),
    Mutant(
        "M12: the refinement-gain oracle takes tau from the gain bound's hi",
        "src/pathvar/rectify.py",
        "tau = refinement_gain_bound(self.length_bound, eps_fraction(eps)).lo",
        "tau = refinement_gain_bound(self.length_bound, eps_fraction(eps)).hi",
        (RECTIFY_TESTS + "test_reverse_route_asks_within_the_exact_gain",),
    ),
    Mutant(
        "M13: length_upper_bound drops its 2/256 oracle slack",
        "src/pathvar/variation.py",
        "    return v0 + v1 + Interval(0, 2 * eps_call)\n",
        "    return v0 + v1\n",
        ("tests/test_variation.py::test_length_upper_bound_charges_the_oracle_slack",),
    ),
    Mutant(
        "root_sums rounds each root's ceiling down to its floor",
        "src/pathvar/numerics/dyadic.py",
        "        hi += r + (r * r * den < n)\n",
        "        hi += r\n",
        ("tests/test_chords.py::test_chord_length_encloses_mpmath_hypot_sum",
         "tests/test_dyadic.py::test_sqrt_bounds",
         "tests/test_dyadic.py::test_root_kernel_meets_the_per_term_bounds"),
    ),
    Mutant(
        "root_sums rounds each given root's ceiling down to its floor",
        "src/pathvar/numerics/dyadic.py",
        "        return lo, lo + sum(map(lt, map(mul, squares, repeat(den)) if q > 1 else squares, nums))\n",
        "        return lo, lo\n",
        ("tests/test_dyadic.py::test_root_kernel_meets_the_per_term_bounds",),
    ),
    Mutant(
        "the witness mesh shifts the defect's root one bit too far",
        "src/pathvar/oracles.py",
        "filter(None, map(rshift, roots, repeat(u)))",
        "filter(None, map(rshift, roots, repeat(u + 1)))",
        (RECTIFY_TESTS + "test_witness_length_contains_the_speed_integral[parabola]",),
    ),
    Mutant(
        "the witness mesh divides its length roots by one bit too many",
        "src/pathvar/oracles.py",
        "q = d >> j << max(e + j, 0)",
        "q = d >> j << max(e + j + 1, 0)",
        (RECTIFY_TESTS + "test_witness_length_contains_the_speed_integral[t8]",),
    ),
    Mutant(
        "a zero chord of the witness mesh is charged nothing",
        "src/pathvar/oracles.py",
        " + roots.count(0) * h * self.path.speed_bound",
        "",
        (RECTIFY_TESTS + "test_witness_length_contains_the_speed_integral[loop]",),
    ),
    Mutant(
        "chord_variation charges no snap slack for an angle",
        "src/pathvar/variation.py",
        "(sn, sd), grid = (gap.numerator * mass, gap.denominator << (s + precision - 3)), precision - 3",
        "(sn, sd), grid = (0, 1), precision - 3",
        ("tests/test_variation.py::test_snap_error_is_charged_to_the_enclosure",),
    ),
    Mutant(
        "chord_variation rounds the snap slack down by one step of its grid",
        "src/pathvar/variation.py",
        "(sn, sd), grid = (gap.numerator * mass, gap.denominator << (s + precision - 3)), precision - 3",
        "(sn, sd), grid = (gap.numerator * mass - (gap.denominator << (s + precision - 3)),"
        " gap.denominator << (s + precision - 3)), precision - 3",
        ("tests/test_variation.py::test_snap_error_is_charged_to_the_enclosure",),
    ),
    Mutant(
        "rational_approx takes the narrower component's width for its gap",
        "src/pathvar/variation.py",
        "w = max(cx.n_hi - cx.n_lo, cy.n_hi - cy.n_lo)",
        "w = min(cx.n_hi - cx.n_lo, cy.n_hi - cy.n_lo)",
        ("tests/test_variation.py::test_snap_gap_covers_a_lopsided_enclosure",),
    ),
    Mutant(
        "the net asks each node for eps, not eps/pi",
        "src/pathvar/rectify.py",
        "    tau = eps_fr / pi_enclosure(-64).hi\n",
        "    tau = eps_fr\n",
        (RECTIFY_TESTS + "test_walk_asks_each_node_within_eps_over_pi",
         RECTIFY_TESTS + "test_net_size_counts_walked_nodes"),
    ),
    Mutant(
        "the net has 4 ceil(M/(2 eps)) nodes, not 4 ceil(pi M/(2 eps))",
        "src/pathvar/rectify.py",
        "    n = math.ceil(pi_hi * m / (2 * eps_fr))\n",
        "    n = math.ceil(m / (2 * eps_fr))\n",
        (RECTIFY_TESTS + "test_net_gaps_are_certified_by_exact_arithmetic",),
    ),
    Mutant(
        "the net has 4 ceil(pi M/(4 eps)) nodes: the mean distance to a node taken as mesh/8",
        "src/pathvar/rectify.py",
        "    n = math.ceil(pi_hi * m / (2 * eps_fr))\n",
        "    n = math.ceil(pi_hi * m / (4 * eps_fr))\n",
        (RECTIFY_TESTS + "test_net_budget_holds_on_the_real_gaps",),
    ),
    Mutant(
        "a sign change of r' between the piece ends is read as monotone",
        "src/pathvar/oracles.py",
        "(wx * ax + wy * ay) * (wx * bx + wy * by) > 0:",
        "(wx * ax + wy * ay) * (wx * bx + wy * by) != 0:",
        (ORACLE_TESTS + "test_critical_point_variation_matches_mpmath_roots",
         ORACLE_TESTS + "test_every_net_node_partition_meets_the_node_defect"),
    ),
    Mutant(
        "the gain bound's square root leaves out 3/4 of delta**2",
        "src/pathvar/rectify.py",
        "    s = l_hi * l_hi + d2\n",
        "    s = l_hi * l_hi + d2 / 4\n",
        (RECTIFY_TESTS + "test_gain_bound_contains_high_precision_value",),
    ),
    Mutant(
        "the witness constant divides by pi**3, not pi**2",
        "src/pathvar/oracles.py",
        "c = self.path.bend_bound**2 / (2 * Fraction(pi.n_lo, 1 << -pi.e) ** 2)",
        "c = self.path.bend_bound**2 / (2 * Fraction(pi.n_lo, 1 << -pi.e) ** 3)",
        (ORACLE_TESTS + "test_uniform_witness_defect_bound_holds",
         ORACLE_TESTS + "test_witness_defect_covers_the_wirtinger_sum",
         RECTIFY_TESTS + "test_certified_length_parabola"),
    ),
    Mutant(
        "the bend bound is halved",
        "src/pathvar/core/paths.py",
        "self.x.derivative().derivative(), self.y.derivative().derivative())",
        "self.x.derivative().derivative(), self.y.derivative().derivative()) / 2",
        ("tests/test_paths.py::test_parabola_bounds",
         RECTIFY_TESTS + "test_certified_length_parabola"),
    ),
    Mutant(
        "the witness pad is rounded down",
        "src/pathvar/rectify.py",
        "pad = ceil_to(defect, prec)",
        "pad = -ceil_to(-defect, prec)",
        (RECTIFY_TESTS + "test_both_length_routes_pad_by_their_defect[witness]",
         RECTIFY_TESTS + "test_witness_length_contains_the_speed_integral"),
    ),
    Mutant(
        "the witness route pads by 0",
        "src/pathvar/rectify.py",
        "pad = ceil_to(defect, prec)",
        "pad = 0",
        (RECTIFY_TESTS + "test_both_length_routes_pad_by_their_defect[witness]",
         RECTIFY_TESTS + "test_certified_length_parabola"),
    ),
    Mutant(
        "the walk pads by 0",
        "src/pathvar/rectify.py",
        "pad, net_size, budget = eps_alg, net.node_count, net.budget",
        "pad, net_size, budget = 0, net.node_count, net.budget",
        (RECTIFY_TESTS + "test_both_length_routes_pad_by_their_defect[walk]",),
    ),
    Mutant(
        "a sector lookup reads the prefix sum one generator off",
        "src/pathvar/variation.py",
        "    return abs(a * (2 * px[lo] - px[-1]) + b * (2 * py[lo] - py[-1]))\n",
        "    return abs(a * (2 * px[lo - 1] - px[-1]) + b * (2 * py[lo - 1] - py[-1]))\n",
        ("tests/test_variation.py::test_sector_lookup_is_the_per_chord_sum",),
    ),
    Mutant(
        "a sector view answers a run whose den is no power of two",
        "src/pathvar/variation.py",
        "_sector_view(r) if not r.den & (r.den - 1) else None",
        "_sector_view(r)",
        ("tests/test_variation.py::test_a_run_off_the_dyadic_grid_keeps_the_per_chord_pass",
         "tests/test_variation.py::test_sector_lookup_is_the_per_chord_sum",
         "tests/test_chords.py::test_runs_change_no_enclosure"),
    ),
    Mutant(
        "a norm view's floor sum drops the multiplicities",
        "src/pathvar/numerics/dyadic.py",
        "            lo += c * r\n",
        "            lo += r\n",
        ("tests/test_chords.py::test_a_norm_view_read_is_the_per_chord_pass",
         "tests/test_chords.py::test_chord_length_encloses_mpmath_hypot_sum",
         "tests/test_dyadic.py::test_root_kernel_meets_the_per_term_bounds"),
    ),
    Mutant(
        "a norm view's ceiling adds 1 per inexact distinct norm, not its count",
        "src/pathvar/numerics/dyadic.py",
        "            hi += c * (r + (r * r * den < n))\n",
        "            hi += c * r + (r * r * den < n)\n",
        ("tests/test_chords.py::test_a_norm_view_read_is_the_per_chord_pass",
         "tests/test_chords.py::test_chord_length_encloses_mpmath_hypot_sum",
         "tests/test_dyadic.py::test_root_kernel_meets_the_per_term_bounds"),
    ),
)


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _passes(where: Path, tests) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    return subprocess.run(cmd, cwd=where, env=env, capture_output=True, text=True).returncode == 0


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        named = sorted({t for m in MUTANTS for t in m.tests})
        if not _passes(base, named):
            print("the unmutated copy fails the named tests; no mutant can be judged")
            return 1
        for i, m in enumerate(MUTANTS):
            copy = Path(tmp) / f"m{i}"
            _copy(copy)
            target = copy / m.file
            source = target.read_text(encoding="utf-8")
            if source.count(m.text) != 1:
                print(f"{m.name}: source text found {source.count(m.text)} times, not once")
                survived += 1
                continue
            target.write_text(source.replace(m.text, m.replacement), encoding="utf-8")
            killed = not _passes(copy, m.tests)
            survived += not killed
            print(f"{'killed' if killed else 'survived'}: {m.name}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

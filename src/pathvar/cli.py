"""Command line front end.

    pathvar length PATH --eps 1e-6
    pathvar variation PATH --theta pi/2 --eps 1e-6
    pathvar profile PATH --count 16 --format csv
    pathvar decide PATH --theta 0 --a 0.9 --b 1.1
    pathvar demo --n 8 --k 3
    pathvar gen sawtooth --n 4

PATH is a JSON file (or "-" for stdin) in the wire format of
pathvar.core.paths.  The library picks the route for each query and the
command line prints what comes back: a certificate, a verdict, or a
sampled graph's non-shrinking bracket.  The library alone decides what is
refused: --eps is any positive tolerance its reader admits, to about 1e-308.
Without --digits, endpoints are printed to the fewest places (at least 12)
that resolve a thousandth of the tolerance.
Exit status: 0 on success, 2 on malformed input or invalid arguments (a
ValueError), 3 when only a non-shrinking bracket can be certified
(sampled graphs, printed to stdout) or a resource cap is hit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional

from .core.certificates import CertKind, decimal_down, decimal_up
from .core.paths import (
    PathSpec,
    ResourceError,
    SawtoothGraph,
    SawtoothMixture,
    path_from_json,
    path_to_json,
)
from .counterexamples import adversarial_demo, tilt
from .numerics.dyadic import ascii_digits, eps_fraction, parse_exact
from .rectify import (
    Verdict,
    certified_length,
    certified_variation,
    variation_order_decide,
    variation_profile,
)
from .variation import Direction

# decimal places: leaves a 1,024-bit integer part room under Python's 4,300-digit str(int) limit
DIGITS_CAP = 1000
_THETA_RE = re.compile(r"^(?P<coef>[^p]*)pi(?:/(?P<den>\d+))?$")
_BRACKET_ONLY = "certification unavailable: sampled graphs support only non-shrinking brackets"


def _fit_digits(digits: Optional[int], eps: Fraction) -> int:
    """--digits, or the smallest d >= 12 with 10**-d <= eps / 1000."""
    if digits is not None:
        return digits
    d = 12
    while Fraction(1, 10**d) > eps / 1000:
        d += 1
    return d


def _parse_direction(theta: Optional[str], vector: Optional[str]) -> Direction:
    if (theta is None) == (vector is None):
        raise ValueError("give exactly one of --theta or --direction")
    if vector is not None:
        parts = vector.split(",")
        if len(parts) != 2:
            raise ValueError("--direction expects 'wx,wy'")
        return Direction.from_vector(*(parse_exact(w, "direction component") for w in parts))
    text = theta.strip().replace(" ", "")
    m = _THETA_RE.match(text)
    if m:
        coef = m.group("coef")  # none, or a bare sign, stands for 1 or -1
        q = parse_exact({"": "1", "+": "1", "-": "-1"}.get(coef, coef.rstrip("*")), "angle coefficient")
        den = parse_exact(m.group("den") or "1", "angle denominator")
        if den == 0:
            raise ValueError("angle denominator must be nonzero")
        return Direction.from_theta_pi(q / den)
    return Direction.from_radians(parse_exact(text, "angle"))


def _load_path(where: str) -> PathSpec:
    try:
        if where == "-":
            text = sys.stdin.read()
        else:
            with open(where, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {where}: {exc}")
    try:
        return path_from_json(text)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed path description: {exc}")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _report(args, quantity: str, cert, **fields) -> int:
    """Print the certificate; exit 3 when it is only a non-shrinking bracket."""
    _emit({
        "quantity": quantity,
        "input_kind": args.path.kind,
        **fields,
        **cert.to_json_dict(args.digits),
    })
    return 3 if cert.kind is CertKind.NON_SHRINKING_BRACKET else 0


# -- subcommands -------------------------------------------------------------------


def _cmd_length(args) -> int:
    return _report(args, "length", certified_length(args.path, args.eps))


def _cmd_variation(args) -> int:
    cert = certified_variation(args.path, args.d, args.eps)
    # a bracket names its direction in its budget
    fields = {} if cert.kind is CertKind.NON_SHRINKING_BRACKET else {"direction": args.d.describe()}
    return _report(args, "variation", cert, **fields)


def _cmd_profile(args) -> int:
    rows = variation_profile(args.path, args.count, args.eps)
    cells = [
        (
            decimal_down(theta.lo, args.digits),
            decimal_up(theta.hi, args.digits),
            decimal_down(cert.value.lo, args.digits),
            decimal_up(cert.value.hi, args.digits),
        )
        for theta, cert in rows
    ]
    if args.format == "csv":
        out = ["theta_lo,theta_hi,v_lo,v_hi"] + [",".join(c) for c in cells]
        sys.stdout.write("\n".join(out) + "\n")
    else:
        _emit({
            "quantity": "variation-profile",
            "input_kind": args.path.kind,
            "count": args.count,
            "rows": [
                {"theta": {"lo": t_lo, "hi": t_hi}, "v": {"lo": v_lo, "hi": v_hi}}
                for t_lo, t_hi, v_lo, v_hi in cells
            ],
        })
    return 3 if any(cert.kind is CertKind.NON_SHRINKING_BRACKET for _, cert in rows) else 0


def _cmd_decide(args) -> int:
    a = parse_exact(args.a, "bracket endpoint a")
    b = parse_exact(args.b, "bracket endpoint b")
    answer = variation_order_decide(args.path, args.d, a, b)
    if not isinstance(answer, Verdict):  # a bracket certificate
        return _report(args, "variation-order", answer)
    _emit({
        "quantity": "variation-order",
        "input_kind": args.path.kind,
        "direction": args.d.describe(),
        "a": str(a),
        "b": str(b),
        "verdict": answer.value,
        "meaning": (
            "variation exceeds a" if answer is Verdict.GREATER_THAN_A
            else "variation is below b"
        ),
    })
    return 0


def _cmd_demo(args) -> int:
    report = adversarial_demo(args.n, args.k)
    _emit(report.to_json_dict(args.digits))
    return 0


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(b) for b in text.split(","))
    except ValueError:
        raise ValueError("--bits expects a comma-separated 0/1 list")


def _cmd_gen(args) -> int:
    if args.family == "sawtooth":
        spec = SawtoothGraph(args.n)
    elif args.family == "mixture":
        spec = SawtoothMixture(_parse_bits(args.bits))
    else:
        spec = tilt(SawtoothMixture(_parse_bits(args.bits)))
    sys.stdout.write(path_to_json(spec) + "\n")
    return 0


# -- argument wiring ---------------------------------------------------------------


def _digits(text: str) -> int:
    if not text.isdecimal():  # decimal digits in any script, each of which int() reads
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    text = ascii_digits(text).lstrip("0") or "0"
    if len(text) > len(str(DIGITS_CAP)) or int(text) > DIGITS_CAP:
        raise argparse.ArgumentTypeError(f"at most DIGITS_CAP = {DIGITS_CAP} decimal places")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pathvar",
        description="certified lengths and directional variations of planar paths",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, run, needs_path=True, eps=False, direction=False):
        p.set_defaults(run=run)
        if needs_path:
            p.add_argument("path", help="path description JSON file, or - for stdin")
        p.add_argument(
            "--digits", type=_digits, default=None if eps else 12,
            help="decimal places in output (>= 0; by default 12, more if --eps needs them)",
        )
        if eps:
            p.add_argument("--eps", default="1e-6", help="tolerance (decimal or p/q)")
        if direction:
            p.add_argument("--theta", help="direction angle: pi/2, 3pi/4, 0.25, 1/3")
            p.add_argument("--direction", help="direction ray: wx,wy (exact rationals)")

    p = sub.add_parser("length", help="two-sided length certificate")
    common(p, _cmd_length, eps=True)

    p = sub.add_parser("variation", help="two-sided directional variation certificate")
    common(p, _cmd_variation, eps=True, direction=True)

    p = sub.add_parser("profile", help="variation against direction angle")
    common(p, _cmd_profile, eps=True)
    p.add_argument("--count", type=int, default=8, help="angle cells between 0 and pi")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("decide", help="resolve variation against a bracket a < b")
    common(p, _cmd_decide, direction=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("demo", help="sampling blind spot on the sawtooth family")
    common(p, _cmd_demo, needs_path=False)
    p.add_argument("--n", type=int, default=8, help="sawtooth scale")
    p.add_argument("--k", type=int, default=3, help="observer grid scale")

    p = sub.add_parser("gen", help="emit a path description JSON")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("family", choices=("sawtooth", "mixture", "tilted"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--bits", default="", help="comma-separated mixture bits")
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        # the arguments subcommands share, read once and in this order
        if "path" in args:
            args.path = _load_path(args.path)
        if "eps" in args:
            args.eps = eps_fraction(parse_exact(args.eps, "tolerance"))
            args.digits = _fit_digits(args.digits, args.eps)
        if "theta" in args:
            args.d = _parse_direction(args.theta, args.direction)
        status = args.run(args)
    except ValueError as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"certification unavailable: {exc}", file=sys.stderr)
        return 3
    if status == 3:  # a subcommand's 3: only a non-shrinking bracket was certified
        print(_BRACKET_ONLY, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())

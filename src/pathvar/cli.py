"""Command line front end.

    pathvar length PATH --eps 1e-6
    pathvar variation PATH --theta pi/2 --eps 1e-6
    pathvar profile PATH --count 16 --format csv
    pathvar decide PATH --theta 0 --a 0.9 --b 1.1
    pathvar demo --n 8 --k 3
    pathvar gen sawtooth --n 4

PATH is a JSON file (or "-" for stdin) in the wire format of
pathvar.core.paths.  The library picks the route for each query:
variations and decisions come from the path's own variation oracle,
lengths from direction-net averaging, and a sampled graph gets the
library's non-shrinking bracket (decide prints its variation bracket).
Without --digits, endpoints are printed to the fewest places (at least 12)
that resolve a thousandth of the tolerance.
Exit status: 0 on success, 2 on malformed input or invalid arguments, 3 when
only a non-shrinking bracket can be certified (sampled graphs, printed to
stdout) or a resource cap is hit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Optional

from .core.certificates import CertKind, decimal_down, decimal_up
from .core.paths import (
    PathSpec,
    ResourceError,
    SampledGraph,
    SawtoothGraph,
    SawtoothMixture,
    path_from_json,
    path_to_json,
)
from .counterexamples import adversarial_demo, tilt
from .numerics.interval import DomainError
from .oracles import OracleUnavailable
from .rectify import (
    Verdict,
    certified_length,
    certified_variation,
    variation_order_decide,
    variation_profile,
)
from .variation import Direction

_EPS_FLOOR = Fraction(1, 1 << 96)
_THETA_RE = re.compile(r"^(?P<coef>[^p]*)pi(?:/(?P<den>\d+))?$")
_BRACKET_ONLY = "certification unavailable: sampled graphs support only non-shrinking brackets"


class InputError(ValueError):
    """Invalid arguments or malformed input; maps to exit status 2."""


def _parse_rational(text: str, what: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return Fraction(Decimal(text))
    except (InvalidOperation, OverflowError, ValueError):  # infinities overflow
        raise InputError(f"cannot parse {what} {text!r} as a rational or decimal")


def _parse_eps(text: str) -> Fraction:
    eps = _parse_rational(text, "tolerance")
    if eps <= 0:
        raise InputError("tolerance must be positive")
    if eps < _EPS_FLOOR:
        raise InputError("tolerance below 2**-96 is not supported")
    return eps


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
        raise InputError("give exactly one of --theta or --direction")
    if vector is not None:
        parts = vector.split(",")
        if len(parts) != 2:
            raise InputError("--direction expects 'wx,wy'")
        wx = _parse_rational(parts[0], "direction component")
        wy = _parse_rational(parts[1], "direction component")
        try:
            return Direction.from_vector(wx, wy)
        except DomainError as exc:
            raise InputError(str(exc))
    text = theta.strip().replace(" ", "")
    m = _THETA_RE.match(text)
    if m:
        coef = m.group("coef")
        if coef in ("", "+"):
            q = Fraction(1)
        elif coef == "-":
            q = Fraction(-1)
        else:
            q = _parse_rational(coef.rstrip("*"), "angle coefficient")
        den = int(m.group("den") or 1)
        if den == 0:
            raise InputError("angle denominator must be nonzero")
        return Direction.from_theta_pi(q / den)
    return Direction.from_radians(_parse_rational(text, "angle"))


def _load_path(where: str) -> PathSpec:
    try:
        if where == "-":
            text = sys.stdin.read()
        else:
            with open(where, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {where}: {exc}")
    try:
        return path_from_json(text)
    except (json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        raise InputError(f"malformed path description: {exc}")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _report(quantity: str, path: PathSpec, cert, digits: int, **fields) -> int:
    """Print the certificate; exit 3 when it is only a non-shrinking bracket."""
    _emit({
        "quantity": quantity,
        "input_kind": path.kind,
        **fields,
        **cert.to_json_dict(digits),
    })
    if cert.kind is CertKind.NON_SHRINKING_BRACKET:
        print(_BRACKET_ONLY, file=sys.stderr)
        return 3
    return 0


# -- subcommands -------------------------------------------------------------------


def _cmd_length(args) -> int:
    path = _load_path(args.path)
    eps = _parse_eps(args.eps)
    return _report("length", path, certified_length(path, eps), _fit_digits(args.digits, eps))


def _cmd_variation(args) -> int:
    path = _load_path(args.path)
    eps = _parse_eps(args.eps)
    d = _parse_direction(args.theta, args.direction)
    cert = certified_variation(path, d, eps)
    # a bracket names its direction in its budget
    fields = {} if cert.kind is CertKind.NON_SHRINKING_BRACKET else {"direction": d.describe()}
    return _report("variation", path, cert, _fit_digits(args.digits, eps), **fields)


def _cmd_profile(args) -> int:
    path = _load_path(args.path)
    eps = _parse_eps(args.eps)
    rows = variation_profile(path, args.count, eps)
    digits = _fit_digits(args.digits, eps)
    cells = [
        (
            decimal_down(theta.lo, digits),
            decimal_up(theta.hi, digits),
            decimal_down(v.lo, digits),
            decimal_up(v.hi, digits),
        )
        for theta, v in rows
    ]
    if args.format == "csv":
        out = ["theta_lo,theta_hi,v_lo,v_hi"] + [",".join(c) for c in cells]
        sys.stdout.write("\n".join(out) + "\n")
    else:
        _emit({
            "quantity": "variation-profile",
            "input_kind": path.kind,
            "count": args.count,
            "rows": [
                {"theta": {"lo": t_lo, "hi": t_hi}, "v": {"lo": v_lo, "hi": v_hi}}
                for t_lo, t_hi, v_lo, v_hi in cells
            ],
        })
    if isinstance(path, SampledGraph):
        print(_BRACKET_ONLY, file=sys.stderr)
        return 3
    return 0


def _cmd_decide(args) -> int:
    path = _load_path(args.path)
    d = _parse_direction(args.theta, args.direction)
    a = _parse_rational(args.a, "bracket endpoint a")
    b = _parse_rational(args.b, "bracket endpoint b")
    if not a < b:
        raise InputError("decision bracket needs a < b")
    if isinstance(path, SampledGraph):
        return _report("variation-order", path, certified_variation(path, d), args.digits)
    verdict = variation_order_decide(path, d, a, b)
    _emit({
        "quantity": "variation-order",
        "input_kind": path.kind,
        "direction": d.describe(),
        "a": str(a),
        "b": str(b),
        "verdict": verdict.value,
        "meaning": (
            "variation exceeds a" if verdict is Verdict.GREATER_THAN_A
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
        raise InputError("--bits expects a comma-separated 0/1 list")


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
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pathvar",
        description="certified lengths and directional variations of planar paths",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, run, needs_path=True, eps=False):
        p.set_defaults(run=run)
        if needs_path:
            p.add_argument("path", help="path description JSON file, or - for stdin")
        p.add_argument(
            "--digits", type=_digits, default=None if eps else 12,
            help="decimal places in output (>= 0; by default 12, more if --eps needs them)",
        )
        if eps:
            p.add_argument("--eps", default="1e-6", help="tolerance (decimal or p/q)")

    p = sub.add_parser("length", help="two-sided length certificate")
    common(p, _cmd_length, eps=True)

    p = sub.add_parser("variation", help="two-sided directional variation certificate")
    common(p, _cmd_variation, eps=True)
    p.add_argument("--theta", help="direction angle: pi/2, 3pi/4, 0.25, 1/3")
    p.add_argument("--direction", help="direction ray: wx,wy (exact rationals)")

    p = sub.add_parser("profile", help="variation against direction angle")
    common(p, _cmd_profile, eps=True)
    p.add_argument("--count", type=int, default=8, help="angle cells between 0 and pi")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("decide", help="resolve variation against a bracket a < b")
    common(p, _cmd_decide)
    p.add_argument("--theta")
    p.add_argument("--direction")
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
        return args.run(args)
    except ValueError as exc:  # InputError and DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleUnavailable, ResourceError) as exc:
        print(f"certification unavailable: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

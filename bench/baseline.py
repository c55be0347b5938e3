"""Baseline reproduction: time each cheap row of the ROADMAP "Baseline"
and print it beside the figure recorded there.

    python3 bench/baseline.py [--slow]

Run from the root of a source checkout.  Every row runs in a fresh
interpreter and is timed twice: "cold" is the first run, with the caches as
a fresh process has them, as for the recorded figures; "warm" is the second.
Layer microbenchmarks that the ROADMAP gives per operation report the mean
over a batch.  The figures were single runs on a 2-core host with Python
3.11.7; this report is informational and gates nothing.  The n=16 and n=18
sawtooth rows take minutes each and run only with --slow.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ROW_TIMEOUT_S = 600


def _parabola(pv):
    return pv.PolynomialPath(pv.RationalPoly([0, 1]), pv.RationalPoly([0, 0, 1]))


# -- library rows: each returns (work, number of operations it does) --------------------


def dyadic_add(pv):
    a, b = pv.Dyadic(3, -5), pv.Dyadic(7, -9)
    return (lambda: [a + b for _ in range(100_000)]), 100_000


def sqrt_down(pv):
    from pathvar.numerics.dyadic import sqrt_down as fn

    return (lambda: [fn(F(2, 3), -80) for _ in range(10_000)]), 10_000


def pi_enclosure(pv):
    from pathvar.numerics.trig import pi_enclosure as fn

    return (lambda: fn(-64)), 1


def sin_enclosure(pv):
    from pathvar.numerics.trig import sin_enclosure as fn

    return (lambda: fn(F(1, 3))), 1


def sturm_deg10(pv):
    """Ten distinct roots k/11 in (0, 1)."""
    from pathvar.numerics.ratpoly import sturm_isolate

    p = pv.RationalPoly([1])
    for k in range(1, 11):
        p = p * pv.RationalPoly([F(-k, 11), 1])
    return (lambda: sturm_isolate(p)), 1


def net_node_snap(pv):
    """The first 64 non-axis nodes of the parabola's net at 1/20."""
    net = pv.build_direction_net(F(3, 2), F(1, 20))
    return (lambda: [net.node(j) for j in range(1, 65)]), 64


def merge_1025_513(pv):
    p = pv.Partition(pv.Dyadic(j, -10) for j in range(1025))
    odd = [pv.Dyadic(2 * j - 1, -11) for j in range(1, 512)]
    q = pv.Partition([pv.Dyadic(0)] + odd + [pv.Dyadic(1)])
    return (lambda: pv.merge_partitions(p, q)), 1


def _certify(kind: str, make, eps, **kw):
    def row(pv):
        path = make(pv)
        if kind == "length":
            return (lambda: pv.certified_length(path, eps, **kw)), 1
        d = pv.Direction.from_vector(0, 1)
        return (lambda: pv.certified_variation(path, d, eps)), 1

    return row


def _sawtooth(n):
    return lambda pv: pv.sawtooth(n)


# (name, ROADMAP figure in seconds, row, slow)
LIBRARY_ROWS = [
    ("Dyadic add", 1.4e-6, dyadic_add, False),
    ("sqrt_down(2/3, -80)", 6e-6, sqrt_down, False),
    ("pi_enclosure(-64)", 0.21e-3, pi_enclosure, False),
    ("sin_enclosure(1/3)", 0.33e-3, sin_enclosure, False),
    ("Sturm isolation, degree 10", 5.1e-3, sturm_deg10, False),
    ("snap one net node", 93e-6, net_node_snap, False),
    ("merge 1,025 + 513 points", 3.4e-3, merge_1025_513, False),
    ("certified_length(sawtooth(10), 1e-9)", 0.62, _certify("length", _sawtooth(10), F(1, 10**9)), False),
    ("certified_variation(sawtooth(10), 1e-9)", 0.27,
     _certify("variation", _sawtooth(10), F(1, 10**9)), False),
    ("certified_length(sawtooth(14), 1e-9)", 4.5, _certify("length", _sawtooth(14), F(1, 10**9)), False),
    ("certified_variation(sawtooth(14), 1e-9)", 5.5,
     _certify("variation", _sawtooth(14), F(1, 10**9)), False),
    ("certified_length(sawtooth(16), 1e-9)", 22, _certify("length", _sawtooth(16), F(1, 10**9)), True),
    ("certified_variation(sawtooth(16), 1e-9)", 24,
     _certify("variation", _sawtooth(16), F(1, 10**9)), True),
    ("certified_length(sawtooth(18), 1e-9)", 98, _certify("length", _sawtooth(18), F(1, 10**9)), True),
    ("certified_variation(sawtooth(18), 1e-9)", 94,
     _certify("variation", _sawtooth(18), F(1, 10**9)), True),
    ("parabola length, uniform witness, 1e-3", 0.037, _certify("length", _parabola, F(1, 1000)), False),
    ("parabola length, uniform witness, 1e-6", 0.20, _certify("length", _parabola, F(1, 10**6)), False),
    ("parabola length, per-node net, 1/20", 7.5,
     _certify("length", _parabola, F(1, 20), use_uniform_witness=False), False),
    ("certified_variation(parabola, vertical, 1e-3)", 0.82,
     _certify("variation", _parabola, F(1, 1000)), False),
    ("certified_variation(parabola, vertical, 1e-4)", 8.3,
     _certify("variation", _parabola, F(1, 10**4)), False),
]

# (name, ROADMAP figure in seconds, input file, argv)
CLI_ROWS = [
    ("cli length sawtooth n=2, 1e-9", 0.51, {"kind": "sawtooth", "n": 2}, ["length", "--eps", "1e-9"]),
    ("cli variation sawtooth n=2, 1e-9", 0.17, {"kind": "sawtooth", "n": 2},
     ["variation", "--theta", "pi/2", "--eps", "1e-9"]),
    ("cli length sawtooth n=12, 1e-9", 2.0, {"kind": "sawtooth", "n": 12}, ["length", "--eps", "1e-9"]),
    ("cli length parabola, 1e-6", 0.82, {"kind": "polynomial", "x": [0, 1], "y": [0, 0, 1]},
     ["length", "--eps", "1e-6"]),
    ("cli variation parabola, theta 1/3, 1e-9", 0.18,
     {"kind": "polynomial", "x": [0, 1], "y": [0, 0, 1]}, ["variation", "--theta", "1/3", "--eps", "1e-9"]),
]

def run_row(name: str) -> tuple[float, float]:
    """In this interpreter: (cold, warm) seconds per operation of the named
    row, or, for "import pathvar", the import time twice."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pathvar as pv

    if name == "import pathvar":
        return (time.perf_counter() - t0,) * 2
    for row_name, _, make, _ in LIBRARY_ROWS:
        if row_name == name:
            work, ops = make(pv)
            times = []
            for _ in range(2):
                t0 = time.perf_counter()
                work()
                times.append((time.perf_counter() - t0) / ops)
            return times[0], times[1]
    raise ValueError(f"unknown row {name!r}")


def _fmt(seconds: float) -> str:
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} us"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--slow", action="store_true", help="also run the n=16 and n=18 rows")
    ap.add_argument("--row", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row:
        print(json.dumps(run_row(args.row)))
        return 0
    if not (SRC / "pathvar" / "__init__.py").is_file():
        print(f"no pathvar sources under {SRC}", file=sys.stderr)
        return 1
    print(f"{'row':<48} {'ROADMAP':>10} {'cold':>10} {'ratio':>7} {'warm':>10}")
    rows = [("import pathvar", 0.085, None, False)] + LIBRARY_ROWS
    for name, figure, _, slow in rows:
        if slow and not args.slow:
            continue
        proc = subprocess.run([sys.executable, __file__, "--row", name], capture_output=True, text=True,
                              timeout=ROW_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"{name:<48} failed: {proc.stderr.strip().splitlines()[-1:]}")
            continue
        cold, warm = json.loads(proc.stdout)
        print(f"{name:<48} {_fmt(figure):>10} {_fmt(cold):>10} {cold / figure:>7.2f} {_fmt(warm):>10}",
              flush=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for name, figure, obj, argv in CLI_ROWS:
            f = Path(tmp) / "input.json"
            f.write_text(json.dumps(obj))
            cmd = [sys.executable, "-m", "pathvar", argv[0], str(f)] + argv[1:]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, env=env, timeout=ROW_TIMEOUT_S)
            now = time.perf_counter() - t0
            note = "" if proc.returncode == 0 else f"  (exit {proc.returncode})"
            print(f"{name:<48} {_fmt(figure):>10} {_fmt(now):>10} {now / figure:>7.2f}{note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

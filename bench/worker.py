"""One workload in one interpreter: set up, run the closed loop, check.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --src SRC_DIR --work WORK_DIR [--setup-only]

Prints one JSON object of raw results on stdout; bench/run.py turns it
into metrics.  The loop is closed with one query in flight: each query
starts when the previous one has returned.  It runs whole cycles of the
query list for about --seconds, so every run sees the same mix.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import tracing
import workloads as wl

CLI_TIMEOUT_S = 60
CAL_TERMS = 600
CAL_NOMINAL_S = 0.002  # kernel time that defines nominal host speed (1.2-2.9 ms on a shared 2-vCPU Xeon)


def calibration_kernel() -> float:
    """Seconds taken by a fixed pure-Python workload (a Fraction harmonic
    sum, the same mix of big-integer and gcd work pathvar does).  Run next
    to a measurement, it gives how fast the host is running right then; the
    faster of two runs, so that one preemption does not skew it.  Across
    runs it also tracks the cli workload's processes, which run on the same
    CPU, better than the start-up time of a bare interpreter does."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        s = Fraction(0)
        for k in range(1, CAL_TERMS):
            s += Fraction(1, k)
        best = min(best, time.perf_counter() - t0)
    return best


# -- library workloads ---------------------------------------------------------------


def materialize(pv, pd: wl.PathData):
    if pd.kind == "sawtooth":
        return pv.sawtooth(pd.n)
    if pd.kind == "tilt":
        return pv.tilt(pv.sawtooth(pd.n))
    if pd.kind == "polyline":
        return pv.Polyline(pd.vertices)
    return pv.PolynomialPath(pv.RationalPoly(list(pd.x)), pv.RationalPoly(list(pd.y)))


def direction(pv, spec: tuple):
    if spec[0] == "ray":
        return pv.Direction.from_vector(spec[1], spec[2])
    if spec[0] == "pi":
        return pv.Direction.from_theta_pi(spec[1])
    return pv.Direction.from_radians(spec[1])


def run_query(pv, path, q: wl.Query) -> tuple:
    """Answer one query through the public API, as plain data."""
    d = direction(pv, q.direction) if q.direction is not None else None
    if q.op == "achieve":
        _, v = pv.PolynomialVariationOracle(path).achieve_variation(d, q.eps)
        return ("enclosure", v.lo.as_fraction(), v.hi.as_fraction())
    if q.op == "decide":
        return ("verdict", pv.variation_order_decide(path, d, q.a, q.b).value)
    if q.op == "length":
        cert = pv.certified_length(path, q.eps)
    elif q.op == "length_net":
        cert = pv.certified_length(path, q.eps, use_uniform_witness=False)
    else:
        cert = pv.certified_variation(path, d, q.eps)
    return ("cert", cert.value.lo.as_fraction(), cert.value.hi.as_fraction(),
            Fraction(cert.tolerance), cert.kind.value)


class Recorder:
    """Latencies by query kind, and each distinct answer per query index
    with its count (checked once after the timed loop).

    On a shared host the speed of the machine drifts by a factor of two
    within seconds, while the ratio of a query's time to that of the
    calibration kernel stays within a few percent.  The kernel therefore
    runs between consecutive measurements, and each latency is also
    reported scaled to nominal host speed: multiplied by the kernel's
    nominal time over the mean of the kernel times just before and just
    after it."""

    def __init__(self):
        self.samples: list[tuple[str, float, float]] = []  # (kind, seconds, kernel seconds)
        self.answers: dict[int, Counter] = defaultdict(Counter)
        self._last: float | None = None

    def measure(self, idx: int, kind: str, run) -> None:
        """Time run(), which returns (answer, seconds)."""
        before = self._last if self._last is not None else calibration_kernel()
        answer, seconds = run()
        self._last = calibration_kernel()
        self.samples.append((kind, seconds, (before + self._last) / 2))
        self.answers[idx][answer] += 1

    def host_speed(self) -> float:
        return statistics.median(k for _, _, k in self.samples) / CAL_NOMINAL_S

    def step(self, fn):
        """Time fn() as one set-up step; return its result."""
        out = []

        def run():
            t0 = time.perf_counter()
            out.append(fn())
            return None, time.perf_counter() - t0

        self.measure(-1, "setup", run)
        return out[0]

    def raw_s(self) -> float:
        return sum(s for _, s, _ in self.samples)

    def busy_s(self) -> float:
        """Total time measured, scaled to nominal host speed."""
        return sum(s * CAL_NOMINAL_S / k for _, s, k in self.samples)

    def latencies(self) -> tuple[dict, dict]:
        """(raw, scaled to nominal host speed) latencies in ms by kind;
        the kind "all" holds every sample."""
        raw: dict[str, list] = defaultdict(list)
        scaled: dict[str, list] = defaultdict(list)
        for kind, seconds, kernel in self.samples:
            for key in ("all", kind):
                raw[key].append(seconds * 1000)
                scaled[key].append(seconds * CAL_NOMINAL_S / kernel * 1000)
        return dict(raw), dict(scaled)


def library_loop(pv, objs, queries, rec: Recorder) -> None:
    for idx, q in enumerate(queries):
        path = objs[q.path]

        def run():
            t0 = time.perf_counter()
            try:
                answer = run_query(pv, path, q)
            except Exception as exc:  # a failed query is counted, not fatal
                answer = ("error", f"{type(exc).__name__}: {exc}")
            return answer, time.perf_counter() - t0

        rec.measure(idx, q.kind, run)


def check_library(paths, queries, rec: Recorder) -> dict:
    failed, correct, ratios, errors = 0, True, [], []
    for idx, answers in sorted(rec.answers.items()):
        q = queries[idx]
        for answer, count in answers.items():
            if answer[0] == "error":
                failed += count
                errors.append(f"{q}: {answer[1]}")
                continue
            ok, ratio, msg = wl.check_library(q, paths[q.path], answer)
            if not ok:
                failed += count
                correct = False
                errors.append(f"{q}: {msg}")
            elif ratio is not None:
                ratios += [ratio] * count
    return {"failed": failed, "correct": correct, "width_ratios": ratios, "errors": errors}


# -- cli workload --------------------------------------------------------------------


class CliRunner:
    def __init__(self, src: Path, work: Path, inputs: dict):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for name, obj in inputs.items():
            f = work / f"{name}.json"
            f.write_text(json.dumps(obj) + "\n")
            self.files[name] = str(f)
        self.files["missing"] = str(work / "missing.json")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.trace_file = work / "trace.json"

    def argv(self, q: wl.CliQuery) -> list[str]:
        return [a.format(**self.files) if a.startswith("{") else a for a in q.argv]

    def run(self, q: wl.CliQuery, traced: bool) -> tuple[int, bytes, float]:
        if traced:
            head = [sys.executable, str(Path(__file__).with_name("cli_trace.py")), str(self.trace_file)]
        else:
            head = [sys.executable, "-m", "pathvar"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                head + self.argv(q), env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S
            )
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            code, out = -1, b""
        return code, out, time.perf_counter() - t0


def cli_loop(runner: CliRunner, queries, rec: Recorder, outputs: dict,
             tracer_totals: dict | None) -> None:
    for idx, q in enumerate(queries):

        def run():
            code, out, dt = runner.run(q, tracer_totals is not None)
            outputs.setdefault(idx, set()).add(hashlib.sha256(out).hexdigest())
            return (code, out.decode("utf-8", "replace")), dt

        rec.measure(idx, q.kind, run)
        if tracer_totals is not None and runner.trace_file.exists():
            tracing.merge(tracer_totals, json.loads(runner.trace_file.read_text()))
            runner.trace_file.unlink()


def check_cli(queries, rec: Recorder, outputs: dict) -> dict:
    failed, correct, ratios, errors = 0, True, [], []
    for idx, answers in sorted(rec.answers.items()):
        q = queries[idx]
        for (code, out), count in answers.items():
            ok, ratio, msg = wl.check_cli(q, code, out)
            if not ok:
                failed += count
                errors.append(f"{' '.join(q.argv)}: {msg}")
                # a wrong exit status is a failure; a wrong answer is also incorrect
                correct = correct and code != q.expect
            elif ratio is not None:
                ratios += [ratio] * count
    for idx, hashes in sorted(outputs.items()):
        if len(hashes) > 1:
            correct = False
            errors.append(f"{' '.join(queries[idx].argv)}: stdout differs between runs")
    return {"failed": failed, "correct": correct, "width_ratios": ratios, "errors": errors}


def run_probes(runner: CliRunner, probes) -> list[dict]:
    """Each robustness probe once, with whether it got its documented exit."""
    report = []
    for q in probes:
        code, out, _ = runner.run(q, False)
        ok, _, msg = wl.check_cli(q, code, out.decode("utf-8", "replace"))
        report.append({"argv": " ".join(q.argv), "passed": ok, "message": msg})
    return report


# -- entry point --------------------------------------------------------------------------


def timed_cycles(run_cycle, seconds: float) -> int:
    """Whole cycles, as many as come closest to `seconds` (at least one);
    the number run."""
    t0 = time.perf_counter()
    cycles = 0
    while True:
        run_cycle()
        cycles += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / cycles / 2 >= seconds:
            return cycles


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = Path(args.src)

    # one CPU for this process and the pathvar processes it starts, so that
    # the calibration kernel runs where the timed work runs
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # set-up: import, inputs and warm-up, each step timed like a query
    setup = Recorder()
    if args.workload == "cli":
        inputs, argvs = setup.step(lambda: wl.build("cli", args.seed))
        queries = [q for q in argvs if not q.probe]
        runner = setup.step(lambda: CliRunner(src, Path(args.work), inputs))
        # one cold start, so that bytecode exists before anything is timed
        setup.step(lambda: runner.run(wl.CliQuery(("gen", "sawtooth", "--n", "1"), 0, "other"), False))
        outputs: dict = {}
        totals = {} if args.trace else None

        def cycle(rec, traced=True):
            cli_loop(runner, queries, rec, outputs, totals if traced else None)
    else:
        sys.path.insert(0, str(src))
        pv = setup.step(lambda: importlib.import_module("pathvar"))
        paths, queries = setup.step(lambda: wl.build(args.workload, args.seed))
        objs = setup.step(lambda: {name: materialize(pv, pd) for name, pd in paths.items()})
        library_loop(pv, objs, wl.warm_set(queries), setup)

        def cycle(rec, traced=True):
            library_loop(pv, objs, queries, rec)

    setup_s, raw_setup_s = setup.busy_s(), setup.raw_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return

    # a traced run first times one untraced cycle, the base of the overhead
    rec0 = None
    tracer = None
    if args.trace:
        rec0 = Recorder()
        cycle(rec0, traced=False)
        if args.workload != "cli":
            tracer = tracing.Tracer()
            tracer.install()
    rec = Recorder()
    cycles = timed_cycles(lambda: cycle(rec), args.seconds)
    if tracer is not None:
        tracer.uninstall()
        totals = tracer.snapshot()

    if args.workload == "cli":
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result = check_cli(queries, rec, outputs)
        result["probes"] = run_probes(runner, [q for q in argvs if q.probe])
    else:
        result = check_library(paths, queries, rec)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw, scaled = rec.latencies()
    result.update({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "latency_ms": scaled,
        "raw_latency_ms": raw,
        "busy_s": rec.busy_s(),
        "queries": len(rec.samples),
        "queries_per_cycle": len(rec.samples) // cycles,
        "cycles": cycles,
        "host_speed": rec.host_speed(),
        "peak_rss_mb": rss / 1024,
        "width_ratios": [float(r) for r in result["width_ratios"]],
    })
    if args.trace:
        overhead = rec.busy_s() / cycles / rec0.busy_s()
        result["layers"] = tracing.layer_metrics(totals, cycles, overhead)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

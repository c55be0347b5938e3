"""pathvar benchmark: time to a certificate, end to end and per layer.

    python3 bench/run.py --workload polyline|polynomial|cli --seed N
                         --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout; pathvar is imported from ./src.
Each workload runs in a fresh interpreter (bench/worker.py), because the pi
and trig caches are module-global.  The loop is closed with one query in
flight and no threads; the library's `workers` argument is never passed.

Workloads:
  polyline    certified_length / certified_variation (1e-9) and
              variation_order_decide on sawtooth(6..11), their tilts and
              seeded random polylines of 65..2,049 vertices.  Stresses the
              chord kernel (core.chords, core.paths, numerics.dyadic); the
              vertex partition is a uniform witness, so no Sturm isolation
              and no direction net is used.
  polynomial  PolynomialPaths: uniform-witness length (1e-6), per-node
              Crofton length (1/20 and 1/40), refinement-gain variation
              (1e-3), critical-point achieve_variation (1e-9) and decide.
              Stresses numerics.ratpoly, numerics.trig, Direction snapping,
              partition merging and rectify.
  cli         one `python -m pathvar` subprocess per query, cold caches, on
              small JSON inputs; gen, length, variation, profile, decide and
              demo, plus sampled-graph brackets (exit 3) and malformed
              arguments (exit 2).  Stresses start-up, import, formatting and
              the cold two-direction constant.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, per cycle of the
query list (see bench/tracing.py), and trace.overhead_ratio, the traced
cycle's query time over an untraced cycle's.  Earlier lines give every
metric with its unit and sample count, the run metadata, failing queries
and the ROADMAP robustness probes of the cli workload.  Those probes run
once per cli run, after the timed loop, and are kept out of the measured
mix and out of `failed`: several of them fail at the seed commit, and the
mix is meant to hold only queries that succeed.

Times are reported at nominal host speed.  Every query and every set-up
step is bracketed by two runs of a fixed calibration kernel (see
bench/worker.py), and its time is scaled by the kernel's nominal time over
the mean of the two.  On a shared host whose speed drifts by a factor of
two, this keeps run-to-run spreads to a few percent; the raw times are in
the worker's output.  setup_s is the median of SETUPS fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("polyline", "polynomial", "cli")
SETUPS = 3  # set-up is measured in this many fresh interpreters; median reported
WORKER_TIMEOUT_S = 150


def percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def metadata(seed: int) -> dict:
    sha = "unknown"
    if shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
        "src_lines": src_lines,
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, work: Path,
               setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--src", str(SRC), "--work", str(work),
    ] + (["--setup-only"] if setup_only else [])
    # its own process group, so that a timeout also ends the pathvar
    # processes the worker has started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(raw: dict, setups: list) -> tuple[dict, dict]:
    """Metrics of BENCHMARK.json's end_to_end list, and their sample counts.
    Times are scaled to nominal host speed (see worker.Recorder)."""
    lat = raw["latency_ms"]
    ratios = raw["width_ratios"]
    attempted = raw["queries"]
    values = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "query_p50_ms": (statistics.median(lat["all"]), "ms", len(lat["all"])),
        "query_p90_ms": (percentile(lat["all"], 90), "ms", len(lat["all"])),
        "length_p50_ms": (statistics.median(lat["length"]), "ms", len(lat["length"])),
        "variation_p50_ms": (statistics.median(lat["variation"]), "ms", len(lat["variation"])),
        # closed loop, one query in flight: throughput is queries over busy time
        "queries_per_s": (attempted / raw["busy_s"], "1/s", attempted),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
        "ok_ratio": ((attempted - raw["failed"]) / attempted, "ratio", attempted),
        "cert_width_ratio": (statistics.fmean(ratios) if ratios else 1.0, "ratio", len(ratios)),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
    samples = {k: n for k, (_, _, n) in values.items()}
    return metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "pathvar" / "__init__.py").is_file():
        raise FileNotFoundError(f"no pathvar sources under {SRC}")
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / ".work"))
    try:
        # set-up time is an end-to-end metric only; a traced run skips it
        setups = [run_worker(workload, seed, seconds, trace, work, setup_only=True)["setup_s"]
                  for _ in range(0 if trace else SETUPS - 1)]
        raw = run_worker(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(raw["setup_s"])
    metrics, samples = end_to_end(raw, setups)
    if trace:
        metrics, samples = raw["layers"], {k: raw["cycles"] for k in raw["layers"]}
    return {
        "workload": workload,
        "meta": metadata(seed),
        "cycles": raw["cycles"],
        "queries_per_cycle": raw["queries_per_cycle"],
        "host_speed": raw["host_speed"],
        "raw_p50_ms": statistics.median(raw["raw_latency_ms"]["all"]),
        "samples": samples,
        "errors": raw["errors"],
        "probes": raw.get("probes", []),
        "result": {
            "correct": raw["correct"],
            "attempted": raw["queries"],
            "failed": raw["failed"],
            "metrics": metrics,
        },
    }


def report(out: dict) -> None:
    res = out["result"]
    print(f"workload {out['workload']}: {out['cycles']} cycles of "
          f"{out['queries_per_cycle']} queries; host speed factor {out['host_speed']:.4f} "
          f"(unscaled query p50 {out['raw_p50_ms']:.4g} ms); "
          + json.dumps(out["meta"]))
    print(f"  {'metric':<64} {'value':>14} {'unit':<6} samples")
    for name, m in res["metrics"].items():
        print(f"  {name:<64} {m['value']:>14.6g} {m['unit']:<6} {out['samples'][name]}")
    print(f"  correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for err in out["errors"][:20]:
        print(f"  FAILED: {err}")
    for p in out["probes"]:
        state = "passes" if p["passed"] else f"FAILS ({p['message']})"
        print(f"  probe {state}: pathvar {p['argv']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    try:
        if args.all:
            results = {}
            for w in WORKLOADS:
                out = run_workload(w, args.seed, args.seconds, args.trace)
                report(out)
                results[w] = out["result"]
            print(json.dumps(results))
            return 0
        out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

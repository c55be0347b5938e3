"""The golden corpus: every library answer of the polyline and polynomial
bench workloads and every cli argv of the cli workload, seeds 1-3.

    python3 tests/golden/regen.py

rewrites answers.jsonl and cli.jsonl beside this file.  tests/test_golden.py
computes the same records in-process and compares them with the files, so
a change that moves an answer shows up as a diff of these files.

Library queries come from bench/workloads.py and are answered through
bench/worker.py's run_query, with pathvar behind a thin recorder that keeps
each certificate's method and partition size and each achieve_variation
partition.  The cli argv run through pathvar.cli.main with stdout and
stderr captured; an input file is named by its {name} placeholder in the
argv and in the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (ROOT / "src", ROOT / "bench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import pathvar  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from pathvar import cli  # noqa: E402

SEEDS = (1, 2, 3)
LIBRARY_WORKLOADS = ("polyline", "polynomial")
ANSWERS = HERE / "answers.jsonl"
CLI = HERE / "cli.jsonl"


def _exact(q) -> str:
    return f"{q.numerator}/{q.denominator}"


class _Recorder:
    """pathvar as run_query sees it; `last` is the certificate or the
    achieve_variation partition of the latest call."""

    def __init__(self):
        self.last = None

    def __getattr__(self, name):
        return getattr(pathvar, name)

    def _keep(self, value):
        self.last = value
        return value

    def certified_length(self, *args, **kwargs):
        return self._keep(pathvar.certified_length(*args, **kwargs))

    def certified_variation(self, *args, **kwargs):
        return self._keep(pathvar.certified_variation(*args, **kwargs))

    def PolynomialVariationOracle(self, path):
        oracle = pathvar.PolynomialVariationOracle(path)
        recorder = self

        class Kept:
            def achieve_variation(self, d, eps):
                part, v = oracle.achieve_variation(d, eps)
                recorder.last = part
                return part, v

        return Kept()


def answer_records():
    """One record per library query, in workload, seed and index order."""
    pv = _Recorder()
    for name in LIBRARY_WORKLOADS:
        for seed in SEEDS:
            paths, queries = wl.build(name, seed)
            objs = {key: worker.materialize(pathvar, pd) for key, pd in paths.items()}
            for index, q in enumerate(queries):
                pv.last = None
                answer = worker.run_query(pv, objs[q.path], q)
                record = {"workload": name, "seed": seed, "index": index, "op": q.op}
                if answer[0] == "verdict":
                    record["verdict"] = answer[1]
                else:
                    record.update(lo=_exact(answer[1]), hi=_exact(answer[2]))
                if answer[0] == "cert":
                    record.update(tolerance=_exact(answer[3]), kind=answer[4],
                                  method=pv.last.method, partition_size=pv.last.partition_size)
                elif answer[0] == "enclosure":
                    record["partition"] = [pv.last.k, list(pv.last.nums)]
                yield record


def cli_records():
    """One record per cli argv, probes included, in seed and argv order."""
    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            inputs, argvs = wl.build("cli", seed)
            files = {"missing": str(Path(work) / "missing.json")}
            for name, obj in inputs.items():
                files[name] = str(Path(work) / f"{name}.json")
                Path(files[name]).write_text(json.dumps(obj) + "\n")
            for index, q in enumerate(argvs):
                argv = [a.format(**files) if a.startswith("{") else a for a in q.argv]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                texts = [out.getvalue(), err.getvalue()]
                for name, f in files.items():
                    texts = [t.replace(f, "{" + name + "}") for t in texts]
                yield {"seed": seed, "index": index, "argv": list(q.argv), "exit": code,
                       "stdout": texts[0], "stderr": texts[1]}


def dump(record) -> str:
    return json.dumps(record, ensure_ascii=False)


def main() -> None:
    for target, records in ((ANSWERS, answer_records()), (CLI, cli_records())):
        target.write_text("".join(dump(r) + "\n" for r in records), encoding="utf-8")


if __name__ == "__main__":
    main()

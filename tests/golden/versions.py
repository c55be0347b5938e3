"""The CLI corpus on every installed Python.

    python3 tests/golden/versions.py

runs regen.cli_records() in one child process per interpreter under
~/.pyenv/versions/3.1[0-3]* and compares each record it prints with
cli.jsonl beside this file.  For each interpreter it prints how many
records match, then every record that differs, by seed, index and argv,
with the fields that differ.  Standard library only, as the children have
no pytest; the tier-1 suite does not collect this file.  Exit status: 0
when every interpreter matches every record, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import regen; "
    "sys.stdout.writelines(regen.dump(r) + '\\n' for r in regen.cli_records())"
)


def interpreters() -> list[Path]:
    return sorted(Path.home().glob(".pyenv/versions/3.1[0-3]*/bin/python3"))


def compare(python: Path, golden: list[dict]) -> int:
    """Print the records python gives that differ from golden; their count."""
    version = python.parents[1].name
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run([str(python), "-c", CHILD, str(HERE)], capture_output=True, text=True,
                          encoding="utf-8", env=env)
    if proc.returncode:
        print(f"{version}: the child exited {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}")
        return len(golden)
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    differ = [(want, have) for want, have in zip(golden, got) if want != have]
    missing = abs(len(golden) - len(got))
    print(f"{version}: {len(golden) - len(differ) - missing} of {len(golden)} records match")
    for want, have in differ:
        fields = [k for k in want if want[k] != have.get(k)]
        print(f"  seed {want['seed']} index {want['index']} {want['argv']}: {', '.join(fields)} differ")
    if missing:
        print(f"  {len(got)} records printed, {len(golden)} expected")
    return len(differ) + missing


def main() -> int:
    golden = [json.loads(line) for line in (HERE / "cli.jsonl").read_text(encoding="utf-8").splitlines()]
    pythons = interpreters()
    if not pythons:
        print("no interpreter under ~/.pyenv/versions/3.1[0-3]*")
        return 1
    return 1 if sum(compare(python, golden) for python in pythons) else 0


if __name__ == "__main__":
    sys.exit(main())

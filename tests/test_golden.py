"""Same answers as the golden corpus: every polyline and polynomial library
answer and every cli record of bench seeds 1-3, recomputed in-process and
compared with tests/golden/*.jsonl record by record.  A change that moves
an answer regenerates the files with tests/golden/regen.py, and their diff
lists each changed record before and after."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402


def _first_difference(kept: list, fresh: list) -> str:
    for old, new in zip(kept, fresh):
        for field in sorted(old.keys() | new.keys()):
            if old.get(field) != new.get(field):
                where = {k: old.get(k) for k in ("workload", "seed", "index", "argv") if k in old}
                return f"record {where}: {field} was {old.get(field)!r}, is now {new.get(field)!r}"
    return f"{len(kept)} records kept, {len(fresh)} computed"


@pytest.mark.parametrize("target, records", [
    (regen.ANSWERS, regen.answer_records),
    (regen.CLI, regen.cli_records),
], ids=["answers", "cli"])
def test_golden_records_unchanged(target, records):
    kept = [json.loads(line) for line in target.read_text(encoding="utf-8").splitlines()]
    fresh = [json.loads(regen.dump(r)) for r in records()]
    assert kept == fresh, _first_difference(kept, fresh)

"""Run the pathvar command line with the per-layer tracer installed.

    python3 bench/cli_trace.py TRACE_OUT [pathvar arguments...]

Behaves like `python -m pathvar [arguments...]` (same stdout, stderr and
exit status, a traceback included) and writes the tracer's totals as JSON
to TRACE_OUT.  pathvar must be importable, for example through PYTHONPATH.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pathvar.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = pathvar.cli.main(argv)
    finally:
        Path(out).write_text(json.dumps(tracer.snapshot()))
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Run the pdrkit CLI under the outside-in tracer.

    python3 perfbench/traced_cli.py SPAN_DIR verify --enumerate 5 --jobs 2

Arguments after SPAN_DIR go to ``pdrkit.cli.main`` unchanged; stdout and
the exit code are the CLI's own. The tracer is installed before the pool
starts, so forked workers inherit the wrapped functions and write their
spans to ``SPAN_DIR/worker-<pid>.jsonl``; this process writes
``SPAN_DIR/main-<pid>.jsonl`` at the end. pdrkit must be importable
(PYTHONPATH=src).
"""

import os
import sys
from pathlib import Path

import pdrkit.cli
from tracer import Tracer


def main() -> int:
    span_dir = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    tracer.stream_to(lambda pid: str(span_dir / f"worker-{pid}.jsonl"))
    try:
        return pdrkit.cli.main(sys.argv[2:])
    finally:
        tracer.write(str(span_dir / f"main-{os.getpid()}.jsonl"))


if __name__ == "__main__":
    sys.exit(main())

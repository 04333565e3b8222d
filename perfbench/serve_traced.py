"""``repro serve`` with the traced run's timing wrappers installed.

Usage, from the root of a full checkout::

    PYTHONPATH=src python3 perfbench/serve_traced.py RECORDS.json serve [options]

Installs :class:`layers.LayerRecorder` before the service (and so its
process pool) starts, runs ``repro.cli.main`` with the remaining
arguments, and writes the layer records to ``RECORDS.json`` once the
server has shut down (SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import LayerRecorder
from repro.cli import main


def run(argv: list[str]) -> int:
    records, cli_args = Path(argv[0]), argv[1:]
    recorder = LayerRecorder().install()
    try:
        return main(cli_args)
    finally:
        recorder.uninstall()
        records.write_text(json.dumps(recorder.to_dict()))


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))

#!/usr/bin/env python3
"""Served-GA benchmark: one workload, one run, absolute numbers.

Usage, from the root of a full checkout::

    python3 perfbench/run.py --workload slab-burst --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/workloads.py`` records why each was chosen and
which layers it loads and bypasses):

* ``slab-burst``    closed bursts of population-256 jobs into an
                    in-process ``GAService``;
* ``archipelago``   closed bursts of 256-island jobs into the same service;
* ``tcp-roundtrip`` a ``repro serve`` subprocess driven by 2 closed-loop
                    ``submit_remote`` clients: fresh small jobs, then the
                    same requests again (store hits).

Every run sets the system up 5 times (``setup_s`` is the median), then
runs rounds until their cold parts add up to ``--seconds``: a cold part of
fresh jobs (one closed burst, or 2 s of the client loop) and a warm part
resending that round's requests, answered from the store.  Each result is
checked against a reference computed after the timed rounds by two
``perfbench/reference.py`` subprocesses: ``run_batched`` for ordinary jobs
(spot-checked against ``repro.store.replay.execute_request``) and
``execute_request`` for island jobs.  Warm results must equal their cold
results and come from the store.  A process the run started that is still
alive at its end fails the run.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` makes an untraced pass, then installs the timing wrappers of
``perfbench/layers.py`` (in the ``repro serve`` subprocess through
``perfbench/serve_traced.py``) and repeats the pass on the same inputs; it
reports the per-layer metrics and ``trace.overhead_frac`` per end-to-end
metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``
(``{name: {"value", "unit"}}``).  Without the ``repro`` sources next to
this directory the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("slab-burst", "archipelago", "tcp-roundtrip")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Served-GA benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    try:
        summary = bench.run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except bench.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Reference results for the correctness gate, computed in a fresh process.

Usage, from the root of a full checkout (``bench.py`` starts it)::

    PYTHONPATH=src python3 perfbench/reference.py < requests.pickle > contents.pickle

Reads a pickled list of ``GARequest`` objects on standard input and writes
the pickled list of their reference :func:`result_content` strings to
standard output (see :func:`reference_contents`).
"""

from __future__ import annotations

import pickle
import sys

from repro.core.batch import run_batched
from repro.fitness.functions import by_name
from repro.service import JobResult
from repro.store.keys import canonical_json, canonical_result_dict
from repro.store.replay import execute_request


def result_content(result) -> str:
    """The deterministic content of a result, rendered exactly as
    ``repro.store.keys.results_identical`` compares it."""
    return canonical_json(canonical_result_dict(result))


def _as_job_result(request, ga_result) -> JobResult:
    return JobResult(
        job_id=0,
        best_individual=ga_result.best_individual,
        best_fitness=ga_result.best_fitness,
        evaluations=ga_result.evaluations,
        fitness_name=request.fitness_name,
        params=request.params,
        history=list(ga_result.history),
    )


def reference_contents(requests: list) -> list[str]:
    """``result_content`` of each request's reference result, in order.

    Ordinary jobs run batched through ``run_batched`` (bit-identical to
    serial runs).  Island jobs cannot batch and run through
    ``execute_request`` one by one.
    """
    contents = [None] * len(requests)
    plain = [i for i, r in enumerate(requests) if r.n_islands == 1]
    batched = run_batched(
        [(requests[i].params, by_name(requests[i].fitness_name))
         for i in plain])
    for i, ga_result in zip(plain, batched):
        contents[i] = result_content(_as_job_result(requests[i], ga_result))
    for i, request in enumerate(requests):
        if request.n_islands > 1:
            contents[i] = result_content(execute_request(request))
    return contents


def main() -> int:
    requests = pickle.load(sys.stdin.buffer)
    sys.stdout.buffer.write(pickle.dumps(reference_contents(requests)))
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import bench  # noqa: E402
import measure  # noqa: E402
from repro.store.keys import job_key  # noqa: E402
from repro.store.replay import execute_request  # noqa: E402
from workloads import WORKLOADS, Shape, fresh_requests, shape_of  # noqa: E402


def test_supported_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 201))
    q, value, n = measure.supported_percentile(values)
    assert (q, value, n) == (95.0, 190, 200)
    assert measure.samples_beyond(n, q) == 10
    q, value, n = measure.supported_percentile(values[:100])
    assert (q, value, n) == (90.0, 90, 100)
    assert measure.samples_beyond(n, q) == 10
    assert measure.samples_beyond(100, 95) == 5
    assert measure.supported_percentile(values[:10]) is None


def test_percentile_is_nearest_rank():
    assert measure.percentile([3, 1, 2], 50) == 2
    assert measure.percentile(list(range(1, 101)), 95) == 95
    assert measure.percentile([7], 99) == 7


def _outcome(request, result, cache_hit=False):
    outcome = bench.Outcome(request, sent=0.0, done=0.001)
    result.cache_hit = cache_hit
    outcome.settle(result)
    return outcome


def test_wrong_reference_counts_as_failure_without_crashing():
    requests = [Shape(32, 16, (10, 1), "mBF6_2").request(seed)
                for seed in (11, 12, 13)]
    refs, problems = bench.reference_results(requests)
    assert problems == Counter()
    cold = [_outcome(r, execute_request(r)) for r in requests]
    warm = [_outcome(r, execute_request(r), cache_hit=True) for r in requests]
    assert bench.verify(cold, warm, refs) == Counter()

    wrong = dict(refs)
    wrong[job_key(requests[0])] = refs[job_key(requests[1])]
    failed_warm = bench.Outcome(requests[2], sent=0.0, error="Timeout")
    warm_miss = _outcome(requests[1], execute_request(requests[1]))
    failures = bench.verify(cold, [warm[0], warm_miss, failed_warm], wrong)
    assert failures == Counter({
        "cold result differs from reference": 1,
        "warm result differs from cold result": 1,
        "warm repeat not served from the store": 1,
        "warm Timeout": 1,
    })


def test_island_references_come_from_waited_subprocesses():
    requests = [Shape(32, 4, (10, 1), "mBF6_2", islands=4,
                      topology=topology).request(seed)
                for seed, topology in zip((21, 22, 23), ("ring", "torus",
                                                         "random:2"))]
    refs, problems = bench.reference_results(requests)
    assert problems == Counter()
    assert refs == {job_key(r): bench.result_content(execute_request(r))
                    for r in requests}
    assert measure.children(os.getpid()) == []


def _blocks(workload, seed, n_blocks=2):
    stream = fresh_requests(workload, seed)
    size = workload.block_size
    return [list(itertools.islice(stream, size)) for _ in range(n_blocks)]


def test_generator_is_deterministic_with_a_seed_independent_shape():
    for workload in WORKLOADS.values():
        first = _blocks(workload, seed=1)
        again = _blocks(workload, seed=1)
        other = _blocks(workload, seed=2)
        assert [[r.to_dict() for r in b] for b in first] == [
            [r.to_dict() for r in b] for b in again]
        assert [r.to_dict() for r in first[0]] != [
            r.to_dict() for r in other[0]]
        design = Counter(itertools.chain.from_iterable(workload.block))
        for block in first + other:
            assert Counter(map(shape_of, block)) == design


def test_fresh_requests_have_distinct_store_keys():
    for workload in WORKLOADS.values():
        requests = list(itertools.islice(fresh_requests(workload, 7), 600))
        keys = {job_key(r) for r in requests}
        assert len(keys) == len(requests)
        assert keys.isdisjoint(job_key(r) for r in workload.warmup)


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slab-burst",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""

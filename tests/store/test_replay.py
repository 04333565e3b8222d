"""Replay bit-identity and the differential cache-hit == cold property.

Across every engine path the service offers (batched, island,
hardened), a result served from the store must be bit-identical to a
cold recomputation, and ``repro replay`` must confirm it.
"""

import pytest

from repro.core.params import GAParameters
from repro.service.jobs import GARequest
from repro.service.server import GAService
from repro.store import RunStore, job_key, replay, results_identical, run_cached
from repro.store.replay import execute_request

PARAMS = GAParameters(
    n_generations=12, population_size=16,
    crossover_threshold=10, mutation_threshold=1, rng_seed=0x2961,
)

REQUESTS = {
    "exact": GARequest(params=PARAMS, fitness_name="mBF6_2"),
    "island": GARequest(
        params=PARAMS, fitness_name="mShubert2D",
        n_islands=4, migration_interval=4, topology="ring",
    ),
    "hardened": GARequest(
        params=PARAMS, fitness_name="mBF7_2",
        protection="hardened", upset_rate=1e-4,
    ),
}


@pytest.mark.parametrize("label", sorted(REQUESTS))
def test_replay_confirms_bit_identity(tmp_path, label):
    request = REQUESTS[label]
    store = RunStore(tmp_path)
    result = execute_request(request)
    key = store.put(request, result)
    report = replay(store, key)
    assert report.identical, report.mismatched_fields
    assert report.verdict == "bit-identical"
    assert report.stored_best == report.replayed_best == result.best_fitness


def test_replay_detects_tampering(tmp_path):
    request = REQUESTS["exact"]
    store = RunStore(tmp_path)
    result = execute_request(request)
    result.best_fitness += 1  # forge the stored payload
    key = store.put(request, result)
    report = replay(store, key)
    assert not report.identical
    assert "best_fitness" in report.mismatched_fields


def test_replay_missing_key_raises(tmp_path):
    with pytest.raises(KeyError):
        replay(RunStore(tmp_path), "0" * 64)


@pytest.mark.parametrize("label", sorted(REQUESTS))
def test_cache_hit_equals_cold_recompute(tmp_path, label):
    """Differential: the service's cached result == a cold local run."""
    request = REQUESTS[label]
    cold = execute_request(request)
    with GAService(workers=2, mode="thread", store_dir=tmp_path) as service:
        first = service.submit(request).result(60)
        second = service.submit(request).result(60)
    assert not first.cache_hit and second.cache_hit
    assert results_identical(first, cold)
    assert results_identical(second, cold)
    assert second.store_key == job_key(request)


def test_run_cached_round_trip(tmp_path):
    request = REQUESTS["exact"]
    store = RunStore(tmp_path)
    r1, hit1, key1 = run_cached(store, request)
    r2, hit2, key2 = run_cached(store, request)
    assert (hit1, hit2) == (False, True)
    assert key1 == key2 == job_key(request)
    assert results_identical(r1, r2)
    # use_cache=False recomputes but still writes back
    r3, hit3, _ = run_cached(store, request, use_cache=False)
    assert not hit3 and results_identical(r1, r3)

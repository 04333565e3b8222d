"""Run-store caching — warm hits and in-flight coalescing vs cold compute.

Two claims of the content-addressed run store, measured and asserted:

* **Warm hit**: serving a stored result (one JSON read + re-addressing)
  is >= 20x faster than recomputing the run cold — the software analogue
  of the paper's lookup-table FEM beating re-evaluation (Sec. IV-C),
  lifted from fitness values to whole GA runs.
* **Coalescing**: a burst of identical submissions against a fresh store
  computes once; the duplicates ride the primary's in-flight computation,
  so the burst completes >= 5x faster than the same burst with caching
  disabled (every duplicate computed independently).

Both paths are asserted bit-identical to the cold result before any
timing is trusted.
"""

import time

import pytest

from conftest import print_table
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.service import BatchPolicy, GARequest, GAService
from repro.store import RunStore, job_key, results_identical
from repro.store.replay import execute_request

#: a meaty single job: the warm-hit ratio grows with job size, so this
#: stays deliberately moderate — the bound must hold even for small runs
WARM_REQUEST = GARequest(
    params=GAParameters(
        n_generations=512, population_size=64,
        crossover_threshold=10, mutation_threshold=1, rng_seed=0x061F,
    ),
    fitness_name="mBF6_2",
)

#: the duplicate burst for the coalescing claim; the uncached reference
#: still batches (max_batch=2), so the floor is the honest one — against
#: vectorized recomputation, not serial
N_DUPLICATES = 16
BURST_REQUEST = GARequest(
    params=GAParameters(
        n_generations=256, population_size=32,
        crossover_threshold=10, mutation_threshold=1, rng_seed=0x2961,
    ),
    fitness_name="mShubert2D",
)

MIN_WARM_SPEEDUP = 20.0
MIN_COALESCE_SPEEDUP = 5.0


def warm_hit_round(tmp_path):
    store = RunStore(tmp_path / "warm")
    t0 = time.perf_counter()
    cold = execute_request(WARM_REQUEST)
    t_cold = time.perf_counter() - t0
    key = store.put(WARM_REQUEST, cold)

    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        warm = store.get_result(key)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert warm is not None and results_identical(warm, cold)
    return t_cold, best


def burst(store_dir, cache: bool):
    policy = BatchPolicy(max_batch=2, admit_interval=32)
    with GAService(
        workers=1, mode="thread", policy=policy,
        store_dir=store_dir, cache=cache,
    ) as service:
        t0 = time.perf_counter()
        handles = [
            service.submit(BURST_REQUEST) for _ in range(N_DUPLICATES)
        ]
        results = [handle.result(300) for handle in handles]
        dt = time.perf_counter() - t0
        snap = service.snapshot()
    return results, dt, snap


@pytest.mark.benchmark(group="store")
def test_store_cache_speedups(benchmark, tmp_path):
    by_name(WARM_REQUEST.fitness_name).table()
    by_name(BURST_REQUEST.fitness_name).table()

    t_cold, t_warm = warm_hit_round(tmp_path)
    warm_speedup = t_cold / t_warm

    cold_ref = execute_request(BURST_REQUEST)
    # cache disabled: every duplicate computes independently
    uncached_results, t_uncached, _ = burst(tmp_path / "uncached", cache=False)
    # fresh store, cache on: one computes, the rest coalesce onto it
    coalesced_results, t_coalesced, snap = burst(
        tmp_path / "coalesced", cache=True
    )
    for result in uncached_results + coalesced_results:
        assert results_identical(result, cold_ref)
    assert snap["cache"]["coalesced"] == N_DUPLICATES - 1
    coalesce_speedup = t_uncached / t_coalesced

    benchmark.extra_info["warm_speedup"] = round(warm_speedup, 1)
    benchmark.extra_info["coalesce_speedup"] = round(coalesce_speedup, 1)
    benchmark.extra_info["cold_compute_s"] = round(t_cold, 4)
    benchmark.extra_info["warm_hit_s"] = round(t_warm, 6)
    benchmark.pedantic(
        lambda: RunStore(tmp_path / "warm").get_result(
            job_key(WARM_REQUEST)
        ),
        rounds=5,
        iterations=3,
    )

    rows = [
        {"path": "cold compute (pop 64 x 512 gens)",
         "time_s": round(t_cold, 4), "speedup": "1.0x"},
        {"path": "warm store hit",
         "time_s": round(t_warm, 6), "speedup": f"{warm_speedup:.0f}x"},
        {"path": f"{N_DUPLICATES} duplicates, cache off",
         "time_s": round(t_uncached, 3), "speedup": "1.0x"},
        {"path": f"{N_DUPLICATES} duplicates, coalesced",
         "time_s": round(t_coalesced, 3),
         "speedup": f"{coalesce_speedup:.1f}x"},
    ]
    print_table("content-addressed run store", rows)
    print(f"coalesced: {snap['cache']['coalesced']} of {N_DUPLICATES}, "
          f"writes: {snap['cache']['writes']}")

    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm hit only {warm_speedup:.1f}x over cold compute "
        f"(need >= {MIN_WARM_SPEEDUP}x)"
    )
    assert coalesce_speedup >= MIN_COALESCE_SPEEDUP, (
        f"coalesced burst only {coalesce_speedup:.1f}x over uncached "
        f"(need >= {MIN_COALESCE_SPEEDUP}x)"
    )

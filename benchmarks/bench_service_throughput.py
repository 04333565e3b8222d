"""GA-as-a-service throughput — dynamic batching vs one-at-a-time serving.

Submits 64 concurrent small jobs (pop 32, 64 generations, mixed fitness
slots and seeds) to a :class:`repro.service.GAService` backed by a
process pool, and times the same job list executed serially with
:class:`BehavioralGA` — the way a naive one-job-per-request server would.
The results are asserted bit-identical job by job; the report is the
jobs/sec of each path, the speedup, and the service's own metrics
snapshot (batch occupancy, queue depth, latency percentiles), which is
also attached to the pytest-benchmark record so it lands in
``BENCH_results.json``.
"""

import time

import pytest

from conftest import print_table
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.service import (
    BatchPolicy,
    ChaosMonkey,
    ChaosPlan,
    GARequest,
    GAService,
    RetryPolicy,
    run_slab_chunk,
)
from repro.service.jobs import params_to_dict

N_JOBS = 64
FITNESS_NAMES = ["mBF6_2", "mBF7_2", "mShubert2D", "F3"]

JOBS = [
    GARequest(
        params=GAParameters(
            n_generations=64, population_size=32,
            crossover_threshold=10 + i % 3, mutation_threshold=1,
            rng_seed=1000 + 257 * i,
        ),
        fitness_name=FITNESS_NAMES[i % len(FITNESS_NAMES)],
    )
    for i in range(N_JOBS)
]


def outcome(best_individual, best_fitness, evaluations):
    return (best_individual, best_fitness, evaluations)


def serial_outcomes():
    out = []
    for request in JOBS:
        r = BehavioralGA(
            request.params, by_name(request.fitness_name), record_members=False
        ).run()
        out.append(outcome(r.best_individual, r.best_fitness, r.evaluations))
    return out


def service_run():
    # one admission interval per job: each slab retires in a single chunk,
    # so the bench measures steady-state batching throughput (the chunked
    # late-admission path is covered by tests/service/test_determinism.py)
    policy = BatchPolicy(
        max_batch=32, admit_interval=64, max_pending=N_JOBS
    )
    with GAService(workers=2, mode="process", policy=policy) as service:
        results = service.run_all(list(JOBS), timeout=600)
        snap = service.snapshot()
    return [
        outcome(r.best_individual, r.best_fitness, r.evaluations)
        for r in results
    ], snap


@pytest.mark.benchmark(group="service")
def test_service_throughput_64_concurrent_jobs(benchmark):
    # warm the fitness tables and the batch engine's orbit/outcome caches
    # in this process — process-pool workers fork from here and inherit them
    for name in FITNESS_NAMES:
        by_name(name).table()
    run_slab_chunk(
        {
            "chunk_gens": 2,
            "entries": [
                {
                    "job_id": -1,
                    "params": params_to_dict(JOBS[i].params),
                    "fitness": JOBS[i].fitness_name,
                    "population": None,
                    "rng_state": None,
                    "record_stats": False,
                }
                for i in range(len(FITNESS_NAMES))
            ],
            "protection": None,
        }
    )

    t0 = time.perf_counter()
    serial = serial_outcomes()
    t_serial = time.perf_counter() - t0

    t_service = None
    for _ in range(2):  # best of two: absorbs pool start-up jitter
        t0 = time.perf_counter()
        served, snap = service_run()
        dt = time.perf_counter() - t0
        t_service = dt if t_service is None else min(t_service, dt)
    benchmark.pedantic(service_run, rounds=1, iterations=1)

    # serving is a transport, not a solver: bit-identical results
    assert served == serial

    speedup = t_serial / t_service
    rows = [
        {"path": "serial BehavioralGA", "time_s": round(t_serial, 3),
         "jobs/sec": round(N_JOBS / t_serial, 1)},
        {"path": "GAService (2 proc workers)", "time_s": round(t_service, 3),
         "jobs/sec": round(N_JOBS / t_service, 1)},
    ]
    print_table(f"{N_JOBS} concurrent jobs, pop 32 x 64 generations", rows)
    print(f"speedup: {speedup:.1f}x")
    print(f"batch occupancy: mean {snap['batching']['mean_occupancy']:.0%}, "
          f"max {snap['batching']['max_occupancy']} of "
          f"{snap['batching']['max_batch']} slots")
    print(f"queue depth max: {snap['queue']['max_depth']}; "
          f"latency p50 {snap['latency']['p50_ms']:.0f} ms, "
          f"p95 {snap['latency']['p95_ms']:.0f} ms; "
          f"{snap['throughput']['generations_per_s']:.0f} generations/sec")

    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["jobs"] = N_JOBS
    benchmark.extra_info["service_metrics"] = snap

    # dynamic batching must buy at least 3x over one-at-a-time serving
    assert speedup >= 3.0


# -- fault-tolerance overhead ------------------------------------------
# The same job list run fault-free and under a chaos plan that kills two
# chunk dispatches.  Recovery must be cheap: lost chunks re-execute from
# carried state (never from generation 0), so the faulted run is bounded
# by fault-free time + the re-executed chunks + the (tiny) retry backoff.
FAULT_N_JOBS = 8

FAULT_JOBS = [
    GARequest(
        params=GAParameters(
            n_generations=64, population_size=32,
            crossover_threshold=10 + i % 3, mutation_threshold=1,
            rng_seed=1000 + 257 * i,
        ),
        fitness_name=FITNESS_NAMES[i % len(FITNESS_NAMES)],
        retry=RetryPolicy(max_attempts=5, backoff_s=0.002, max_backoff_s=0.02),
    )
    for i in range(FAULT_N_JOBS)
]


def faulted_run(kill_chunks=()):
    # thread mode: a chaos kill raises WorkerCrashError instead of dying
    # with the forked pool, so the bench isolates the retry machinery
    # itself from process-respawn cost (that path is covered by
    # tests/service/test_chaos.py)
    chaos = (
        ChaosMonkey(ChaosPlan(kill_chunks=tuple(kill_chunks)))
        if kill_chunks
        else None
    )
    policy = BatchPolicy(
        max_batch=4, admit_interval=16,
        max_pending=FAULT_N_JOBS,
    )
    with GAService(
        workers=2, mode="thread", policy=policy, chaos=chaos
    ) as service:
        results = service.run_all(list(FAULT_JOBS), timeout=600)
        snap = service.snapshot()
    return [
        outcome(r.best_individual, r.best_fitness, r.evaluations)
        for r in results
    ], snap


@pytest.mark.benchmark(group="service")
def test_faulted_run_recovery_overhead(benchmark):
    for name in FITNESS_NAMES:
        by_name(name).table()
    faulted_run()  # warm caches and thread pools

    t_clean, t_faulted = None, None
    for _ in range(3):  # best of three: this asserts a ratio of two timings
        t0 = time.perf_counter()
        clean, _ = faulted_run()
        dt = time.perf_counter() - t0
        t_clean = dt if t_clean is None else min(t_clean, dt)
    for _ in range(3):
        t0 = time.perf_counter()
        faulted, snap = faulted_run(kill_chunks=(1, 5))
        dt = time.perf_counter() - t0
        t_faulted = dt if t_faulted is None else min(t_faulted, dt)
    benchmark.pedantic(
        lambda: faulted_run(kill_chunks=(1, 5)), rounds=1, iterations=1
    )

    # crash recovery is invisible in the numbers...
    assert faulted == clean
    assert snap["faults"]["chunk_retries"] >= 1

    # ...and nearly invisible on the clock
    overhead = t_faulted / t_clean
    rows = [
        {"run": "fault-free", "time_s": round(t_clean, 3)},
        {"run": "2 chunks killed", "time_s": round(t_faulted, 3),
         "retries": snap["faults"]["chunk_retries"]},
    ]
    print_table(
        f"{FAULT_N_JOBS} jobs, pop 32 x 64 generations, worker kills on",
        rows,
    )
    print(f"recovery overhead: {overhead:.2f}x fault-free "
          f"(recovery p95 {snap['faults']['recovery_p95_ms']:.0f} ms)")

    benchmark.extra_info["recovery_overhead"] = round(overhead, 3)
    benchmark.extra_info["faults"] = snap["faults"]

    assert overhead <= 1.5

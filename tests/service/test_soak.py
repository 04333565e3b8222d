"""Soak: a sustained 200-job burst through a process-backed pool.

Deselected from tier-1 (``slow``); run with ``-m slow``.  Exercises the
scheduler under real contention — hundreds of jobs with mixed sizes and
priorities arriving faster than the pool drains them — and checks that
every result is still bit-identical to a solo serial run and that the
metrics ledger balances.
"""

import random

import pytest

from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.service import BatchPolicy, GARequest, GAService

pytestmark = pytest.mark.slow

N_JOBS = 200


def make_jobs() -> list[GARequest]:
    rng = random.Random(2026)
    fitness_names = ["mBF6_2", "mBF7_2", "mShubert2D", "F2", "F3"]
    jobs = []
    for i in range(N_JOBS):
        jobs.append(
            GARequest(
                params=GAParameters(
                    n_generations=rng.randrange(4, 28),
                    population_size=rng.choice([16, 16, 16, 24, 32]),
                    crossover_threshold=rng.randrange(8, 14),
                    mutation_threshold=rng.randrange(0, 3),
                    rng_seed=rng.randrange(1, 2**16),
                ),
                fitness_name=rng.choice(fitness_names),
                priority=rng.choice([-1, 0, 0, 0, 1]),
            )
        )
    return jobs


def outcome(result):
    return (
        result.best_individual,
        result.best_fitness,
        result.evaluations,
        [
            (g.generation, g.best_fitness, g.best_individual, g.fitness_sum)
            for g in result.history
        ],
    )


def test_soak_200_jobs_process_pool_stays_deterministic():
    jobs = make_jobs()
    expected = []
    for request in jobs:
        solo = BehavioralGA(
            request.params, by_name(request.fitness_name), record_members=False
        ).run()
        expected.append(
            (
                solo.best_individual,
                solo.best_fitness,
                solo.evaluations,
                [
                    (g.generation, g.best_fitness, g.best_individual,
                     g.fitness_sum)
                    for g in solo.history
                ],
            )
        )

    policy = BatchPolicy(
        max_batch=16, admit_interval=8, max_pending=N_JOBS
    )
    with GAService(workers=3, mode="process", policy=policy) as service:
        results = service.run_all(jobs, timeout=600)
        snap = service.snapshot()

    assert [outcome(r) for r in results] == expected
    assert snap["jobs"]["submitted"] == N_JOBS
    assert snap["jobs"]["completed"] == N_JOBS
    assert snap["jobs"]["failed"] == snap["jobs"]["rejected"] == 0
    assert snap["queue"]["depth"] == 0
    # with 200 jobs racing 3 workers the batcher must actually batch
    assert snap["batching"]["mean_occupancy"] > 1.0 / policy.max_batch
    assert snap["latency"]["p95_ms"] >= snap["latency"]["p50_ms"] > 0

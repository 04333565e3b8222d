"""Scheduler determinism: serving must never change a job's numbers.

The acceptance property of the serving layer: a job's result — best
individual, best fitness, evaluation count, and the full per-generation
trace — is bit-identical to a solo serial
:class:`~repro.core.behavioral.BehavioralGA` run of the same seed and
parameters, for every arrival order, batch width, admission interval, and
worker count.  Scheduling may only move wall-clock time.
"""

import random
import time

import pytest

from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.service import BatchPolicy, GARequest, GAService

#: a deliberately awkward job mix: one pop-16 batching class plus a pop-24
#: straggler, generation counts that retire at different chunk boundaries,
#: mixed fitness slots and thresholds, distinct seeds
JOBS = [
    GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=xt, mutation_threshold=mt, rng_seed=seed,
        ),
        fitness_name=fn,
    )
    for seed, gens, pop, xt, mt, fn in [
        (45890, 33, 16, 10, 1, "mBF6_2"),
        (10593, 12, 16, 13, 2, "mBF6_2"),
        (1567, 20, 16, 10, 1, "mShubert2D"),
        (777, 33, 16, 15, 0, "F3"),
        (4242, 5, 16, 10, 1, "mBF7_2"),
        (2961, 27, 16, 12, 1, "mBF6_2"),
        (31337, 33, 24, 10, 1, "mShubert2D"),
        (8081, 18, 16, 0, 15, "F2"),
    ]
]


def solo_outcome(request: GARequest):
    result = BehavioralGA(
        request.params, by_name(request.fitness_name), record_members=False
    ).run()
    return (
        result.best_individual,
        result.best_fitness,
        result.evaluations,
        [
            (g.generation, g.best_fitness, g.best_individual, g.fitness_sum)
            for g in result.history
        ],
    )


BASELINE = {request.params.rng_seed: solo_outcome(request) for request in JOBS}


def service_outcomes(jobs, workers, mode="thread", **policy_kw):
    with GAService(
        workers=workers, mode=mode, policy=BatchPolicy(**policy_kw)
    ) as service:
        results = service.run_all(list(jobs), timeout=120)
    return {
        request.params.rng_seed: (
            result.best_individual,
            result.best_fitness,
            result.evaluations,
            [
                (g.generation, g.best_fitness, g.best_individual,
                 g.fitness_sum)
                for g in result.history
            ],
        )
        for request, result in zip(jobs, results)
    }


@pytest.mark.parametrize(
    "label,workers,policy_kw,order",
    [
        ("fifo-1worker", 1, dict(max_batch=4, admit_interval=8), None),
        ("reversed-3workers", 3, dict(max_batch=2, admit_interval=5), "reverse"),
        ("shuffled-2workers", 2, dict(max_batch=8, admit_interval=16), 0),
        ("solo-slabs", 1, dict(max_batch=1, admit_interval=7), 1),
        ("odd-chunk", 2, dict(max_batch=32, admit_interval=3), 2),
    ],
)
def test_results_bit_identical_across_schedules(label, workers, policy_kw, order):
    jobs = list(JOBS)
    if order == "reverse":
        jobs.reverse()
    elif order is not None:
        random.Random(order).shuffle(jobs)
    outcomes = service_outcomes(jobs, workers, **policy_kw)
    assert outcomes == BASELINE, f"schedule {label} changed job results"


def test_staggered_arrivals_join_running_slabs_bit_identically():
    # submit half the jobs, wait until the first chunks are in flight,
    # then submit the rest — late admission must not change any result
    policy = BatchPolicy(max_batch=8, admit_interval=4)
    with GAService(workers=2, mode="thread", policy=policy) as service:
        first = [service.submit(request) for request in JOBS[:4]]
        deadline = time.monotonic() + 10
        while service.metrics.chunks == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        second = [service.submit(request) for request in JOBS[4:]]
        results = [h.result(timeout=120) for h in first + second]
    outcomes = {
        request.params.rng_seed: (
            result.best_individual, result.best_fitness, result.evaluations,
            [
                (g.generation, g.best_fitness, g.best_individual,
                 g.fitness_sum)
                for g in result.history
            ],
        )
        for request, result in zip(JOBS, results)
    }
    assert outcomes == BASELINE


def test_process_pool_matches_thread_pool():
    outcomes = service_outcomes(
        JOBS[:4], workers=2, mode="process", max_batch=4, admit_interval=8
    )
    expected = {
        request.params.rng_seed: BASELINE[request.params.rng_seed]
        for request in JOBS[:4]
    }
    assert outcomes == expected

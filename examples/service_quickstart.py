#!/usr/bin/env python3
"""GA-as-a-service quickstart — submit jobs, get bit-exact results back.

Spins up an in-process :class:`repro.service.GAService` (the same engine
behind ``repro serve``), submits eight jobs spread over three fitness
slots, and prints each result next to a solo serial run of the same seed
to show that serving never changes the numbers — the scheduler sends a
slab to each idle worker at once and batches later arrivals into the
running slabs at their next chunk boundary, but every job keeps its own
RNG stream.  Finishes with the service's own metrics: latency
percentiles, queue depth, and batch occupancy.
"""

import os

from repro import BehavioralGA, GAParameters
from repro.fitness.functions import by_name
from repro.service import BatchPolicy, GARequest, GAService

FAST = bool(os.environ.get("REPRO_EXAMPLES_FAST"))
GENS = 12 if FAST else 64
POP = 16 if FAST else 32


def main() -> None:
    seeds = [45890, 10593, 1567, 777, 4242, 2961, 31337, 8081]
    slots = ["mBF6_2", "mBF7_2", "mShubert2D"]
    jobs = [
        GARequest(
            params=GAParameters(
                n_generations=GENS, population_size=POP,
                crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
            ),
            fitness_name=slots[i % len(slots)],
        )
        for i, seed in enumerate(seeds)
    ]

    policy = BatchPolicy(max_batch=8, admit_interval=8)
    print(f"{len(jobs)} jobs over {len(slots)} fitness slots, "
          f"pop {POP} x {GENS} generations\n")

    with GAService(workers=2, mode="thread", policy=policy) as service:
        results = service.run_all(jobs, timeout=300)
        snap = service.snapshot()

    for request, result in zip(jobs, results):
        solo = BehavioralGA(
            request.params, by_name(request.fitness_name),
            record_members=False,
        ).run()
        match = (solo.best_individual == result.best_individual
                 and solo.best_fitness == result.best_fitness)
        print(f"seed {request.params.rng_seed:>5} {request.fitness_name:<10}"
              f" best {result.best_fitness:>5} at {result.best_individual:>5}"
              f" ({result.evaluations} evals, {result.n_chunks} chunks,"
              f" {result.latency_s * 1e3:5.1f} ms)"
              f"  solo match: {'yes' if match else 'NO'}")
        assert match, "serving must be bit-identical to a solo run"

    print("\nservice metrics:")
    print(f"  chunks dispatched : {snap['batching']['chunks']} "
          f"(mean occupancy {snap['batching']['mean_occupancy']:.0%} of "
          f"{snap['batching']['max_batch']} slots)")
    print(f"  max queue depth   : {snap['queue']['max_depth']}")
    print(f"  latency           : p50 {snap['latency']['p50_ms']:.1f} ms, "
          f"p95 {snap['latency']['p95_ms']:.1f} ms")
    print(f"  throughput        : "
          f"{snap['throughput']['generations_per_s']:.0f} generations/sec")
    print("\n(the TCP flavour of this flow: `repro serve` in one shell,")
    print(" `repro submit --seed 45890` in another)")


if __name__ == "__main__":
    main()

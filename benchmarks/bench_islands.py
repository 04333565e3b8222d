"""Extension: island-model scaling (the multi-core direction of Sec. II-B).

How solution quality scales with the number of GA engines at a fixed
per-engine budget — the fabric-level parallelism a user would deploy
several of these IP cores for.
"""

import pytest

from conftest import print_table
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness import BF6
from repro.parallel import VectorIslandGA

PARAMS = GAParameters(
    n_generations=32,
    population_size=32,
    crossover_threshold=10,
    mutation_threshold=1,
    rng_seed=45890,
)


@pytest.mark.benchmark(group="islands")
def test_island_scaling(benchmark):
    def sweep():
        rows = []
        single = BehavioralGA(PARAMS, BF6()).run()
        rows.append(
            {
                "engines": 1,
                "best": single.best_fitness,
                "evaluations": single.evaluations,
                "migrations": 0,
            }
        )
        for n in (2, 4, 8):
            result = VectorIslandGA(
                PARAMS, BF6(), n_islands=n, migration_interval=8
            ).run()
            rows.append(
                {
                    "engines": n,
                    "best": result.best_fitness,
                    "evaluations": result.evaluations,
                    "migrations": result.migrations,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Island-model scaling on BF6 (optimum 4271)", rows)

    # more engines, more coverage: the ensemble never does worse than the
    # single engine, and the 8-engine ensemble lands within 1% of optimum
    bests = [r["best"] for r in rows]
    assert max(bests[1:]) >= bests[0]
    assert bests[-1] >= 4271 * 0.99

"""Vectorized archipelago throughput — one slab vs serial epochs.

A 256-island run with fine-grained migration (every generation — the
worst case for per-epoch Python overhead, and the cadence the ROADMAP's
"thousands of islands" item targets) is timed two ways:

* the serial epoch oracle (``tests/parallel/epoch_oracle.py``): one
  ``BehavioralGA`` pass per island per epoch with carried RNG state and
  list migration — the independent reference the conformance suite holds
  the slab to;
* the vectorized archipelago (``VectorIslandGA``): one resumable slab
  carried across all epochs, migration as an array scatter.

The results are asserted bit-identical to the oracle (the conformance
suite property, re-checked on the benchmarked shape and on a 1000-island
run), and the speedup is asserted >= 35x.  The ratio and the absolute
island-generations/s land in ``extra_info`` for the perf trajectory.
"""

import time

import pytest

from conftest import print_table
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.parallel.archipelago import VectorIslandGA
from tests.parallel.epoch_oracle import run_epoch_oracle

N_ISLANDS = 256
POP = 16
GENS = 128
MIGRATION_INTERVAL = 1
FITNESS = "mBF6_2"

PARAMS = GAParameters(
    n_generations=GENS, population_size=POP,
    crossover_threshold=10, mutation_threshold=1, rng_seed=0x061F,
)
KWARGS = dict(n_islands=N_ISLANDS, migration_interval=MIGRATION_INTERVAL)


def oracle_run():
    return run_epoch_oracle(PARAMS, by_name(FITNESS), **KWARGS)


def vector_run():
    return VectorIslandGA(PARAMS, by_name(FITNESS), **KWARGS).run()


def _best_of(fn, rounds: int = 3):
    best, out = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


@pytest.mark.benchmark(group="archipelago")
def test_vector_archipelago_speedup_over_epoch_loop(benchmark):
    # warm caches both paths share: fitness table, CA orbit, slot and
    # jump tables
    warm = PARAMS.with_(n_generations=2)
    run_epoch_oracle(warm, by_name(FITNESS), **KWARGS)
    VectorIslandGA(warm, by_name(FITNESS), **KWARGS).run()

    t_oracle, oracle = _best_of(oracle_run)
    t_exact, exact = _best_of(vector_run)
    benchmark.pedantic(vector_run, rounds=1, iterations=1)

    # the slab moves work, never numbers: bit-identical on the
    # benchmarked shape...
    assert exact == oracle
    # ...and on the acceptance-criteria scale: 1000 islands, one slab
    big = PARAMS.with_(n_generations=6)
    big_kwargs = dict(n_islands=1000, migration_interval=3)
    assert (
        VectorIslandGA(big, by_name(FITNESS), **big_kwargs).run()
        == run_epoch_oracle(big, by_name(FITNESS), **big_kwargs)
    )

    speedup = t_oracle / t_exact
    island_gens = N_ISLANDS * GENS
    rows = [
        {"path": "serial epoch oracle", "time_s": round(t_oracle, 3),
         "island-gens/sec": round(island_gens / t_oracle, 0)},
        {"path": "VectorIslandGA", "time_s": round(t_exact, 3),
         "island-gens/sec": round(island_gens / t_exact, 0)},
    ]
    print_table(
        f"{N_ISLANDS} islands, pop {POP} x {GENS} generations, "
        f"migration every generation (ring)",
        rows,
    )
    print(f"vector speedup: {speedup:.1f}x; "
          f"best fitness {exact.best_fitness} at {exact.best_individual}, "
          f"{exact.migrations} migrations")

    benchmark.extra_info["islands"] = N_ISLANDS
    benchmark.extra_info["oracle_speedup"] = round(speedup, 2)
    benchmark.extra_info["island_gens_per_s_exact"] = round(
        island_gens / t_exact, 0
    )

    # one carried slab beats serial per-island epochs by at least 35x on
    # a fine-grained 256-island run (about 60x measured on a 2-vCPU VM)
    assert speedup >= 35.0

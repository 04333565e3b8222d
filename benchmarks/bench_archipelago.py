"""Vectorized archipelago throughput — one slab vs the legacy epoch loop.

A 256-island run with fine-grained migration (every generation — the
worst case for per-epoch Python overhead, and the cadence the ROADMAP's
"thousands of islands" item targets) is timed two ways:

* the legacy epoch loop (``IslandGA.run_epoch_loop``, the pre-archipelago
  ``processes=1`` default): one fresh ``BatchBehavioralGA`` — parameter
  list, stream bank, slot tables — constructed per epoch, plus a
  per-island Python migration loop;
* the vectorized archipelago (``VectorIslandGA``): one resumable slab
  carried across all epochs, migration as an array scatter.

The results are asserted bit-identical to the legacy loop (the
conformance suite property, re-checked on the benchmarked shape and on a
1000-island run), and the speedup is asserted >= 5x — the archipelago
refactor's headline number.  The ratio lands in ``extra_info`` for the
perf trajectory.
"""

import time

import pytest

from conftest import print_table
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.parallel.archipelago import VectorIslandGA
from repro.parallel.islands import IslandGA

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


def legacy_run():
    return IslandGA(PARAMS, by_name(FITNESS), **KWARGS).run_epoch_loop()


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
    IslandGA(warm, by_name(FITNESS), **KWARGS).run_epoch_loop()
    VectorIslandGA(warm, by_name(FITNESS), **KWARGS).run()

    t_legacy, legacy = _best_of(legacy_run)
    t_exact, exact = _best_of(vector_run)
    benchmark.pedantic(vector_run, rounds=1, iterations=1)

    # the refactor moves work, never numbers: bit-identical on the
    # benchmarked shape...
    assert exact == legacy
    # ...and on the acceptance-criteria scale: 1000 islands, one slab
    big = PARAMS.with_(n_generations=6)
    big_kwargs = dict(n_islands=1000, migration_interval=3)
    assert (
        VectorIslandGA(big, by_name(FITNESS), **big_kwargs).run()
        == IslandGA(big, by_name(FITNESS), **big_kwargs).run_epoch_loop()
    )

    exact_speedup = t_legacy / t_exact
    island_gens = N_ISLANDS * GENS
    rows = [
        {"path": "legacy epoch loop", "time_s": round(t_legacy, 3),
         "island-gens/sec": round(island_gens / t_legacy, 0)},
        {"path": "VectorIslandGA", "time_s": round(t_exact, 3),
         "island-gens/sec": round(island_gens / t_exact, 0)},
    ]
    print_table(
        f"{N_ISLANDS} islands, pop {POP} x {GENS} generations, "
        f"migration every generation (ring)",
        rows,
    )
    print(f"vector speedup: {exact_speedup:.1f}x; "
          f"best fitness {exact.best_fitness} at {exact.best_individual}, "
          f"{exact.migrations} migrations")

    benchmark.extra_info["islands"] = N_ISLANDS
    benchmark.extra_info["exact_speedup"] = round(exact_speedup, 2)
    benchmark.extra_info["island_gens_per_s_exact"] = round(
        island_gens / t_exact, 0
    )

    # the tentpole claim: one carried slab beats per-epoch engine
    # reconstruction by at least 5x on a fine-grained 256-island run
    assert exact_speedup >= 5.0

#!/usr/bin/env python3
"""Island-model parallel GA — the multi-core direction of Sec. II-B.

Several GA engines (think: several GA IP cores on one fabric, or one per
FPGA in a multichip intrinsic-EHW system) evolve independent populations;
at every epoch boundary each island's champion migrates to its ring
neighbour.  Compare a single engine against island ensembles at equal and
at scaled evaluation budgets.  The whole archipelago runs as one batched
slab (replica axis = island), so more islands cost array width, not more
engines.
"""

import time

from repro import BehavioralGA, GAParameters
from repro.fitness import MBF6_2
from repro.parallel import VectorIslandGA


def main() -> None:
    fn = MBF6_2()
    optimum = int(fn.table().max())
    params = GAParameters(
        n_generations=64,
        population_size=32,
        crossover_threshold=10,
        mutation_threshold=1,
        rng_seed=45890,
    )

    print(f"objective: mBF6_2 (optimum {optimum})\n")

    single = BehavioralGA(params, fn).run()
    print(f"single engine           : best {single.best_fitness:>5}, "
          f"evals {single.evaluations}")

    for n_islands in (2, 4, 8):
        t0 = time.perf_counter()
        res = VectorIslandGA(
            params, fn, n_islands=n_islands, migration_interval=8
        ).run()
        dt = time.perf_counter() - t0
        print(f"{n_islands} islands               : best {res.best_fitness:>5}, "
              f"evals {res.evaluations:>5}, migrations {res.migrations:>2}, "
              f"island bests {res.island_bests}, {dt * 1e3:.0f} ms")


if __name__ == "__main__":
    main()

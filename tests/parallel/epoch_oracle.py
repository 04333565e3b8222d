"""Independent serial reference for the island model.

One :class:`BehavioralGA` pass per island per epoch, each island carrying
its own CA-PRNG across epochs, with migration done on Python lists.  It
shares only the topology wiring and the island seeds with
:class:`~repro.parallel.archipelago.VectorIslandGA`, so the differential
suite (``test_archipelago.py``) and ``benchmarks/bench_archipelago.py``
can hold the batched slab to it bit for bit.
"""

from repro.core.behavioral import BehavioralGA
from repro.parallel import IslandResult, build_topology
from repro.parallel.archipelago import island_seeds
from repro.rng.cellular_automaton import CellularAutomatonPRNG


def run_epoch_oracle(
    params, fitness, n_islands=4, migration_interval=8, topology="ring",
    record_champions=True,
) -> IslandResult:
    """The island model as serial epochs; same result as
    ``VectorIslandGA(...).run()`` for the same arguments."""
    topo = build_topology(topology, n_islands, params.rng_seed)
    table = fitness.table()
    full, remainder = divmod(params.n_generations, migration_interval)
    schedule = [migration_interval] * full + ([remainder] if remainder else [])
    seeds = island_seeds(params, n_islands)
    rngs = [CellularAutomatonPRNG(seed) for seed in seeds]
    populations = [None] * n_islands
    island_best = [(0, -1)] * n_islands
    evaluations = migrations = 0
    best_per_epoch, epoch_champions, epoch_summary = [], [], []
    for epoch, gens in enumerate(schedule):
        champions = []
        for i in range(n_islands):
            ga = BehavioralGA(
                params.with_(n_generations=gens, rng_seed=seeds[i]), fitness,
                rng=rngs[i], record_members=False,
            )
            result = ga.run(initial=populations[i])
            populations[i] = ga.final_population.tolist()
            evaluations += result.evaluations
            champions.append((result.best_individual, result.best_fitness))
            if result.best_fitness > island_best[i][1]:
                island_best[i] = champions[i]
        if epoch < len(schedule) - 1 and topo.n_edges:
            # rank members worst-first on the pre-migration populations;
            # sorted() is stable, so equal fitness keeps member order
            worst_first = {
                d: sorted(range(params.population_size),
                          key=lambda m, d=d: table[populations[d][m]])
                for d in set(topo.dests.tolist())
            }
            for src, dst, rank in zip(
                topo.sources.tolist(), topo.dests.tolist(), topo.rank.tolist()
            ):
                populations[dst][worst_first[dst][rank]] = champions[src][0]
            migrations += topo.n_edges
        best_ind, best_fit = max(island_best, key=lambda cf: cf[1])
        best_per_epoch.append(best_fit)
        epoch_summary.append((best_fit, best_ind, sum(f for _c, f in champions)))
        if record_champions:
            epoch_champions.append(champions)
    best_ind, best_fit = max(island_best, key=lambda cf: cf[1])
    return IslandResult(
        best_individual=best_ind,
        best_fitness=best_fit,
        island_bests=[f for _c, f in island_best],
        migrations=migrations,
        evaluations=evaluations,
        best_per_epoch=best_per_epoch,
        epoch_champions=epoch_champions,
        epoch_summary=epoch_summary,
    )

"""Island-model parallel GA over multiple engine instances.

Models a fabric carrying several GA IP cores (the multi-core direction of
Sec. II-B / the hybrid system of Fig. 5): ``n_islands`` behavioural engines
evolve independent populations in epochs of ``migration_interval``
generations; at each epoch boundary champions migrate over a programmable
:class:`~repro.parallel.archipelago.MigrationTopology` (ring by default),
each migrant replacing a worst member of its destination.  Populations are
carried across epochs (no restarts).  When ``n_generations`` is not a
multiple of ``migration_interval`` a final partial epoch runs the
remainder, so exactly ``n_generations`` generations execute per island;
no migration happens after the final epoch (there is nothing left to
evolve the migrants).

Two execution modes:

* ``processes=1`` — the run delegates to
  :class:`~repro.parallel.archipelago.VectorIslandGA`: the whole
  archipelago is one resumable :class:`BatchBehavioralGA` slab (replica
  axis = island) stepped ``migration_interval`` generations at a time,
  with migration as a pure array operation;
* ``processes>1`` — epochs fan out over a persistent ``multiprocessing``
  pool (created once per :class:`IslandGA`, reused across epochs *and*
  runs; workers cache fitness tables by name so an epoch boundary ships
  only populations and RNG states).  Results are identical to the
  vectorized mode because each island owns an independently seeded RNG
  and migration happens at synchronised epoch barriers (property-tested
  in ``tests/parallel/test_archipelago.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchBehavioralGA
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.core.validate import validate_island_params
from repro.fitness.base import FitnessFunction
from repro.fitness.functions import by_name
from repro.parallel.archipelago import (
    VectorIslandGA,
    build_topology,
    island_seeds,
)
from repro.rng.cellular_automaton import CellularAutomatonPRNG


@dataclass
class IslandResult:
    """Outcome of an island-model run.

    ``epoch_champions[e][i]`` is island ``i``'s ``(individual, fitness)``
    champion at the end of epoch ``e`` — the full migration-candidate
    history, not just the final survivor — which is what migration-policy
    analysis needs; it is O(epochs x islands) and sits behind the
    ``record_champions`` flag so thousand-island runs can drop it.
    ``epoch_summary[e]`` is the O(epochs) digest that always stays on:
    ``(best_fitness, best_individual, champion_fitness_sum)`` at the end
    of epoch ``e`` (the rows a service job's history is built from).
    """

    best_individual: int
    best_fitness: int
    island_bests: list[int]
    migrations: int
    evaluations: int
    best_per_epoch: list[int]
    epoch_champions: list[list[tuple[int, int]]] = field(default_factory=list)
    epoch_summary: list[tuple[int, int, int]] = field(default_factory=list)


def _epoch_worker(args: tuple) -> tuple[int, list[int], int, int, int, int]:
    """Run one island for one epoch.  Module-level so it pickles.

    args: (fitness_name, island_index, params_dict, epoch_gens, rng_state,
    rng_seed, population_or_None)
    returns: (island, final_population, best_ind, best_fit, rng_state,
    evaluations)
    """
    (
        fn_name,
        island,
        params_dict,
        epoch_gens,
        rng_state,
        rng_seed,
        population,
    ) = args
    # the registry shares instances process-wide, so each worker builds a
    # fitness LUT once per name for the life of the pool (the cache used
    # to live here; it now serves every consumer, not just islands)
    fn = by_name(fn_name)
    params = GAParameters(**params_dict).with_(n_generations=epoch_gens)
    rng = CellularAutomatonPRNG(rng_seed)
    rng.state = rng_state
    ga = BehavioralGA(params, fn, rng=rng, record_members=False)
    initial = np.asarray(population, dtype=np.int64) if population is not None else None
    result = ga.run(initial=initial)
    return (
        island,
        ga.final_population.tolist(),
        result.best_individual,
        result.best_fitness,
        rng.state,
        result.evaluations,
    )


class IslandGA:
    """Programmable-topology island model over behavioural GA engines."""

    def __init__(
        self,
        params: GAParameters,
        fitness: FitnessFunction,
        n_islands: int = 4,
        migration_interval: int = 8,
        processes: int = 1,
        tracer=None,
        topology: str = "ring",
        record_champions: bool = True,
    ):
        validate_island_params(n_islands, migration_interval, topology)
        self.params = params
        self.fitness = fitness
        self.n_islands = n_islands
        self.migration_interval = migration_interval
        self.processes = processes
        #: archipelago wiring, seed-deterministic for ``"random[:k]"``
        self.topology = build_topology(topology, n_islands, params.rng_seed)
        if self.topology.max_fan_in >= params.population_size:
            raise ValueError(
                f"topology fan-in {self.topology.max_fan_in} would replace "
                f"a whole population of {params.population_size}"
            )
        self.record_champions = record_champions
        #: optional :class:`~repro.obs.tracer.Tracer`: one ``ga.run`` span,
        #: an ``island.epoch`` span per epoch (nesting the batched engine's
        #: per-generation events on the in-process path) and an
        #: ``island.migration`` event per boundary.  Results are identical
        #: with tracing on or off, in both execution modes; the
        #: ``processes>1`` pool traces at epoch granularity only (the
        #: tracer does not cross process boundaries).
        self.tracer = tracer
        # Island seeds: decorrelated offsets of the programmed seed
        # (the programmable-seed feature, once per core).
        self.seeds = island_seeds(params, n_islands)
        self._pool = None

    # ------------------------------------------------------------------
    def epoch_schedule(self) -> list[int]:
        """Generations per epoch: full ``migration_interval`` epochs plus a
        final partial epoch for the remainder, summing to exactly
        ``n_generations``."""
        full, remainder = divmod(self.params.n_generations, self.migration_interval)
        schedule = [self.migration_interval] * full
        if remainder:
            schedule.append(remainder)
        return schedule

    def close(self) -> None:
        """Shut down the persistent worker pool (no-op if never started)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "IslandGA":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.terminate()
            except Exception:
                pass

    def _ensure_pool(self):
        """The persistent pool: spawned once, reused across epochs and
        across :meth:`run` calls (the workers' fitness-table caches are
        the state worth keeping warm)."""
        if self._pool is None:
            import multiprocessing as mp

            self._pool = mp.Pool(self.processes)
        return self._pool

    def _epoch_jobs(self, epoch_gens, states, populations):
        params_dict = dict(
            n_generations=self.params.n_generations,
            population_size=self.params.population_size,
            crossover_threshold=self.params.crossover_threshold,
            mutation_threshold=self.params.mutation_threshold,
            rng_seed=self.params.rng_seed,
        )
        return [
            (
                self.fitness.name,
                i,
                params_dict,
                epoch_gens,
                states[i],
                self.seeds[i],
                populations[i],
            )
            for i in range(self.n_islands)
        ]

    def _batched_epoch(self, epoch_gens, states, populations):
        """The in-process reference path: evolve every island in one
        :class:`BatchBehavioralGA` call (bit-identical to the per-island
        workers — same per-stream draw sequence, same operators)."""
        params_list = [
            self.params.with_(n_generations=epoch_gens, rng_seed=self.seeds[i])
            for i in range(self.n_islands)
        ]
        batch = BatchBehavioralGA(
            params_list, self.fitness, record_members=False, rng_states=states,
            tracer=self.tracer,
        )
        initial = (
            np.asarray(populations, dtype=np.int64)
            if populations[0] is not None
            else None
        )
        results = batch.run(initial=initial)
        return [
            (
                i,
                batch.final_populations[i].tolist(),
                results[i].best_individual,
                results[i].best_fitness,
                int(batch.rng_states[i]),
                results[i].evaluations,
            )
            for i in range(self.n_islands)
        ]

    def _migrate(self, populations, champions):
        """Topology migration: edge ``e`` sends island ``sources[e]``'s
        champion into destination ``dests[e]``, replacing its
        ``rank[e]``-th worst member.  Member ranks are computed from the
        pre-migration populations (one stable argsort per destination) so
        this reference loop is operation-for-operation the vectorized
        slab's scatter."""
        topo = self.topology
        if topo.n_edges == 0:
            return
        table = self.fitness.table()
        pops = {
            d: np.asarray(populations[d], dtype=np.int64)
            for d in set(topo.dests.tolist())
        }
        orders = {
            d: np.argsort(table[pop], kind="stable") for d, pop in pops.items()
        }
        for e in range(topo.n_edges):
            src = int(topo.sources[e])
            dst = int(topo.dests[e])
            migrant, _fit = champions[src]
            pops[dst][orders[dst][int(topo.rank[e])]] = migrant
        for d, pop in pops.items():
            populations[d] = pop.tolist()

    def run(self) -> IslandResult:
        """Run all epochs; vectorized in-process or pooled per
        ``processes``."""
        if self.processes == 1:
            return VectorIslandGA(
                self.params,
                self.fitness,
                n_islands=self.n_islands,
                migration_interval=self.migration_interval,
                topology=self.topology,
                record_champions=self.record_champions,
                tracer=self.tracer,
            ).run()
        return self.run_epoch_loop()

    def run_epoch_loop(self) -> IslandResult:
        """The legacy epoch loop: one engine pass per island per epoch.

        With ``processes>1`` epochs fan out over the persistent pool;
        with ``processes=1`` each epoch is one fresh batched engine call
        — kept as the reference implementation the vectorized archipelago
        is property-tested against (and the baseline its benchmark
        measures the speedup over).
        """
        from contextlib import nullcontext

        schedule = self.epoch_schedule()
        states = list(self.seeds)
        populations: list[list[int] | None] = [None] * self.n_islands
        island_best: list[tuple[int, int]] = [(0, -1)] * self.n_islands
        evaluations = 0
        migrations = 0
        best_per_epoch: list[int] = []
        epoch_champions: list[list[tuple[int, int]]] = []
        epoch_summary: list[tuple[int, int, int]] = []
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled

        pool = self._ensure_pool() if self.processes > 1 else None
        run_scope = (
            tracer.span(
                "ga.run",
                engine="island",
                fitness=self.fitness.name,
                islands=self.n_islands,
                migration_interval=self.migration_interval,
                topology=self.topology.name,
                generations=self.params.n_generations,
            )
            if tracing
            else nullcontext()
        )
        with run_scope:
            for epoch, epoch_gens in enumerate(schedule):
                epoch_scope = (
                    tracer.span("island.epoch", epoch=epoch, gens=epoch_gens)
                    if tracing
                    else nullcontext()
                )
                with epoch_scope:
                    if pool is not None:
                        jobs = self._epoch_jobs(epoch_gens, states, populations)
                        results = pool.map(_epoch_worker, jobs)
                    else:
                        results = self._batched_epoch(
                            epoch_gens, states, populations
                        )
                    champions: list[tuple[int, int]] = [
                        (0, -1)
                    ] * self.n_islands
                    for island, final_pop, cand, fit, state, evals in results:
                        states[island] = state
                        populations[island] = final_pop
                        evaluations += evals
                        champions[island] = (cand, fit)
                        if fit > island_best[island][1]:
                            island_best[island] = (cand, fit)
                    if epoch < len(schedule) - 1 and self.topology.n_edges:
                        # no migration after the final epoch: the
                        # migrants would never evolve and would inflate
                        # the migration count
                        self._migrate(populations, champions)
                        migrations += self.topology.n_edges
                        if tracing:
                            tracer.event(
                                "island.migration",
                                epoch=epoch,
                                migrants=self.topology.n_edges,
                                champions=(
                                    [[int(c), int(f)] for c, f in champions]
                                    if self.record_champions
                                    else None
                                ),
                            )
                    overall_now = max(island_best, key=lambda cf: cf[1])
                    best_per_epoch.append(overall_now[1])
                    epoch_summary.append(
                        (
                            overall_now[1],
                            overall_now[0],
                            sum(f for _c, f in champions),
                        )
                    )
                    if self.record_champions:
                        epoch_champions.append([(c, f) for c, f in champions])

        overall = max(island_best, key=lambda cf: cf[1])
        return IslandResult(
            best_individual=overall[0],
            best_fitness=overall[1],
            island_bests=[f for _c, f in island_best],
            migrations=migrations,
            evaluations=evaluations,
            best_per_epoch=best_per_epoch,
            epoch_champions=epoch_champions,
            epoch_summary=epoch_summary,
        )

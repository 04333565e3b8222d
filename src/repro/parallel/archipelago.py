"""The island model: the whole archipelago as one batched slab.

Models a fabric carrying several GA IP cores (the multi-core direction of
Sec. II-B / the hybrid system of Fig. 5): ``n_islands`` behavioural
engines evolve independent populations in epochs of ``migration_interval``
generations; at each epoch boundary champions migrate over a programmable
:class:`MigrationTopology` (ring by default), each migrant replacing a
worst member of its destination.  Populations are carried across epochs
(no restarts).  When ``n_generations`` is not a multiple of
``migration_interval`` a final partial epoch runs the remainder, so
exactly ``n_generations`` generations execute per island; no migration
happens after the final epoch (there is nothing left to evolve the
migrants).

:class:`VectorIslandGA` maps the archipelago onto a *single* resumable
:class:`~repro.core.batch.BatchBehavioralGA` whose replica axis is the
island axis: one ``(islands, pop)`` population array, one multi-stream
RNG bank, advanced ``migration_interval`` generations per :meth:`step`,
which is the "many GA IP cores on one fabric" direction of Sec. II-B
scaled the way Torquato & Fernandes run fully pipelined concurrent
populations.  Process parallelism lives one layer up, in the service's
supervised worker pool, which runs each archipelago job as one slab.

Migration is a pure array operation.  A :class:`MigrationTopology` holds
the archipelago wiring as precomputed edge arrays (``sources``, ``dests``,
and each edge's rank among its destination's incoming edges), so an epoch
boundary is: gather every island's champion, rank each destination's
members worst-first with one stable argsort, scatter the migrants over the
``rank``-th worst slots, re-evaluate the touched cells, and re-anchor the
best-tracking registers — no per-island Python loops.

Exactness contract: for any ``(params, seed, topology)``
:class:`VectorIslandGA` is bit-identical to serial :class:`BehavioralGA`
epochs per island with carried RNG state and list migration — the
independent reference in ``tests/parallel/epoch_oracle.py`` that the
differential suite in ``tests/parallel/test_archipelago.py`` holds it to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchBehavioralGA
from repro.core.params import GAParameters
from repro.core.validate import (
    parse_topology,
    torus_grid,
    validate_island_params,
)
from repro.fitness.base import FitnessFunction
from repro.obs.metrics import record_archipelago_run


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


@dataclass(frozen=True)
class MigrationTopology:
    """Archipelago wiring as precomputed edge index arrays.

    Edge ``e`` sends the champion of island ``sources[e]`` to island
    ``dests[e]``.  Edges are sorted by destination and ``rank[e]`` numbers
    an edge among its destination's incoming edges (0, 1, ...), so a
    destination receiving k migrants replaces its k worst members — the
    rank-0 edge replaces the very worst, exactly like the hardware-style
    ring's ``argmin`` replacement, and ties between equal-fitness members
    resolve to the lowest member index (stable sort).
    """

    name: str
    n_islands: int
    sources: np.ndarray
    dests: np.ndarray
    rank: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        sources = np.asarray(self.sources, dtype=np.int64)
        dests = np.asarray(self.dests, dtype=np.int64)
        if sources.shape != dests.shape or sources.ndim != 1:
            raise ValueError("sources and dests must be equal-length 1-D")
        if sources.size and (
            sources.min() < 0
            or sources.max() >= self.n_islands
            or dests.min() < 0
            or dests.max() >= self.n_islands
        ):
            raise ValueError("edge endpoints must be island indices")
        if np.any(sources == dests):
            raise ValueError("self-edges are not allowed")
        order = np.argsort(dests, kind="stable")
        sources, dests = sources[order], dests[order]
        # rank within each destination group = position - group start
        starts = np.searchsorted(dests, dests, side="left")
        rank = np.arange(dests.size, dtype=np.int64) - starts
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "dests", dests)
        object.__setattr__(self, "rank", rank)

    @property
    def n_edges(self) -> int:
        return int(self.dests.size)

    @property
    def max_fan_in(self) -> int:
        """Most migrants any single island receives per boundary."""
        return int(self.rank.max()) + 1 if self.n_edges else 0


def ring_topology(n_islands: int) -> MigrationTopology:
    """Island ``i`` sends to ``(i + 1) mod n`` — the hardware-style ring.
    One island degenerates to zero edges (nothing to rotate)."""
    if n_islands < 2:
        empty = np.empty(0, dtype=np.int64)
        return MigrationTopology("ring", n_islands, empty, empty)
    dests = np.arange(n_islands, dtype=np.int64)
    return MigrationTopology("ring", n_islands, (dests - 1) % n_islands, dests)


def torus_topology(n_islands: int) -> MigrationTopology:
    """2-D wrap-around grid: every island sends right and down.

    The grid is :func:`~repro.core.validate.torus_grid`'s most-square
    factorization ``rows x cols = n``; a prime count degenerates to a
    ``1 x n`` row whose "down" edges are self-edges and are dropped,
    leaving a ring.
    """
    if n_islands < 2:
        empty = np.empty(0, dtype=np.int64)
        return MigrationTopology("torus", n_islands, empty, empty)
    rows, cols = torus_grid(n_islands)
    r, c = np.divmod(np.arange(n_islands, dtype=np.int64), cols)
    sources, dests = [], []
    if cols > 1:
        sources.append(r * cols + c)
        dests.append(r * cols + (c + 1) % cols)
    if rows > 1:
        sources.append(r * cols + c)
        dests.append(((r + 1) % rows) * cols + c)
    return MigrationTopology(
        "torus", n_islands, np.concatenate(sources), np.concatenate(dests)
    )


def random_topology(
    n_islands: int, fan_in: int, seed: int
) -> MigrationTopology:
    """Each island receives champions from ``fan_in`` distinct other
    islands, wired seed-deterministically (same seed, same graph — on any
    platform, via a dedicated PCG64 stream that never touches the GA's
    CA-PRNG words)."""
    if n_islands < 2:
        empty = np.empty(0, dtype=np.int64)
        return MigrationTopology("random", n_islands, empty, empty)
    k = min(fan_in, n_islands - 1)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, n_islands, k]))
    )
    scores = rng.random((n_islands, n_islands))
    np.fill_diagonal(scores, np.inf)  # never pick yourself
    sources = np.argsort(scores, axis=1, kind="stable")[:, :k].ravel()
    dests = np.repeat(np.arange(n_islands, dtype=np.int64), k)
    return MigrationTopology("random", n_islands, sources, dests)


def build_topology(spec: str, n_islands: int, seed: int) -> MigrationTopology:
    """Build the wiring for a validated topology spec (``"ring"``,
    ``"torus"``, ``"random"``/``"random:<k>"``)."""
    name, fan_in = parse_topology(spec)
    if name == "ring":
        return ring_topology(n_islands)
    if name == "torus":
        return torus_topology(n_islands)
    return random_topology(n_islands, fan_in, seed)


def island_seeds(params: GAParameters, n_islands: int) -> list[int]:
    """Decorrelated per-island offsets of the programmed seed (the
    programmable-seed feature, once per core)."""
    return [
        ((params.rng_seed + 0x9E37 * i) & 0xFFFF) or 1 for i in range(n_islands)
    ]


class VectorIslandGA:
    """Island model executed as one resumable batched slab.

    ``record_champions`` gates the O(epochs x islands)
    ``epoch_champions`` tuple history — leave it off for thousand-island
    runs.
    """

    def __init__(
        self,
        params: GAParameters,
        fitness: FitnessFunction,
        n_islands: int = 4,
        migration_interval: int = 8,
        topology: str = "ring",
        record_champions: bool = True,
        tracer=None,
    ):
        validate_island_params(
            n_islands, migration_interval, topology, params.population_size
        )
        self.params = params
        self.fitness = fitness
        self.n_islands = n_islands
        self.migration_interval = migration_interval
        #: archipelago wiring, seed-deterministic for ``"random[:k]"``
        self.topology = build_topology(topology, n_islands, params.rng_seed)
        self.record_champions = record_champions
        #: optional :class:`~repro.obs.tracer.Tracer`: one ``ga.run`` span,
        #: an ``island.epoch`` span per epoch (nesting the batched engine's
        #: per-generation events) and an ``island.migration`` event per
        #: boundary.  Results are identical with tracing on or off.
        self.tracer = tracer
        self.seeds = island_seeds(params, n_islands)

    # ------------------------------------------------------------------
    def epoch_schedule(self) -> list[int]:
        """Generations per epoch: full ``migration_interval`` epochs plus a
        final partial epoch for the remainder, summing to exactly
        ``n_generations``."""
        full, remainder = divmod(
            self.params.n_generations, self.migration_interval
        )
        schedule = [self.migration_interval] * full
        if remainder:
            schedule.append(remainder)
        return schedule

    def _migrate(self, batch: BatchBehavioralGA, champ_ind: np.ndarray) -> None:
        """One migration boundary as three array operations: rank members
        worst-first, scatter champions over the topology, re-anchor."""
        topo = self.topology
        order = batch.worst_member_order()
        cols = order[topo.dests, topo.rank]
        batch.replace_members(topo.dests, cols, champ_ind[topo.sources])
        # a freshly arrived migrant can be an island's champion — restart
        # the champion race from the migrated populations, exactly like a
        # fresh serial engine per epoch would
        batch.reanchor_best()

    def run(self) -> IslandResult:
        """Run every epoch on one carried slab."""
        from contextlib import nullcontext

        schedule = self.epoch_schedule()
        topo = self.topology
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        params_list = [
            self.params.with_(rng_seed=seed) for seed in self.seeds
        ]
        batch = BatchBehavioralGA(
            params_list,
            self.fitness,
            record_members=False,
            tracer=tracer,
            record_history=False,
        )
        island_fit = np.full(self.n_islands, -1, dtype=np.int64)
        island_ind = np.zeros(self.n_islands, dtype=np.int64)
        migrations = 0
        best_per_epoch: list[int] = []
        epoch_summary: list[tuple[int, int, int]] = []
        epoch_champions: list[list[tuple[int, int]]] = []

        started = time.perf_counter()
        run_scope = (
            tracer.span(
                "ga.run",
                engine="island",
                fitness=self.fitness.name,
                islands=self.n_islands,
                migration_interval=self.migration_interval,
                topology=topo.name,
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
                    if epoch == 0:
                        # inside the first epoch span so the generation-0
                        # trace event nests under an epoch like the rest
                        batch.begin()
                    batch.step(epoch_gens)
                    champ_ind, champ_fit = batch.champions()
                    improved = champ_fit > island_fit
                    island_fit = np.where(improved, champ_fit, island_fit)
                    island_ind = np.where(improved, champ_ind, island_ind)
                    if epoch < len(schedule) - 1 and topo.n_edges:
                        self._migrate(batch, champ_ind)
                        migrations += topo.n_edges
                        if tracing:
                            tracer.event(
                                "island.migration",
                                epoch=epoch,
                                migrants=topo.n_edges,
                                champions=(
                                    [
                                        [int(c), int(f)]
                                        for c, f in zip(champ_ind, champ_fit)
                                    ]
                                    if self.record_champions
                                    else None
                                ),
                            )
                    best = int(island_fit.argmax())
                    best_per_epoch.append(int(island_fit[best]))
                    epoch_summary.append(
                        (
                            int(island_fit[best]),
                            int(island_ind[best]),
                            int(champ_fit.sum()),
                        )
                    )
                    if self.record_champions:
                        epoch_champions.append(
                            list(
                                zip(champ_ind.tolist(), champ_fit.tolist())
                            )
                        )
        batch.finalize()
        record_archipelago_run(
            self.n_islands,
            self.params.n_generations,
            len(schedule),
            migrations,
            time.perf_counter() - started,
        )

        overall = int(island_fit.argmax())
        return IslandResult(
            best_individual=int(island_ind[overall]),
            best_fitness=int(island_fit[overall]),
            island_bests=island_fit.tolist(),
            migrations=migrations,
            evaluations=int(batch.evaluations.sum()),
            best_per_epoch=best_per_epoch,
            epoch_champions=epoch_champions,
            epoch_summary=epoch_summary,
        )

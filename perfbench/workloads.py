"""Workload definitions and their seeded input generators.

Every workload drives the serving stack through its public entry points
with 2 process-mode pool workers (the ``repro serve`` default), the
default :class:`~repro.service.batcher.BatchPolicy` (``max_batch`` 32,
``max_wait_s`` 20 ms, ``admit_interval`` 16) and a run store in a fresh
directory, so write-back is on every job's path.  None uses turbo, the
cycle-accurate, ``dual32`` or hardened substrates.

The inputs are generated from the workload seed alone.  Each workload is a
fixed factorial design (its *shape*) replayed in blocks, so every seed asks
for the same amount of work; the seed shuffles each group of a block and
picks each job's 16-bit ``rng_seed``.  Because ``rng_seed`` is small and the
other fields take few values, fresh requests are de-duplicated on their
store key: a repeated key would turn a cold job into a cache hit or a
coalesced follower.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro import GAParameters
from repro.service import GARequest
from repro.store.keys import job_key

FITNESS_SLOTS = ("mBF6_2", "mBF7_2", "mShubert2D", "F2")
#: (crossover_threshold, mutation_threshold) pairs; each is one slot table
THRESHOLD_CLASSES = ((6, 1), (8, 2), (10, 1), (12, 3), (13, 1), (14, 2))
TOPOLOGIES = ("ring", "torus", "random:2")
#: warm-up jobs run this many generations, a count no workload job uses,
#: so warm-up keys never collide with timed keys
WARMUP_GENERATIONS = 2


@dataclass(frozen=True)
class Shape:
    """The determinism-relevant fields of one request, minus its seed."""

    population: int
    generations: int
    thresholds: tuple[int, int]
    fitness: str
    islands: int = 1
    topology: str = "ring"

    def request(self, rng_seed: int) -> GARequest:
        xover, mut = self.thresholds
        return GARequest(
            params=GAParameters(
                n_generations=self.generations,
                population_size=self.population,
                crossover_threshold=xover,
                mutation_threshold=mut,
                rng_seed=rng_seed,
            ),
            fitness_name=self.fitness,
            n_islands=self.islands,
            migration_interval=8,
            topology=self.topology,
        )


def shape_of(request: GARequest) -> Shape:
    params = request.params
    return Shape(
        population=params.population_size,
        generations=params.n_generations,
        thresholds=(params.crossover_threshold, params.mutation_threshold),
        fitness=request.fitness_name,
        islands=request.n_islands,
        topology=request.topology,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the layers this workload loads, and the ones it leaves idle
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    #: "in-process" (GAService) or "tcp" (repro serve + submit_remote)
    front_end: str
    #: closed-loop client threads of the warm parts (and of the TCP cold
    #: parts); one in-process client keeps client threads from contending
    #: with the service for the host's interpreter lock
    clients: int
    #: one block of the factorial design as groups in a fixed order; the
    #: seed shuffles within each group.  An in-process closed burst is one
    #: block.
    block: tuple[tuple[Shape, ...], ...]
    warmup: tuple[GARequest, ...]

    @property
    def block_size(self) -> int:
        return sum(len(group) for group in self.block)


def _batched_warmup(populations: tuple[int, ...], per_population: int):
    """Fixed warm-up: full slabs cycling through every threshold class and
    fitness slot, so each worker builds every slot and fitness table."""
    combos = list(itertools.product(THRESHOLD_CLASSES, FITNESS_SLOTS))
    requests = []
    seed = 1
    for pop in populations:
        for i in range(per_population):
            thresholds, fitness = combos[i % len(combos)]
            requests.append(
                Shape(pop, WARMUP_GENERATIONS, thresholds, fitness).request(seed)
            )
            seed += 1
    return tuple(requests)


def _slab_block() -> tuple[tuple[Shape, ...], ...]:
    # One group per threshold class, in class order.  A slab then holds one
    # class or two neighbouring ones, so the workers' per-class-set slot
    # table stacks are the same few in every burst; a fully shuffled burst
    # builds a different set of stacks each run, and peak RSS with them.
    return tuple(
        tuple(
            Shape(256, gens, thresholds, fitness)
            for gens in (48, 64, 80)
            for fitness in FITNESS_SLOTS
            for _repeat in range(4)
        )
        for thresholds in THRESHOLD_CLASSES
    )


def _island_block() -> tuple[tuple[Shape, ...], ...]:
    combos = itertools.product((16, 24, 32), TOPOLOGIES, FITNESS_SLOTS)
    return (tuple(
        # a fixed class per combo, so each class appears equally often
        Shape(32, gens, THRESHOLD_CLASSES[i % len(THRESHOLD_CLASSES)],
              fitness, islands=256, topology=topology)
        for i, (gens, topology, fitness) in enumerate(combos)
    ),)


def _tcp_block() -> tuple[tuple[Shape, ...], ...]:
    return (tuple(
        Shape(pop, gens, thresholds, fitness)
        for pop in (32, 64)
        for gens in (16, 32)
        for thresholds in THRESHOLD_CLASSES
        for fitness in FITNESS_SLOTS
    ),)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="slab-burst",
            why=(
                "At population 256 the exact kernel walks 128 slots per "
                "generation in Python, so core.batch does most of the work. "
                "Mixed lengths (48/64/80) retire jobs mid-slab and late "
                "admission refills the slabs; carried populations make "
                "dispatch payloads large; every completion writes to the "
                "store while both workers are saturated."
            ),
            loads=("service.scheduler", "service.batcher", "store (put)",
                   "service.workers", "core.batch"),
            bypasses=("service.server TCP framing",
                      "store reads (except the warm parts)",
                      "parallel.archipelago"),
            front_end="in-process",
            clients=1,
            block=_slab_block(),
            warmup=_batched_warmup((256,), 64),
        ),
        Workload(
            name="archipelago",
            why=(
                "The same kernel in the opposite shape: each job is one "
                "VectorIslandGA slab of 256 islands x population 32 "
                "(16 slots per generation) plus the migration array work "
                "of ring/torus/random:2 topologies. The batcher does "
                "nothing here; a kernel change tuned for one shape shows "
                "its cost on the other."
            ),
            loads=("service.scheduler", "store (put)", "service.workers",
                   "core.batch", "parallel.archipelago"),
            bypasses=("service.server TCP framing", "service.batcher",
                      "store reads (except the warm parts)"),
            front_end="in-process",
            clients=1,
            block=_island_block(),
            warmup=_batched_warmup((32,), 64) + tuple(
                Shape(32, WARMUP_GENERATIONS, (10, 1), "mBF6_2",
                      islands=256, topology=topology).request(100 + i)
                for i, topology in enumerate(TOPOLOGIES)
            ),
        ),
        Workload(
            name="tcp-roundtrip",
            why=(
                "Small fresh jobs (population 32/64, 16/32 generations) "
                "from 2 closed-loop repro-submit-style clients, then the "
                "same requests again, answered from the store. The kernel "
                "is about half of a small job's latency and none of a hit's, "
                "so TCP framing, admission, the 20 ms batching window, pool "
                "hops and write-back dominate."
            ),
            loads=("service.server TCP framing", "store (key, lookup, put)",
                   "service.scheduler", "service.batcher",
                   "service.workers", "core.batch"),
            bypasses=("parallel.archipelago",),
            front_end="tcp",
            clients=2,
            block=_tcp_block(),
            warmup=_batched_warmup((32, 64), 24),
        ),
    )
}


def fresh_requests(workload: Workload, seed: int):
    """Endless stream of fresh requests for one workload and seed.

    Blocks of the workload's factorial design, each group shuffled by the
    seed; every request gets a seed-drawn ``rng_seed``, redrawn while its
    store key repeats one already generated (or a warm-up key).
    """
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    seen = {job_key(request) for request in workload.warmup}
    while True:
        block = []
        for group in workload.block:
            group = list(group)
            rng.shuffle(group)
            block += group
        for shape in block:
            while True:
                request = shape.request(rng.randrange(1, 0x10000))
                key = job_key(request)
                if key not in seen:
                    seen.add(key)
                    break
            yield request

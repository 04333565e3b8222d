"""Differential conformance suite for the vectorized archipelago.

The batched slab (:class:`VectorIslandGA`) must agree bit-for-bit with
the independent serial reference in :mod:`tests.parallel.epoch_oracle`
— one :class:`BehavioralGA` pass per island per epoch with list
migration — for every ``(params, seed, topology)``.  Random topologies
must be seed-deterministic, the spec-derived fan-in must match the built
wiring, and the service must round-trip an ``n_islands`` job to the same
numbers as a local run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import GAParameters
from repro.core.validate import topology_fan_in, validate_island_params
from repro.fitness import F3
from repro.fitness.functions import by_name
from repro.parallel import VectorIslandGA, build_topology
from repro.parallel.archipelago import (
    MigrationTopology,
    random_topology,
    ring_topology,
    torus_topology,
)
from tests.parallel.epoch_oracle import run_epoch_oracle

TOPOLOGIES = ["ring", "torus", "random", "random:3"]


def params(**overrides):
    base = dict(
        n_generations=18,
        population_size=16,
        crossover_threshold=10,
        mutation_threshold=2,
        rng_seed=45890,
    )
    base.update(overrides)
    return GAParameters(**base)


class TestTopologies:
    def test_ring_is_the_legacy_rotation(self):
        topo = ring_topology(5)
        assert topo.n_edges == 5
        # destination i receives from (i - 1) mod n
        assert topo.dests.tolist() == [0, 1, 2, 3, 4]
        assert topo.sources.tolist() == [4, 0, 1, 2, 3]
        assert topo.rank.tolist() == [0] * 5
        assert topo.max_fan_in == 1

    def test_single_island_has_no_edges(self):
        for builder in (ring_topology, torus_topology):
            assert builder(1).n_edges == 0
        assert random_topology(1, 2, 7).n_edges == 0

    def test_torus_grid_edges(self):
        topo = torus_topology(12)  # 3 x 4 grid
        assert topo.n_edges == 24  # right + down per island
        assert topo.max_fan_in == 2
        assert not np.any(topo.sources == topo.dests)

    def test_torus_prime_degenerates_to_ring(self):
        topo = torus_topology(7)  # 1 x 7 row: down edges are self-edges
        assert topo.n_edges == 7
        assert topo.max_fan_in == 1

    def test_random_topology_seed_deterministic(self):
        a = random_topology(10, 3, seed=77)
        b = random_topology(10, 3, seed=77)
        c = random_topology(10, 3, seed=78)
        assert np.array_equal(a.sources, b.sources)
        assert np.array_equal(a.dests, b.dests)
        assert not (
            np.array_equal(a.sources, c.sources)
            and np.array_equal(a.dests, c.dests)
        )

    def test_random_topology_fan_in_and_wiring(self):
        topo = random_topology(9, 3, seed=5)
        assert topo.n_edges == 27
        assert topo.max_fan_in == 3
        assert not np.any(topo.sources == topo.dests)
        for dest in range(9):
            srcs = topo.sources[topo.dests == dest]
            assert len(set(srcs.tolist())) == 3  # distinct sources

    def test_random_fan_in_clamped_to_n_minus_one(self):
        topo = random_topology(4, 99, seed=1)
        assert topo.max_fan_in == 3

    def test_self_edges_rejected(self):
        with pytest.raises(ValueError, match="self-edges"):
            MigrationTopology(
                "ring", 3, np.array([0, 1]), np.array([0, 2])
            )

    def test_build_topology_dispatch(self):
        assert build_topology("ring", 4, 1).name == "ring"
        assert build_topology("torus", 4, 1).name == "torus"
        assert build_topology("random:2", 4, 1).name == "random"

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 0xFFFF))
    def test_spec_fan_in_matches_built_wiring(self, seed):
        # every island count up to 199, so each torus grid shape (prime
        # rows of one, square-ish grids) and every random:k clamp is hit
        for spec in ("ring", "torus", "random", "random:1", "random:5",
                     "random:300"):
            for n_islands in range(1, 200):
                assert topology_fan_in(spec, n_islands) == (
                    build_topology(spec, n_islands, seed).max_fan_in
                ), (spec, n_islands)


class TestExactBitIdentity:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize(
        "n_islands,interval,gens,seed",
        [(1, 3, 10, 7), (2, 8, 20, 1), (5, 4, 21, 1234), (8, 3, 17, 99)],
    )
    def test_vector_matches_legacy_loop(
        self, topology, n_islands, interval, gens, seed
    ):
        # "legacy" is the serial epoch loop the slab replaced, kept as
        # the independent oracle
        p = params(n_generations=gens, rng_seed=seed)
        kwargs = dict(
            n_islands=n_islands, migration_interval=interval, topology=topology
        )
        assert VectorIslandGA(p, F3(), **kwargs).run() == run_epoch_oracle(
            p, F3(), **kwargs
        )

    @settings(max_examples=15, deadline=None)
    @given(
        n_islands=st.integers(1, 7),
        interval=st.integers(1, 9),
        gens=st.integers(1, 24),
        seed=st.integers(1, 0xFFFF),
        topology=st.sampled_from(TOPOLOGIES),
        fitness=st.sampled_from(["F3", "BF6", "mBF6_2"]),
    )
    def test_property_vector_vs_legacy(
        self, n_islands, interval, gens, seed, topology, fitness
    ):
        p = params(
            n_generations=gens, population_size=8, rng_seed=seed
        )
        fn = by_name(fitness)
        kwargs = dict(
            n_islands=n_islands, migration_interval=interval, topology=topology
        )
        assert VectorIslandGA(p, fn, **kwargs).run() == run_epoch_oracle(
            p, fn, **kwargs
        )

    def test_thousand_islands_bit_identical(self):
        # the acceptance-criteria shape: a 1000-island slab
        # agrees with the serial epoch oracle
        p = params(n_generations=6, population_size=8, rng_seed=0x061F)
        kwargs = dict(n_islands=1000, migration_interval=3)
        vec = VectorIslandGA(p, F3(), **kwargs).run()
        assert vec == run_epoch_oracle(p, F3(), **kwargs)
        assert len(vec.island_bests) == 1000
        assert vec.migrations == 1000  # one ring boundary

    def test_record_champions_off_drops_only_champions(self):
        p = params()
        full = VectorIslandGA(
            p, F3(), n_islands=4, migration_interval=6
        ).run()
        lean = VectorIslandGA(
            p, F3(), n_islands=4, migration_interval=6,
            record_champions=False,
        ).run()
        assert lean.epoch_champions == []
        assert full.epoch_champions
        lean.epoch_champions = full.epoch_champions
        assert lean == full


class TestValidationParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_islands=0),
            dict(migration_interval=0),
            dict(topology="star"),
            dict(topology="ring:3"),
            dict(topology="random:0"),
            dict(population_size=4, n_islands=8, topology="random:4"),
        ],
    )
    def test_same_error_from_every_layer(self, kwargs):
        from repro.service.jobs import GARequest

        base = dict(n_islands=4, migration_interval=8, topology="ring")
        merged = {**base, **kwargs}
        pop = merged.pop("population_size", 16)
        p = params(population_size=pop)
        with pytest.raises(ValueError) as direct:
            validate_island_params(**merged, population_size=pop)
        with pytest.raises(ValueError) as engine:
            VectorIslandGA(p, F3(), **merged)
        with pytest.raises(ValueError) as wire:
            GARequest(params=p, **merged)
        assert str(direct.value) == str(engine.value) == str(wire.value)

    def test_fan_in_cannot_swallow_population(self):
        with pytest.raises(ValueError, match="fan-in"):
            VectorIslandGA(
                params(population_size=4), F3(), n_islands=8,
                topology="random:4",
            )


class TestServiceRoundTrip:
    def test_island_job_matches_local_run(self):
        from repro.service import GARequest, GAService
        from repro.service.batcher import BatchPolicy

        p = params(n_generations=24, rng_seed=0x2961)
        request = GARequest(
            params=p, fitness_name="mBF6_2", n_islands=6,
            migration_interval=5, topology="torus",
        )
        with GAService(workers=2, mode="thread",
                       policy=BatchPolicy(max_batch=8)) as service:
            result = service.submit(request).result(timeout=60)
        local = VectorIslandGA(
            p, by_name("mBF6_2"), n_islands=6, migration_interval=5,
            topology="torus",
        ).run()
        assert result.best_fitness == local.best_fitness
        assert result.best_individual == local.best_individual
        assert result.evaluations == local.evaluations
        assert result.n_chunks == 1  # island slabs run solo, unchunked
        assert result.island_stats["migrations"] == local.migrations
        assert result.island_stats["island_bests"] == local.island_bests
        # an island job's history rows are per epoch
        assert [
            (g.best_fitness, g.best_individual, g.fitness_sum)
            for g in result.history
        ] == [tuple(row) for row in local.epoch_summary]

    def test_wire_round_trip_carries_island_fields(self):
        from repro.service import GARequest

        request = GARequest(
            params=params(), n_islands=16, migration_interval=3,
            topology="random:2",
        )
        assert GARequest.from_dict(request.to_dict()) == request

    def test_island_jobs_do_not_batch_with_ordinary_jobs(self):
        from repro.service import GARequest, GAService
        from repro.service.batcher import BatchPolicy

        p = params(n_generations=8)
        island = GARequest(params=p, n_islands=4)
        plain = GARequest(params=p)
        with GAService(workers=1, mode="thread",
                       policy=BatchPolicy(max_batch=8)) as service:
            results = service.run_all([island, plain, plain], timeout=60)
        assert results[0].island_stats
        assert not results[1].island_stats
        # the plain jobs agree with a solo run regardless of the island
        # job sharing the queue
        assert results[1].best_fitness == results[2].best_fitness

"""Tests for the island-model GA (:class:`VectorIslandGA`)."""

import pytest

from repro.core.params import GAParameters
from repro.fitness import BF6, F3
from repro.parallel import VectorIslandGA


def params(**overrides):
    base = dict(
        n_generations=16,
        population_size=16,
        crossover_threshold=10,
        mutation_threshold=2,
        rng_seed=45890,
    )
    base.update(overrides)
    return GAParameters(**base)


class TestConstruction:
    def test_needs_positive_islands(self):
        # n_islands=1 is the legal degenerate archipelago (no edges);
        # zero or negative is a named error
        with pytest.raises(ValueError):
            VectorIslandGA(params(), F3(), n_islands=0)

    def test_single_island_runs(self):
        result = VectorIslandGA(params(), F3(), n_islands=1).run()
        assert result.migrations == 0
        assert len(result.island_bests) == 1

    def test_migration_interval_positive(self):
        with pytest.raises(ValueError):
            VectorIslandGA(params(), F3(), migration_interval=0)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            VectorIslandGA(params(), F3(), topology="star")

    def test_island_seeds_distinct_and_nonzero(self):
        ga = VectorIslandGA(params(), F3(), n_islands=8)
        assert len(set(ga.seeds)) == 8
        assert all(s != 0 for s in ga.seeds)


class TestSequentialRun:
    def test_runs_all_epochs(self):
        ga = VectorIslandGA(params(), F3(), n_islands=3, migration_interval=4)
        result = ga.run()
        assert len(result.best_per_epoch) == 4  # 16 gens / 4 per epoch
        # migrations happen at epoch *boundaries* only: none after the
        # final epoch (the migrants would never evolve)
        assert result.migrations == 3 * 3

    def test_remainder_generations_run(self):
        # 14 generations at interval 4 = three full epochs plus a final
        # partial epoch of 2; the remainder must not be silently dropped
        ga = VectorIslandGA(
            params(n_generations=14, population_size=8),
            F3(),
            n_islands=2,
            migration_interval=4,
        )
        assert ga.epoch_schedule() == [4, 4, 4, 2]
        result = ga.run()
        assert len(result.best_per_epoch) == 4
        # exactly 14 generations per island: pop + 14*(pop-1) evaluations
        assert result.evaluations == (8 + 14 * 7) * 2

    def test_interval_longer_than_run_is_one_epoch(self):
        ga = VectorIslandGA(
            params(n_generations=5, population_size=8),
            F3(),
            n_islands=2,
            migration_interval=8,
        )
        assert ga.epoch_schedule() == [5]
        result = ga.run()
        assert result.migrations == 0  # single epoch: no boundary to migrate at
        assert result.evaluations == (8 + 5 * 7) * 2

    def test_no_migration_after_final_epoch(self):
        ga = VectorIslandGA(params(), F3(), n_islands=4, migration_interval=8)
        result = ga.run()  # 16 gens / 8 = 2 epochs, 1 boundary
        assert result.migrations == 4 * 1

    def test_best_is_max_over_islands(self):
        ga = VectorIslandGA(params(), BF6(), n_islands=4, migration_interval=8)
        result = ga.run()
        assert result.best_fitness == max(result.island_bests)

    def test_epoch_bests_monotone(self):
        ga = VectorIslandGA(params(n_generations=32), BF6(), n_islands=3)
        result = ga.run()
        series = result.best_per_epoch
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_deterministic(self):
        a = VectorIslandGA(params(), BF6(), n_islands=3).run()
        b = VectorIslandGA(params(), BF6(), n_islands=3).run()
        assert a.best_individual == b.best_individual
        assert a.best_per_epoch == b.best_per_epoch

    def test_beats_or_matches_single_island_budget(self):
        # With 4x the evaluations, the island model should do at least as
        # well as one engine (sanity of the parallel extension).
        from repro.core.behavioral import BehavioralGA

        single = BehavioralGA(params(n_generations=32), BF6()).run()
        islands = VectorIslandGA(
            params(n_generations=32), BF6(), n_islands=4, migration_interval=8
        ).run()
        assert islands.best_fitness >= single.best_fitness * 0.98

    def test_epoch_champions_trace_shape_and_consistency(self):
        ga = VectorIslandGA(params(), BF6(), n_islands=3, migration_interval=4)
        result = ga.run()
        assert len(result.epoch_champions) == 4  # one row per epoch
        assert all(len(row) == 3 for row in result.epoch_champions)
        # every champion is a valid (chromosome, fitness) pair
        for row in result.epoch_champions:
            for individual, fitness in row:
                assert 0 <= individual <= 0xFFFF
                assert fitness >= 0
        # the running best over the trace reproduces best_per_epoch and
        # each island's final best matches island_bests
        running = []
        best = -1
        for row in result.epoch_champions:
            best = max(best, max(f for _c, f in row))
            running.append(best)
        assert running == result.best_per_epoch
        assert [
            max(f for _c, f in island_row)
            for island_row in zip(*result.epoch_champions)
        ] == result.island_bests

    def test_evaluations_accumulate_across_islands(self):
        p = params(n_generations=8, population_size=8)
        ga = VectorIslandGA(p, F3(), n_islands=2, migration_interval=4)
        result = ga.run()
        # the initial population is evaluated once per island; later epochs
        # resume an already-evaluated population, so each island costs
        # pop + n_generations*(pop-1) FEM requests in total
        assert result.evaluations == (8 + 8 * 7) * 2


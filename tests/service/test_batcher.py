"""Slab/chunk mechanics and the worker-level execution contract."""

import pytest

from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.service.batcher import BatchPolicy, JobRecord, Slab, compat_key
from repro.service.jobs import GARequest, JobHandle, params_to_dict
from repro.service.workers import run_slab_chunk


def params(**overrides) -> GAParameters:
    base = dict(
        n_generations=10,
        population_size=12,
        crossover_threshold=10,
        mutation_threshold=1,
        rng_seed=45890,
    )
    base.update(overrides)
    return GAParameters(**base)


def record(seq=0, **request_kw) -> JobRecord:
    request_kw.setdefault("params", params())
    request = GARequest(**request_kw)
    return JobRecord(
        job_id=seq, request=request,
        handle=JobHandle(seq, request, 0.0), submitted_at=float(seq), seq=seq,
    )


class TestBatchPolicy:
    @pytest.mark.parametrize(
        "kw",
        [
            {"max_batch": 0},
            {"chunk_timeout_s": 0.0},
            {"admit_interval": 0},
            {"max_pending": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ValueError):
            BatchPolicy(**kw)


class TestCompatKey:
    def test_same_pop_batches_regardless_of_other_params(self):
        a = record(0, params=params(rng_seed=1, n_generations=5))
        b = record(1, params=params(rng_seed=2, crossover_threshold=15),
                   fitness_name="mShubert2D")
        assert compat_key(a) == compat_key(b)

    def test_different_pop_separates(self):
        a = record(0)
        b = record(1, params=params(population_size=16))
        assert compat_key(a) != compat_key(b)

    @pytest.mark.parametrize(
        "solo_kw",
        [{"protection": "hardened"}, {"n_islands": 4}, {"substrate": "cycle"}],
        ids=["protection", "islands", "substrate"],
    )
    def test_solo_jobs_never_share_a_key(self, solo_kw):
        a = record(0, **solo_kw)
        b = record(1, **solo_kw)
        assert compat_key(a) != compat_key(b)
        assert compat_key(a)[0] == compat_key(b)[0] == "solo"


class TestSlab:
    def test_chunk_clamps_to_shortest_remaining_job(self):
        policy = BatchPolicy(admit_interval=16)
        slab = Slab([record(0, params=params(n_generations=40)),
                     record(1, params=params(n_generations=7))], policy)
        assert slab.next_chunk_gens() == 7

    def test_admit_respects_capacity_accounting(self):
        policy = BatchPolicy(max_batch=3)
        slab = Slab([record(0)], policy)
        assert slab.capacity_left == 2
        slab.admit([record(1), record(2)])
        assert slab.capacity_left == 0

    def test_hardened_slab_is_solo_and_closed(self):
        policy = BatchPolicy()
        with pytest.raises(ValueError):
            Slab([record(0, protection="secded"),
                  record(1, protection="secded")], policy)
        slab = Slab([record(0, protection="secded")], policy)
        assert slab.capacity_left == 0
        with pytest.raises(ValueError):
            slab.admit([record(1)])
        # hardened runs to completion in one chunk, ignoring admit_interval
        assert slab.next_chunk_gens() == 10


class TestRunSlabChunk:
    def test_fresh_then_resumed_chunks_match_solo_serial(self):
        p = params(n_generations=13, rng_seed=10593)
        fn = by_name("mBF6_2")
        solo = BehavioralGA(p, fn, record_members=False).run()

        entry = {
            "job_id": 0, "params": params_to_dict(p), "fitness": "mBF6_2",
            "population": None, "rng_state": None, "record_stats": True,
        }
        first = run_slab_chunk(
            {"chunk_gens": 6, "entries": [entry], "protection": None}
        )["entries"][0]
        second = run_slab_chunk(
            {
                "chunk_gens": 7,
                "entries": [
                    {
                        **entry,
                        "population": first["population"],
                        "rng_state": first["rng_state"],
                    }
                ],
                "protection": None,
            }
        )["entries"][0]

        spliced = first["stats"] + second["stats"][1:]
        want = [
            (g.best_fitness, g.best_individual, g.fitness_sum)
            for g in solo.history
        ]
        assert spliced == want
        assert second["best_individual"] == solo.best_individual
        assert second["best_fitness"] == solo.best_fitness
        assert (
            first["evaluations"] + second["evaluations"] == solo.evaluations
        )

    def test_record_stats_off_drops_trace_but_keeps_result(self):
        p = params(n_generations=4)
        out = run_slab_chunk(
            {
                "chunk_gens": 4,
                "entries": [
                    {
                        "job_id": 0, "params": params_to_dict(p),
                        "fitness": "F3", "population": None,
                        "rng_state": None, "record_stats": False,
                    }
                ],
                "protection": None,
            }
        )["entries"][0]
        assert out["stats"] == []
        assert out["best_fitness"] >= 0

"""The fitness memo layer: shared instances, one LUT build per process."""

import threading

from repro.core.params import GAParameters
from repro.fitness import base as fitness_base
from repro.fitness.functions import REGISTRY, by_name, fresh_instance
from repro.service.jobs import params_to_dict
from repro.service.workers import run_slab_chunk


def test_by_name_returns_shared_instance():
    for name in REGISTRY:
        assert by_name(name) is by_name(name)


def test_fresh_instance_is_private():
    fn = fresh_instance("F2")
    assert fn is not by_name("F2")
    assert fn is not fresh_instance("F2")


def test_shared_table_builds_at_most_once():
    fn = by_name("F3")
    fn.table()
    before = dict(fitness_base.TABLE_BUILDS)
    # every later consumer re-uses the memoized instance's cached LUT
    for _ in range(5):
        assert by_name("F3").table() is fn.table()
    assert fitness_base.TABLE_BUILDS == before
    assert before.get("F3", 0) >= 1


def test_shared_instance_threadsafe_lookup():
    seen = []

    def grab():
        seen.append(by_name("mBF7_2"))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(fn) for fn in seen}) == 1


def test_epoch_worker_reuses_shared_fitness():
    """The service's island worker rides the registry's shared instances:
    repeated archipelago chunks build each LUT at most once per process."""
    by_name("mBF6_2").table()  # pre-build, as any earlier consumer would
    before = dict(fitness_base.TABLE_BUILDS)
    params = GAParameters(
        n_generations=4, population_size=8, crossover_threshold=10,
        mutation_threshold=1, rng_seed=0x061F,
    )
    spec = {
        "chunk_gens": 4,
        "entries": [{
            "job_id": 0, "params": params_to_dict(params),
            "fitness": "mBF6_2", "population": None, "rng_state": None,
            "record_stats": True,
        }],
        "protection": None,
        "island": {"n_islands": 3, "migration_interval": 2,
                   "topology": "ring"},
    }
    for _ in range(3):
        out = run_slab_chunk(spec)
        assert out["entries"][0]["island_stats"]["islands"] == 3
    assert fitness_base.TABLE_BUILDS == before  # zero rebuilds

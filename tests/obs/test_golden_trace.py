"""Golden traces and the bit-identity contract.

The tracer must be a pure observer: a traced run emits exactly the
engine's recorded history as ``ga.generation`` events (the golden
sequence), and switching tracing on must not change a single bit of any
engine's output — serial, batched, cycle-accurate, island, or hardened.
"""

import numpy as np

from repro.core.batch import BatchBehavioralGA
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.core.system import GASystem
from repro.fitness.functions import by_name
from repro.obs import Tracer, events, get_registry, spans
from repro.obs.analyze import best_series, phase_breakdown, sum_series
from repro.parallel import VectorIslandGA
from repro.resilience import PROTECTION_PRESETS, ResilienceHarness, UpsetRates

PARAMS = GAParameters(
    n_generations=32, population_size=32,
    crossover_threshold=10, mutation_threshold=1, rng_seed=0x061F,
)
FN = by_name("mBF6_2")


def history_rows(result):
    return [
        (g.generation, g.best_fitness, g.best_individual, g.fitness_sum)
        for g in result.history
    ]


# -- golden trace ---------------------------------------------------------
def test_serial_golden_generation_sequence():
    tracer = Tracer()
    result = BehavioralGA(PARAMS, FN, tracer=tracer).run()
    evs = events(tracer.records, "ga.generation")
    assert [
        (e["generation"], e["best_fitness"], e["best_individual"], e["fitness_sum"])
        for e in evs
    ] == history_rows(result)
    (run,) = spans(tracer.records, "ga.run")
    assert run["engine"] == "behavioral" and run["seed"] == PARAMS.rng_seed
    assert all(e["parent"] == run["id"] for e in evs)
    phases = events(tracer.records, "ga.phases")
    assert len(phases) == PARAMS.n_generations
    for ev in phases:
        assert {"selection", "crossover", "mutation", "eval",
                "elitism", "record"} <= set(ev["phases"])
        assert all(v >= 0 for v in ev["phases"].values())
    assert best_series(tracer.records) == result.best_series()
    assert sum_series(tracer.records) == [g.fitness_sum for g in result.history]
    assert set(phase_breakdown(tracer.records)) == set(phases[0]["phases"])


def test_batch_golden_events_carry_per_replica_lists():
    params_list = [PARAMS.with_(rng_seed=s) for s in (0x061F, 0x2961, 45890)]
    tracer = Tracer()
    batch = BatchBehavioralGA(params_list, FN, record_members=False, tracer=tracer)
    results = batch.run()
    evs = events(tracer.records, "ga.generation")
    assert len(evs) == PARAMS.n_generations + 1
    for r, result in enumerate(results):
        stream = [e["best_fitness"][r] for e in evs]
        assert stream == result.best_series()
        assert best_series(tracer.records, replica=r) == result.best_series()


# -- bit identity: tracing on vs off --------------------------------------
def test_serial_bit_identity():
    base = BehavioralGA(PARAMS, FN)
    traced = BehavioralGA(PARAMS, FN, tracer=Tracer())
    r0, r1 = base.run(), traced.run()
    assert history_rows(r0) == history_rows(r1)
    assert (r0.best_individual, r0.best_fitness, r0.evaluations) == (
        r1.best_individual, r1.best_fitness, r1.evaluations
    )
    assert np.array_equal(base.final_population, traced.final_population)


def test_batch_bit_identity():
    params_list = [PARAMS.with_(rng_seed=s) for s in (0x061F, 0x2961)]
    base = BatchBehavioralGA(params_list, FN, record_members=False)
    traced = BatchBehavioralGA(
        params_list, FN, record_members=False, tracer=Tracer()
    )
    r0, r1 = base.run(), traced.run()
    for a, b in zip(r0, r1):
        assert history_rows(a) == history_rows(b)
        assert (a.best_individual, a.best_fitness) == (b.best_individual, b.best_fitness)
    assert np.array_equal(base.final_populations, traced.final_populations)
    assert np.array_equal(base.rng_states, traced.rng_states)


def test_cycle_accurate_bit_identity_and_trace():
    params = PARAMS.with_(n_generations=8, population_size=16)
    tracer = Tracer()
    r0 = GASystem(params, FN).run()
    r1 = GASystem(params, FN, tracer=tracer).run()
    assert history_rows(r0) == history_rows(r1)
    assert r0.cycles == r1.cycles
    evs = events(tracer.records, "cycle.generation")
    assert [
        (e["generation"], e["best_fitness"], e["best_individual"], e["fitness_sum"])
        for e in evs
    ] == history_rows(r1)
    (pc,) = events(tracer.records, "cycle.phase_cycles")
    assert sum(pc["cycles"].values()) == pc["total"] == r1.cycles
    assert pc["cycles"]["selection"] > 0 and pc["cycles"]["eval"] > 0


def test_island_bit_identity_and_epoch_spans():
    tracer = Tracer()
    base = VectorIslandGA(PARAMS, FN, n_islands=4, migration_interval=8).run()
    traced = VectorIslandGA(
        PARAMS, FN, n_islands=4, migration_interval=8, tracer=tracer
    ).run()
    assert base.best_fitness == traced.best_fitness
    assert base.island_bests == traced.island_bests
    assert base.best_per_epoch == traced.best_per_epoch
    assert base.epoch_champions == traced.epoch_champions
    epochs = spans(tracer.records, "island.epoch")
    assert [e["epoch"] for e in epochs] == [0, 1, 2, 3]
    (run,) = spans(tracer.records, "ga.run")
    assert run["engine"] == "island"
    assert all(e["parent"] == run["id"] for e in epochs)
    migrations = events(tracer.records, "island.migration")
    assert len(migrations) == 3  # no migration after the final epoch
    # the batched engine's generation events nest inside each epoch span
    gen_parents = {e["parent"] for e in events(tracer.records, "ga.generation")}
    assert gen_parents == {e["id"] for e in epochs}


# -- resilience recovery events -------------------------------------------
def test_hardened_bit_identity_and_recovery_events():
    def hardened(tracer):
        harness = ResilienceHarness(
            PROTECTION_PRESETS["hardened"], UpsetRates.uniform(2e-3),
            seed=2026, n_replicas=1, tracer=tracer,
        )
        ga = BehavioralGA(
            PARAMS, FN, record_members=False, resilience=harness, tracer=tracer
        )
        return ga.run(), harness

    corrected_before = get_registry().counter("resilience.seu_corrected").value
    r0, h0 = hardened(None)
    tracer = Tracer()
    r1, h1 = hardened(tracer)
    assert history_rows(r0) == history_rows(r1)
    assert (r0.best_individual, r0.best_fitness) == (r1.best_individual, r1.best_fitness)
    assert h0.outcomes([r0]) == h1.outcomes([r1])

    # at this upset rate the hardened preset must have corrected something
    assert int(h1.corrected[0]) > 0
    secded_events = events(tracer.records, "resilience.secded")
    assert sum(e["corrected"] for e in secded_events) == int(h1.corrected[0])
    repairs = events(tracer.records, "resilience.elite_repair")
    assert len(repairs) == int(h1.elite_repairs[0])
    # both runs (traced + untraced) bumped the process-wide counter
    corrected_after = get_registry().counter("resilience.seu_corrected").value
    assert corrected_after - corrected_before == 2 * int(h1.corrected[0])


def test_zero_rate_harness_emits_no_recovery_events():
    tracer = Tracer()
    harness = ResilienceHarness(
        PROTECTION_PRESETS["hardened"], UpsetRates.uniform(0.0),
        seed=2026, n_replicas=1, tracer=tracer,
    )
    BehavioralGA(
        PARAMS, FN, record_members=False, resilience=harness, tracer=tracer
    ).run()
    names = {r["name"] for r in tracer.records}
    assert not any(n.startswith("resilience.") for n in names)

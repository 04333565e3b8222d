"""Bit-identity of the batched sweep engine against serial runs.

The contract of :class:`repro.core.batch.BatchBehavioralGA` is strict: a
batch of N replicas must be indistinguishable — draw for draw — from N
independent :class:`BehavioralGA` runs.  The property test below checks
every observable at once: per-generation history, best individual and
fitness, FEM evaluation counts, final populations, RNG end states, and
RNG draw counts — across populations with and without a tail slot, slot
counts that are not powers of two, per-replica thresholds and fitness,
any ``step()`` chunking, and tracing on or off.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    TABLE_CACHE_BYTES,
    BatchBehavioralGA,
    class_tables,
    run_batched,
    table_cache_bytes,
)
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness import BF6, F2, F3, MBF6_2, MBF7_2
from repro.obs import NULL_TRACER, Tracer
from repro.rng.cellular_automaton import CellularAutomatonPRNG

FUNCTIONS = [BF6(), F2(), F3(), MBF6_2(), MBF7_2()]


def params(**overrides):
    base = dict(
        n_generations=8,
        population_size=16,
        crossover_threshold=10,
        mutation_threshold=2,
        rng_seed=45890,
    )
    base.update(overrides)
    return GAParameters(**base)


def assert_batch_matches_loop(
    params_list, fitnesses, record_members=True, chunks=()
):
    """Run the batch — stepped in ``chunks`` then to completion, once with
    a live tracer and once with a disabled one — and the equivalent serial
    loop; compare everything."""
    serials = []
    for p, fn in zip(params_list, fitnesses):
        serial = BehavioralGA(p, fn, record_members=record_members)
        serials.append((serial, serial.run()))
    for tracer in (Tracer(), NULL_TRACER):
        batch = BatchBehavioralGA(
            params_list, fitnesses, record_members=record_members,
            tracer=tracer,
        )
        batch.begin()
        for chunk in chunks:
            batch.step(chunk)
        batch.step()
        batch_results = batch.finalize()
        for r, (serial, expect) in enumerate(serials):
            got = batch_results[r]
            assert got.best_individual == expect.best_individual
            assert got.best_fitness == expect.best_fitness
            assert got.evaluations == expect.evaluations
            assert got.fitness_name == expect.fitness_name
            assert [g.as_tuple() for g in got.history] == [
                g.as_tuple() for g in expect.history
            ]
            if record_members:
                assert [g.fitnesses for g in got.history] == [
                    g.fitnesses for g in expect.history
                ]
            assert (
                batch.final_populations[r].tolist()
                == serial.final_population.tolist()
            )
            assert int(batch.rng_states[r]) == serial.rng.state
            assert int(batch.bank.draws[r]) == serial.rng.draws
    return batch_results


class TestBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        seeds=st.lists(st.integers(1, 0xFFFF), min_size=1, max_size=5),
        # odd populations have no tail slot; 33, 100 and 255 give slot
        # counts that are not powers of two; 256 takes all seven doublings
        pop=st.sampled_from([2, 3, 5, 16, 33, 100, 255, 256]),
        gens=st.integers(1, 8),
        classes=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            min_size=1, max_size=5,
        ),
        fn_idx=st.lists(st.integers(0, len(FUNCTIONS) - 1), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_batch_equals_serial_loop(self, seeds, pop, gens, classes, fn_idx, data):
        params_list = [
            params(
                rng_seed=s,
                population_size=pop,
                n_generations=gens,
                crossover_threshold=classes[i % len(classes)][0],
                mutation_threshold=classes[i % len(classes)][1],
            )
            for i, s in enumerate(seeds)
        ]
        fns = [FUNCTIONS[fn_idx[i % len(fn_idx)]] for i in range(len(seeds))]
        chunks = data.draw(st.lists(st.integers(1, gens), max_size=3))
        assert_batch_matches_loop(params_list, fns, chunks=chunks)

    def test_mixed_thresholds_per_replica(self):
        # replicas in one batch may use different threshold classes
        params_list = [
            params(rng_seed=s, crossover_threshold=xt, mutation_threshold=mt)
            for s, xt, mt in [(45890, 10, 2), (10593, 12, 2), (1567, 0, 15), (7, 15, 0)]
        ]
        assert_batch_matches_loop(params_list, [BF6()] * 4)

    def test_extreme_thresholds(self):
        # crossover/mutation always on and always off
        for xt, mt in [(0, 0), (15, 15), (0, 15), (15, 0)]:
            params_list = [
                params(rng_seed=s, crossover_threshold=xt, mutation_threshold=mt)
                for s in (45890, 10593)
            ]
            assert_batch_matches_loop(params_list, [F3()] * 2)

    def test_single_replica(self):
        assert_batch_matches_loop([params()], [MBF6_2()])

    def test_initial_populations_match_serial_seeding(self):
        rng = CellularAutomatonPRNG(999)
        initial = rng.block(16).astype(np.int64)
        params_list = [params(rng_seed=s) for s in (45890, 10593)]
        batch = BatchBehavioralGA(params_list, BF6())
        batch_results = batch.run(initial=np.stack([initial, initial]))
        for r, p in enumerate(params_list):
            serial = BehavioralGA(p, BF6())
            expect = serial.run(initial=initial)
            got = batch_results[r]
            assert got.best_individual == expect.best_individual
            assert got.evaluations == expect.evaluations
            assert [g.as_tuple() for g in got.history] == [
                g.as_tuple() for g in expect.history
            ]
            assert int(batch.rng_states[r]) == serial.rng.state


class TestConstruction:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchBehavioralGA([], BF6())

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            BatchBehavioralGA(
                [params(), params(population_size=8)], BF6()
            )
        with pytest.raises(ValueError):
            BatchBehavioralGA(
                [params(), params(n_generations=4)], BF6()
            )

    def test_fitness_count_must_match_replicas(self):
        with pytest.raises(ValueError):
            BatchBehavioralGA([params(), params(rng_seed=2)], [BF6()])

    def test_bad_initial_shape_rejected(self):
        batch = BatchBehavioralGA([params(), params(rng_seed=2)], BF6())
        with pytest.raises(ValueError):
            batch.run(initial=np.zeros((2, 8), dtype=np.int64))


class TestRunBatched:
    def test_results_in_input_order_across_shape_groups(self):
        # jobs deliberately interleave two (gens, pop) groups and mixed
        # fitness functions; results must come back in input order and be
        # identical to the serial loop
        jobs = [
            (params(rng_seed=45890), BF6()),
            (params(rng_seed=10593, population_size=8, n_generations=4), F2()),
            (params(rng_seed=1567), F3()),
            (params(rng_seed=77, population_size=8, n_generations=4), BF6()),
        ]
        results = run_batched(jobs, record_members=True)
        for (p, fn), got in zip(jobs, results):
            expect = BehavioralGA(p, fn).run()
            assert got.best_individual == expect.best_individual
            assert got.best_fitness == expect.best_fitness
            assert got.evaluations == expect.evaluations
            assert got.params == p
            assert [g.as_tuple() for g in got.history] == [
                g.as_tuple() for g in expect.history
            ]

    def test_record_members_off_leaves_fitnesses_empty(self):
        results = run_batched([(params(), BF6())], record_members=False)
        assert all(g.fitnesses == [] for g in results[0].history)


class TestSlabSurgery:
    def test_replace_members_reads_each_replicas_own_fitness(self):
        # four replicas over three distinct fitness tables
        fns = [BF6(), F3(), BF6(), MBF6_2()]
        batch = BatchBehavioralGA(
            [params(rng_seed=s) for s in (45890, 10593, 1567, 77)], fns
        )
        batch.begin()
        rows, cols = np.arange(4), np.array([3, 0, 5, 1])
        migrants = np.array([0x1234, 0xBEEF, 0x0F0F, 0x7FFF])
        batch.replace_members(rows, cols, migrants)
        for r, fn in enumerate(fns):
            assert batch._fits[r, cols[r]] == fn.table()[migrants[r]]
            assert (batch._fits[r] == fn.table()[batch._inds[r]]).all()


class TestTableCache:
    def test_cache_bytes_stay_under_bound_for_a_mixed_class_load(self):
        """32 slabs of 32 random threshold classes in one process — a mix
        whose per-class-set copies once grew a process by gigabytes — and
        the per-class table cache stays under its byte bound."""
        rng = np.random.default_rng(2026)
        seen = set()
        for _slab in range(32):
            codes = rng.choice(256, size=32, replace=False).tolist()
            params_list = [
                params(
                    population_size=256,
                    rng_seed=1 + i,
                    crossover_threshold=code // 16,
                    mutation_threshold=code % 16,
                )
                for i, code in enumerate(codes)
            ]
            BatchBehavioralGA(params_list, F3())
            seen.update(codes)
            assert table_cache_bytes() <= TABLE_CACHE_BYTES
        # the load really overflowed the cache: its classes alone need
        # several times the bound
        per_class = class_tables(10, 2, 7).nbytes
        assert len(seen) * per_class > 4 * TABLE_CACHE_BYTES

    def test_concurrent_lookups_keep_the_bound_and_the_tables(self, monkeypatch):
        """More threads than cores hammer a cache bounded at three classes
        with six: every lookup returns its own class's tables and the byte
        total ends under the bound."""
        from repro.core import batch as batch_module

        classes = [(xt, mt) for xt in (3, 9, 14) for mt in (1, 6)]
        reference = {c: batch_module._slot_table(*c) for c in classes}
        bound = 3 * class_tables(3, 1, 3).nbytes
        monkeypatch.setattr(batch_module, "TABLE_CACHE_BYTES", bound)
        errors = []

        def lookups(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(12):
                    c = classes[rng.integers(len(classes))]
                    tables = class_tables(*c, 3)
                    assert np.array_equal(tables.slots, reference[c])
                    assert len(tables.jumps) >= 3
            except Exception as exc:  # surfaced below, from the main thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lookups, args=(seed,)) for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert table_cache_bytes() <= bound


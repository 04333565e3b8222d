"""The checkpoint codec and the slab spill store.

The scheduler's crash-recovery state rides the resilience layer's
checkpoint codec (one encoded tuple per slab entry) inside versioned,
atomically written JSON spill files.  These tests pin the round trip at
both layers: codec encode/decode, slab payload/restore, and the store's
save/claim/discard hygiene including its tolerance for corrupt files.
"""

import io
import itertools
import json
import types

import numpy as np
import pytest

import repro
from repro.core.params import GAParameters
from repro.resilience.harden import (
    CHECKPOINT_VERSION,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.service import BatchPolicy, GARequest, RetryPolicy
from repro.service.batcher import JobRecord, Slab, restore_records
from repro.service.checkpoint import SPILL_VERSION, CheckpointStore
from repro.service.jobs import JobHandle
from repro.store import (
    KEY_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    RunStore,
    job_key,
    runstore,
)
from repro.store.replay import execute_request


def request(seed=45890, gens=16, pop=8) -> GARequest:
    return GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
        ),
        retry=RetryPolicy(max_attempts=2, backoff_s=0.01),
        priority=3,
    )


def record(seed=45890, **kw) -> JobRecord:
    req = request(seed=seed, **kw)
    return JobRecord(
        job_id=seed, request=req, handle=JobHandle(seed, req, 0.0),
        submitted_at=0.0, seq=seed,
    )


class TestCheckpointCodec:
    def test_round_trip(self):
        individuals = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        fitnesses = np.array([9, 2, 6, 5, 3], dtype=np.int64)
        encoded = encode_checkpoint(
            generation=7, individuals=individuals, fitnesses=fitnesses,
            best_individual=4, best_fitness=9, rng_state=0xBEEF,
        )
        # must survive JSON (the spill file format)
        encoded = json.loads(json.dumps(encoded))
        gen, ind, fit, best_ind, best_fit, rng_state = decode_checkpoint(encoded)
        assert gen == 7 and best_ind == 4 and best_fit == 9
        assert rng_state == 0xBEEF
        np.testing.assert_array_equal(ind, individuals)
        np.testing.assert_array_equal(fit, fitnesses)
        assert ind.dtype == np.int64

    def test_none_fields_round_trip(self):
        encoded = encode_checkpoint(
            generation=0, individuals=None, fitnesses=None,
            best_individual=0, best_fitness=-1, rng_state=None,
        )
        gen, ind, fit, _, _, rng_state = decode_checkpoint(
            json.loads(json.dumps(encoded))
        )
        assert (gen, ind, fit, rng_state) == (0, None, None, None)

    def test_version_mismatch_is_rejected(self):
        encoded = encode_checkpoint(
            generation=1, individuals=None, fitnesses=None,
            best_individual=0, best_fitness=0, rng_state=1,
        )
        encoded["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            decode_checkpoint(encoded)


class TestSlabPayloadRestore:
    def test_mid_flight_slab_round_trips(self):
        policy = BatchPolicy(admit_interval=4)
        a, b = record(seed=111, gens=16), record(seed=222, gens=12)
        # fake two completed chunks on `a`, one on `b`
        a.remaining, a.chunks, a.evaluations = 8, 2, 80
        a.population, a.rng_state = [5, 6, 7, 8, 1, 2, 3, 4], 0xAA
        a.best_individual, a.best_fitness = 7, 41
        a.stats = [(1, 2, 3), (4, 5, 6)]
        b.remaining, b.chunks, b.evaluations = 8, 1, 40
        b.population, b.rng_state = [9, 9, 9, 9, 2, 2, 2, 2], 0xBB
        slab = Slab([a, b], policy)
        payload = json.loads(json.dumps(slab.checkpoint_payload()))

        restored = restore_records(payload, itertools.count(100), now=1.5)
        assert [r.job_id for r in restored] == [111, 222]
        ra, rb = restored
        assert ra.remaining == 8 and ra.chunks == 2 and ra.evaluations == 80
        assert ra.population == a.population and ra.rng_state == 0xAA
        assert ra.best_individual == 7 and ra.best_fitness == 41
        assert ra.stats == [(1, 2, 3), (4, 5, 6)]
        assert ra.request == a.request  # retry policy, priority, ... survive
        assert rb.population == b.population
        assert ra.seq == 100 and rb.seq == 101  # fresh queue positions
        assert not ra.handle.done()

    def test_fresh_records_round_trip_with_none_population(self):
        slab = Slab([record(seed=333)], BatchPolicy())
        payload = json.loads(json.dumps(slab.checkpoint_payload()))
        (restored,) = restore_records(payload, itertools.count(), now=0.0)
        assert restored.population is None and restored.rng_state is None
        assert restored.remaining == 16


class TestCheckpointStore:
    def test_save_claim_discard_cycle(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"tag": "first", "entries": []})
        store.save(2, {"tag": "second", "entries": []})
        assert len(store.spilled()) == 2
        store.discard(1)
        assert len(store.spilled()) == 1
        payloads = store.claim_all()
        assert [p["tag"] for p in payloads] == ["second"]
        assert store.spilled() == []  # claiming consumes the files

    def test_discard_missing_is_silent(self, tmp_path):
        CheckpointStore(tmp_path).discard(999)

    def test_corrupt_and_mismatched_files_are_skipped(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path)
        store.save(1, {"entries": []})
        (tmp_path / "slab-0-7.json").write_text("{half a json")
        (tmp_path / "slab-0-8.json").write_text(
            json.dumps({"spill_version": SPILL_VERSION + 1})
        )
        with caplog.at_level("WARNING", logger="repro.service"):
            payloads = store.claim_all()
        assert len(payloads) == 1
        assert store.spilled() == []  # bad files are consumed too
        assert sum("skipping unreadable checkpoint" in r.message
                   for r in caplog.records) == 2

    def test_save_is_atomic_replace(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(5, {"entries": []})
        assert path.exists() and not list(tmp_path.glob("*.tmp"))
        data = json.loads(path.read_text())
        assert data["spill_version"] == SPILL_VERSION


def mid_flight_slab(n_entries=32, pop=256, rows=33) -> Slab:
    """A full slab between chunks: carried populations, RNG positions and
    ``stats`` rows as the tuples the workers hand back."""
    rng = np.random.default_rng(5)
    records = []
    for i in range(n_entries):
        rec = record(seed=1000 + i, gens=64, pop=pop)
        rec.remaining, rec.chunks, rec.evaluations = 31, 2, pop * rows
        rec.population = rng.integers(0, 1 << 16, pop).tolist()
        rec.rng_state = int(rng.integers(1, 1 << 31))
        rec.best_individual, rec.best_fitness = 77, 65000
        rec.stats = [
            tuple(int(v) for v in rng.integers(0, 1 << 20, 3))
            for _ in range(rows)
        ]
        records.append(rec)
    return Slab(records, BatchPolicy())


class TestDurableWriter:
    """Both durable writes run the C encoder and keep their bytes."""

    def test_writes_skip_the_python_encoder_and_keep_json_dump_bytes(
        self, tmp_path, monkeypatch
    ):
        payload = mid_flight_slab().checkpoint_payload()
        assert isinstance(payload["entries"][0]["stats"][0], tuple)
        req = request(seed=0x061F, gens=16, pop=16)
        result = execute_request(req)
        monkeypatch.setattr(
            runstore, "time", types.SimpleNamespace(time=lambda: 1234.5)
        )
        entry = {
            "store_version": STORE_SCHEMA_VERSION,
            "key": job_key(req),
            "request": req.to_dict(),
            "result": result.to_dict(),
            "provenance": {
                "key_schema": KEY_SCHEMA_VERSION,
                "repro_version": repro.__version__,
                "fitness_name": req.fitness_name,
                "created_unix": 1234.5,
                "compute_s": 0.25,
                "source": "service",
            },
        }
        expected_spill, expected_entry = io.StringIO(), io.StringIO()
        json.dump({"spill_version": SPILL_VERSION, **payload}, expected_spill)
        json.dump(entry, expected_entry)

        def python_encoder(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        with pytest.raises(AssertionError, match="pure-Python"):
            json.dump(payload, io.StringIO())  # the patch guards json.dump

        spill = CheckpointStore(tmp_path / "spill").save(3, payload)
        assert spill.read_text() == expected_spill.getvalue()
        store = RunStore(tmp_path / "store")
        key = store.put(req, result, compute_s=0.25, source="service")
        assert store.path_for(key).read_text() == expected_entry.getvalue()

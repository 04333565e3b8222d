"""The persistent run store: round trips, atomicity, verify, gc."""

import json
import os
import subprocess

import pytest

from repro.core.params import GAParameters
from repro.service.jobs import GARequest
from repro.store import RunStore, job_key
from repro.store.replay import execute_request


def make_request(seed=0x061F, gens=16, pop=8):
    return GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
        ),
        fitness_name="mBF6_2",
    )


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


def test_put_get_round_trip(store):
    request = make_request()
    result = execute_request(request)
    key = store.put(request, result, compute_s=0.5, source="test")
    assert key == job_key(request)
    assert store.has(key) and len(store) == 1

    entry = store.get(key)
    assert entry is not None
    assert entry.key == key
    assert entry.request == request
    assert entry.result.to_dict() == result.to_dict()
    assert entry.provenance["source"] == "test"
    assert entry.provenance["compute_s"] == 0.5
    assert "repro_version" in entry.provenance
    assert store.get_result(key).best_fitness == result.best_fitness


def test_miss_and_unreadable_return_none(store):
    assert store.get("0" * 64) is None
    request = make_request()
    key = store.put(request, execute_request(request))
    store.path_for(key).write_text("{ not json")
    assert store.get(key) is None  # unreadable, not an exception


def test_put_is_atomic_no_tmp_left_behind(store):
    request = make_request()
    store.put(request, execute_request(request))
    assert not list(store.objects.glob("*.tmp"))


def test_concurrent_writers_of_one_key_both_land(store, monkeypatch):
    """A second writer that puts the same key between the first writer's
    temp-file write and its rename must not move the first one's temp
    file: both renames land, and the entry parses."""
    request = make_request()
    result = execute_request(request)
    real_replace = os.replace
    sources = []

    def replace(src, dst):
        sources.append(src)
        if len(sources) == 1:
            store.put(request, result, source="second")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    key = store.put(request, result, source="first")
    assert len(sources) == 2 and sources[0] != sources[1]
    assert store.get(key).provenance["source"] == "first"  # renamed last
    assert not list(store.objects.glob("*.tmp"))


def test_wrong_store_version_rejected(store):
    request = make_request()
    key = store.put(request, execute_request(request))
    payload = json.loads(store.path_for(key).read_text())
    payload["store_version"] = 999
    store.path_for(key).write_text(json.dumps(payload))
    assert store.get(key) is None


def test_verify_flags_corrupt_and_miskeyed(store):
    good = make_request(seed=0x1111)
    store.put(good, execute_request(good))
    other = make_request(seed=0x2222)
    okey = store.put(other, execute_request(other))
    # re-file the second entry under a wrong name: content no longer
    # hashes to its address
    bad_key = "f" * 64
    os.rename(store.path_for(okey), store.path_for(bad_key))
    payloads = {row["key"]: row for row in store.verify()}
    assert payloads[job_key(good)]["ok"]
    assert not payloads[bad_key]["ok"]


def test_gc_removes_tmp_corrupt_and_orphaned_spills(store):
    good = make_request(seed=0x3333)
    store.put(good, execute_request(good))
    (store.objects / "leftover.tmp").write_text("partial")
    store.path_for("a" * 64).write_text("garbage")

    spill = store.root / "spill"
    spill.mkdir()
    # a spill from a process that certainly exited
    proc = subprocess.Popen(["true"])
    proc.wait()
    (spill / f"slab-{proc.pid}-7.json").write_text("{}")
    # and one from this (alive) process: must survive
    (spill / f"slab-{os.getpid()}-8.json").write_text("{}")

    removed = store.gc()
    assert removed["tmp"] == 1
    assert removed["corrupt"] == 1
    assert removed["spills"] == 1
    assert store.keys() == [job_key(good)]
    assert (spill / f"slab-{os.getpid()}-8.json").exists()

    removed = store.gc(all_spills=True)
    assert removed["spills"] == 1
    assert not list(spill.glob("slab-*.json"))


def test_checkpoint_store_lives_under_store_root(store):
    ckpt = store.checkpoint_store()
    ckpt.save(3, {"version": 1, "entries": []})
    assert list((store.root / "spill").glob("slab-*.json"))

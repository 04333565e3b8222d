"""Golden-run regression suite: every committed zoo golden replays bit-identically.

Each golden under ``src/repro/experiments/goldens/`` pins one scenario's
repeat-0 run: the request, its content-addressed store key, the full
deterministic result, and the result's canonical digest.  These tests
re-execute every scenario through the ``repro replay`` machinery and
assert byte-identity — across the behavioural engine, the
archipelago, the cycle-accurate testbench, and the dual-core 32-bit
substrate.  Any engine change that moves a single bit of any zoo
workload's outcome fails here (and the failure artifact names the field).
"""

import hashlib
import json

import pytest

from repro.experiments.zoo import (
    GOLDEN_SCHEMA_VERSION,
    SCENARIOS,
    golden_path,
    make_golden,
)
from repro.service.jobs import GARequest, JobResult
from repro.store.keys import (
    canonical_json,
    canonical_result_dict,
    job_key,
    results_identical,
)
from repro.store.replay import execute_request, replay
from repro.store.runstore import RunStore


def load_golden(name: str) -> dict:
    path = golden_path(name)
    assert path.exists(), (
        f"missing committed golden {path}; regenerate with "
        "`python -m repro.experiments.zoo`"
    )
    return json.loads(path.read_text())


def test_every_scenario_has_a_committed_golden():
    for name in SCENARIOS:
        golden = load_golden(name)
        assert golden["schema"] == GOLDEN_SCHEMA_VERSION
        assert golden["scenario"] == name


def test_goldens_have_no_stray_files():
    committed = {p.stem for p in golden_path("x").parent.glob("*.json")}
    assert committed == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_replays_bit_identically(name):
    golden = load_golden(name)
    scenario = SCENARIOS[name]
    request = GARequest.from_dict(golden["request"])

    # the committed request is the scenario's request (zoo drift guard)
    assert request == scenario.request
    # the committed key matches the live key schema
    assert golden["store_key"] == job_key(request)

    fresh = execute_request(request)
    stored = JobResult.from_dict(golden["result"])
    assert results_identical(fresh, stored), (
        f"zoo scenario {name!r} no longer reproduces its committed golden"
    )
    assert fresh.best_fitness == stored.best_fitness
    assert fresh.best_individual == stored.best_individual

    digest = hashlib.sha256(
        canonical_json(canonical_result_dict(fresh)).encode()
    ).hexdigest()
    assert digest == golden["result_digest"]


@pytest.mark.parametrize("name", ["seq-counter", "seq-archipelago"])
def test_golden_through_repro_replay(tmp_path, name):
    """The CLI path: seed a store with the golden, `repro replay` it."""
    golden = load_golden(name)
    request = GARequest.from_dict(golden["request"])
    store = RunStore(tmp_path / "store")
    store.put(request, JobResult.from_dict(golden["result"]), source="golden")

    report = replay(store, golden["store_key"])
    assert report.identical, report.mismatched_fields
    assert report.verdict == "bit-identical"


def test_make_golden_is_deterministic():
    scenario = SCENARIOS["seq-counter"]
    assert make_golden(scenario) == make_golden(scenario)


def test_substrate_goldens_carry_substrate_stats():
    cycle = load_golden("seq-cycle")
    assert cycle["result"]["substrate_stats"]["substrate"] == "cycle"
    assert cycle["result"]["substrate_stats"]["cycles"] > 0
    dual = load_golden("mux6-dual32")
    assert dual["result"]["substrate_stats"] == {
        "substrate": "dual32",
        "width": 32,
    }
    # 32-bit champion actually uses the upper half
    assert dual["result"]["best_individual"] > 0xFFFF

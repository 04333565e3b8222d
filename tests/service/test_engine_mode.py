"""The retired engine-mode wire field.

Every job runs the one exact engine.  A wire payload or spilled slab
checkpoint that still asks for the retired vectorised mode fails with a
named error instead of silently running something else, while the
``"exact"`` an old client sends parses as before.
"""

import itertools
import json
import threading
import time

import pytest

from repro.core.params import GAParameters
from repro.service import (
    BatchPolicy,
    CheckpointStore,
    GAService,
    RetiredEngineModeError,
    ServiceTCPServer,
    Slab,
)
from repro.service.batcher import JobRecord, restore_records
from repro.service.jobs import GARequest, JobHandle
from repro.service.server import call, error_kind

PARAMS = GAParameters(
    n_generations=16, population_size=16,
    crossover_threshold=12, mutation_threshold=1, rng_seed=0x061F,
)


def _payload(**extra) -> dict:
    data = GARequest(params=PARAMS).to_dict()
    data.update(extra)
    return data


def _spilled_payload(seed: int) -> dict:
    request = GARequest(params=PARAMS.with_(rng_seed=seed))
    record = JobRecord(
        job_id=seed, request=request,
        handle=JobHandle(seed, request, time.time()),
        submitted_at=time.time(), seq=0,
    )
    record.remaining = PARAMS.n_generations
    return json.loads(json.dumps(Slab([record], BatchPolicy()).checkpoint_payload()))


def test_engine_mode_defaults_to_exact_for_old_clients():
    # a payload from before the field existed and one from a client that
    # still sends "exact" are the same request, which no longer names it
    plain = GARequest.from_dict(_payload())
    assert GARequest.from_dict(_payload(engine_mode="exact")) == plain
    assert "engine_mode" not in plain.to_dict()


def test_unknown_engine_mode_rejected():
    for mode in ("turbo", "warp"):
        with pytest.raises(RetiredEngineModeError, match="engine_mode"):
            GARequest.from_dict(_payload(engine_mode=mode))


def test_retired_mode_is_a_named_error_over_tcp():
    with GAService(workers=1, mode="thread") as service:
        server = ServiceTCPServer(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            response = call(
                *server.endpoint,
                {"op": "submit", "job": _payload(engine_mode="turbo")},
                timeout=30,
            )
        finally:
            server.shutdown()
            server.server_close()
    assert error_kind(response) == "RetiredEngineModeError"


def test_spilled_turbo_checkpoint_rejected():
    slab_level = _spilled_payload(0x2961)
    slab_level["engine_mode"] = "turbo"
    with pytest.raises(RetiredEngineModeError):
        restore_records(slab_level, itertools.count(), now=0.0)
    job_level = _spilled_payload(0x2961)
    job_level["entries"][0]["request"]["engine_mode"] = "turbo"
    with pytest.raises(RetiredEngineModeError):
        restore_records(job_level, itertools.count(), now=0.0)
    # the "exact" an older build spilled still resumes
    old_exact = _spilled_payload(0x2961)
    old_exact["engine_mode"] = "exact"
    (record,) = restore_records(old_exact, itertools.count(), now=0.0)
    assert record.request.params.rng_seed == 0x2961


def test_resume_skips_a_retired_checkpoint_and_keeps_the_rest(tmp_path):
    store = CheckpointStore(tmp_path)
    retired = _spilled_payload(0x2961)
    retired["engine_mode"] = "turbo"
    store.save(1, retired)
    store.save(2, _spilled_payload(0x7B41))
    with GAService(
        workers=1, mode="thread", spill_dir=tmp_path, resume=True
    ) as service:
        (handle,) = service.resumed_handles
        assert handle.result(timeout=60).job_id == 0x7B41
    assert store.spilled() == []

"""Differential conformance + the acceptance-criteria reconstruction.

One seeded problem goes through every execution surface — the serial
engine, the batched engine, and the full service path (thread-mode
workers, chunked continuous batching) — each with tracing armed.  The
per-generation best-fitness streams *extracted from the traces* must be
identical across all three, proving the trace stream carries the engine's
exact semantics through every layer.

The acceptance test then replays the issue's criterion end to end: a
``repro trace`` invocation on a seeded BF6 run must emit a JSON-lines
trace from which the Fig. 8 convergence data and a phase breakdown are
reconstructed automatically.
"""

import json

from repro.cli import main
from repro.core.batch import BatchBehavioralGA
from repro.core.behavioral import BehavioralGA
from repro.core.params import GAParameters
from repro.fitness.functions import by_name
from repro.obs import (
    Tracer,
    best_series,
    phase_breakdown,
    read_trace,
    service_best_streams,
    spans,
    sum_series,
    use_tracer,
)
from repro.service import BatchPolicy, GARequest, GAService

PARAMS = GAParameters(
    n_generations=40, population_size=32,
    crossover_threshold=10, mutation_threshold=1, rng_seed=0x061F,
)
FN = by_name("mBF6_2")


def test_differential_conformance_across_engines_and_service():
    # surface 1: serial engine, traced
    serial_tracer = Tracer()
    serial_result = BehavioralGA(
        PARAMS, FN, record_members=False, tracer=serial_tracer
    ).run()
    serial_stream = best_series(serial_tracer.records)

    # surface 2: batched engine (the job rides replica 1 of 3), traced
    batch_tracer = Tracer()
    params_list = [PARAMS.with_(rng_seed=s) for s in (0x2961, 0x061F, 45890)]
    BatchBehavioralGA(
        params_list, FN, record_members=False, tracer=batch_tracer
    ).run()
    batch_stream = best_series(batch_tracer.records, replica=1)

    # surface 3: the service path — thread-mode workers share the process
    # tracer, a small admit interval forces multiple chunks per job
    service_tracer = Tracer()
    request = GARequest(params=PARAMS, fitness_name=FN.name)
    decoys = [
        GARequest(params=PARAMS.with_(rng_seed=s), fitness_name=FN.name)
        for s in (0x2961, 45890)
    ]
    policy = BatchPolicy(max_batch=4, admit_interval=8)
    with use_tracer(service_tracer):
        with GAService(workers=2, mode="thread", policy=policy) as service:
            results = service.run_all([request] + decoys, timeout=60)
    job_id = results[0].job_id
    assert results[0].n_chunks > 1  # chunking really happened
    streams = service_best_streams(service_tracer.records)
    service_stream = streams[job_id]

    expected = serial_result.best_series()
    assert len(expected) == PARAMS.n_generations + 1
    assert serial_stream == expected
    assert batch_stream == expected
    assert service_stream == expected

    # the decoy jobs' spliced streams match their own solo runs too
    for decoy, result in zip(decoys, results[1:]):
        solo = BehavioralGA(decoy.params, FN, record_members=False).run()
        assert streams[result.job_id] == solo.best_series()


def test_service_chunk_spans_name_their_jobs():
    tracer = Tracer()
    request = GARequest(params=PARAMS.with_(n_generations=12), fitness_name=FN.name)
    policy = BatchPolicy(max_batch=2, admit_interval=6)
    with use_tracer(tracer):
        with GAService(workers=1, mode="thread", policy=policy) as service:
            (result,) = service.run_all([request], timeout=60)
    chunks = spans(tracer.records, "service.chunk")
    assert len(chunks) == result.n_chunks
    for chunk in chunks:
        assert result.job_id in chunk["job_ids"]
        assert chunk["dur"] > 0


def test_acceptance_repro_trace_reconstructs_fig8_and_phases(tmp_path, capsys):
    """The issue's acceptance criterion, end to end through the CLI."""
    out = tmp_path / "bf6.jsonl"
    rc = main([
        "trace", "--fitness", "mBF6_2", "--pop", "64", "--gens", "64",
        "--seed", "0x061F", "--out", str(out),
    ])
    assert rc == 0
    records = read_trace(str(out))
    for record in records:
        json.dumps(record)  # every line is a JSON object

    # Fig. 8 data: per-generation best and sum-of-fitness curves
    best = best_series(records)
    sums = sum_series(records)
    assert len(best) == len(sums) == 65
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))  # elitist: monotone
    # cross-check against a direct engine run of the same seed
    direct = BehavioralGA(
        GAParameters(
            n_generations=64, population_size=64,
            crossover_threshold=10, mutation_threshold=1, rng_seed=0x061F,
        ),
        FN, record_members=False,
    ).run()
    assert best == direct.best_series()
    assert sums == [g.fitness_sum for g in direct.history]

    # phase breakdown: every behavioural phase present with positive time
    breakdown = phase_breakdown(records)
    for phase in ("selection", "crossover", "mutation", "eval", "elitism", "record"):
        assert breakdown[phase] > 0
    err = capsys.readouterr().err
    assert "best-fitness series" in err and "selection" in err


def test_cli_stats_local_demo_reports_engine_rates(capsys):
    rc = main(["stats", "--pop", "16", "--gens", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    snapshot = json.loads(out)
    assert snapshot["counters"]["engine.runs"] >= 1
    assert snapshot["engine_rates"]["generations_per_s"] >= 0
    assert "engine.run_seconds" in snapshot["histograms"]


def test_cli_run_trace_out_flag(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    rc = main([
        "run", "--fitness", "F3", "--pop", "16", "--gens", "8",
        "--seed", "45890", "--trace-out", str(out),
    ])
    assert rc == 0
    records = read_trace(str(out))
    assert len(best_series(records)) == 9
    assert "F3: best" in capsys.readouterr().out

"""Metrics registry: instruments, percentile edge cases, concurrency.

Includes the ServiceMetrics edge-case tests the issue calls out (p50/p95
with zero and one latency sample must be well-defined, not NaN or an
IndexError) and a concurrency test hammering one registry from the same
thread pool the serving layer uses for slab chunks.
"""

import concurrent.futures
import json

import pytest

from repro.core.params import GAParameters
from repro.obs import (
    MetricsRegistry,
    engine_rates,
    get_registry,
    percentile,
    record_engine_run,
)
from repro.service import BatchPolicy, GARequest, GAService
from repro.service.metrics import ServiceMetrics
from repro.service.metrics import percentile as service_percentile


# -- percentile edge cases ------------------------------------------------
def test_percentile_empty_is_zero():
    for q in (0, 50, 95, 100):
        assert percentile([], q) == 0.0


def test_percentile_single_sample_is_itself():
    for q in (0, 50, 95, 100):
        assert percentile([7.5], q) == 7.5


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0


def test_service_metrics_reexports_percentile():
    # historical import path used by older analysis snippets
    assert service_percentile is percentile


# -- instruments ----------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.counter("c") is c  # get-or-create is idempotent

    g = reg.gauge("g")
    g.set(3)
    g.set(1)
    assert g.value == 1 and g.max == 3

    h = reg.histogram("h")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    assert h.count == 3 and h.sum == 6.0 and h.max == 3.0
    assert h.mean == 2.0 and h.quantile(50) == 2.0


def test_histogram_summary_empty_and_single():
    reg = MetricsRegistry()
    empty = reg.histogram("empty").summary()
    assert empty == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    h = reg.histogram("one")
    h.observe(0.25)
    single = h.summary()
    assert single["count"] == 1
    assert single["mean"] == single["p50"] == single["p95"] == single["max"] == 0.25


def test_histogram_reservoir_caps_samples_but_not_totals():
    reg = MetricsRegistry()
    h = reg.histogram("capped", max_samples=10)
    for i in range(25):
        h.observe(float(i))
    assert len(h.samples) == 10
    assert h.count == 25 and h.sum == sum(range(25)) and h.max == 24.0


def test_snapshot_shape_and_reset():
    reg = MetricsRegistry()
    reg.counter("a").inc(2)
    reg.gauge("b").set(7)
    reg.histogram("c").observe(1.0)
    snap = reg.snapshot()
    json.dumps(snap)
    assert snap["counters"] == {"a": 2}
    assert snap["gauges"]["b"] == {"value": 7, "max": 7}
    assert snap["histograms"]["c"]["count"] == 1
    assert snap["uptime_s"] >= 0
    reg.reset()
    snap = reg.snapshot()
    assert snap["counters"] == {} and snap["gauges"] == {} and snap["histograms"] == {}


def test_record_engine_run_and_rates():
    reg = MetricsRegistry()
    record_engine_run(64, 1024, 0.5, registry=reg)
    record_engine_run(32, 512, 0.25, registry=reg)
    assert reg.counter("engine.runs").value == 2
    assert reg.counter("engine.generations").value == 96
    assert reg.counter("engine.evaluations").value == 1536
    assert reg.histogram("engine.run_seconds").count == 2
    rates = engine_rates(registry=reg)
    assert rates["runs"] == 2
    assert rates["generations_per_s"] > 0


def test_record_archipelago_run_and_rates():
    from repro.obs import archipelago_rates, record_archipelago_run

    reg = MetricsRegistry()
    record_archipelago_run(256, 64, 8, 256 * 7, 0.5, registry=reg)
    record_archipelago_run(4, 16, 2, 4, 0.1, registry=reg)
    assert reg.counter("island.runs").value == 2
    assert reg.counter("island.islands").value == 260
    assert reg.counter("island.island_generations").value == 256 * 64 + 64
    assert reg.counter("island.epochs").value == 10
    assert reg.counter("island.migrations").value == 256 * 7 + 4
    assert reg.histogram("island.run_seconds").count == 2
    rates = archipelago_rates(registry=reg)
    assert rates["runs"] == 2
    assert rates["islands"] == 260
    assert rates["migrations"] == 256 * 7 + 4
    assert rates["island_generations_per_s"] > 0


def test_archipelago_run_records_into_default_registry():
    from repro.obs import REGISTRY, archipelago_rates
    from repro.core.params import GAParameters
    from repro.fitness.functions import by_name
    from repro.parallel import VectorIslandGA

    before = REGISTRY.counter("island.runs").value
    VectorIslandGA(
        GAParameters(
            n_generations=6, population_size=8, crossover_threshold=10,
            mutation_threshold=2, rng_seed=3,
        ),
        by_name("F3"),
        n_islands=3,
        migration_interval=3,
    ).run()
    assert REGISTRY.counter("island.runs").value == before + 1
    assert archipelago_rates()["runs"] >= 1


# -- concurrency ----------------------------------------------------------
def test_registry_totals_exact_under_thread_hammering():
    reg = MetricsRegistry()
    n_threads, per_thread = 8, 2000

    def hammer(k):
        c = reg.counter("hits")
        h = reg.histogram("lat")
        g = reg.gauge("depth")
        for i in range(per_thread):
            c.inc()
            h.observe(float(i))
            g.set(i)

    with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(hammer, range(n_threads)))
    assert reg.counter("hits").value == n_threads * per_thread
    assert reg.histogram("lat").count == n_threads * per_thread
    assert reg.gauge("depth").max == per_thread - 1


def test_slab_chunk_profile_recorded_from_worker_pool_threads():
    """Thread-mode service workers record chunk timings into the process
    registry concurrently; every dispatched chunk must land exactly once."""
    hist = get_registry().histogram("profile.service.slab_chunk")
    before = hist.count
    jobs = [
        GARequest(
            params=GAParameters(
                n_generations=24, population_size=16,
                crossover_threshold=10, mutation_threshold=1, rng_seed=seed,
            ),
            fitness_name="mBF6_2",
        )
        for seed in (45890, 10593, 1567, 777)
    ]
    policy = BatchPolicy(max_batch=2, admit_interval=6)
    with GAService(workers=3, mode="thread", policy=policy) as service:
        service.run_all(jobs, timeout=60)
        chunks = service.metrics.chunks
    assert chunks > 0
    assert hist.count - before == chunks


# -- ServiceMetrics on its private registry -------------------------------
def test_service_metrics_latency_percentiles_no_samples():
    metrics = ServiceMetrics(max_batch=4)
    snap = metrics.snapshot()
    lat = snap["latency"]
    assert lat["p50_ms"] == lat["p95_ms"] == lat["max_ms"] == 0.0
    assert lat["mean_wait_ms"] == 0.0
    assert snap["batching"]["mean_occupancy"] == 0.0
    json.dumps(snap)


def test_service_metrics_latency_percentiles_single_sample():
    metrics = ServiceMetrics(max_batch=4)
    metrics.job_completed(latency_s=0.050, wait_s=0.010)
    lat = metrics.snapshot()["latency"]
    assert lat["p50_ms"] == lat["p95_ms"] == lat["max_ms"] == pytest.approx(50.0)
    assert lat["mean_wait_ms"] == pytest.approx(10.0)


def test_service_metrics_public_surface_matches_recorded_activity():
    metrics = ServiceMetrics(max_batch=8)
    metrics.job_submitted(depth=3)
    metrics.job_submitted(depth=5)
    metrics.job_rejected()
    metrics.chunk_dispatched(n_entries=4)
    metrics.chunk_dispatched(n_entries=8)
    assert metrics.generations_executed == 0  # counted when chunks land
    metrics.chunk_completed(n_entries=4, chunk_gens=16)
    metrics.chunk_completed(n_entries=8, chunk_gens=16)
    metrics.queue_drained_to(1)
    metrics.job_completed(latency_s=0.2, wait_s=0.1)
    metrics.job_failed()
    assert metrics.submitted == 2
    assert metrics.rejected == 1
    assert metrics.completed == 1
    assert metrics.failed == 1
    assert metrics.chunks == 2
    assert metrics.queue_depth == 1 and metrics.max_queue_depth == 5
    assert metrics.max_occupancy == 8
    assert metrics.chunk_occupancy_sum == pytest.approx(4 / 8 + 8 / 8)
    assert metrics.generations_executed == (4 + 8) * 16
    assert metrics.latencies_s == [0.2] and metrics.waits_s == [0.1]
    snap = metrics.snapshot()
    assert snap["jobs"] == {
        "submitted": 2, "completed": 1, "failed": 1, "rejected": 1, "pending": 1,
    }
    assert snap["batching"]["chunks"] == 2
    assert snap["batching"]["mean_occupancy"] == pytest.approx(0.75)


def test_independent_service_metrics_do_not_share_state():
    a, b = ServiceMetrics(), ServiceMetrics()
    a.job_rejected()
    assert a.rejected == 1 and b.rejected == 0
    assert a.registry is not b.registry


def test_to_json_writes_file(tmp_path):
    metrics = ServiceMetrics()
    path = tmp_path / "metrics.json"
    text = metrics.to_json(str(path))
    assert json.loads(text)["jobs"]["submitted"] == 0
    assert json.loads(path.read_text())["jobs"]["submitted"] == 0

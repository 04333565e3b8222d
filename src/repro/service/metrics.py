"""Service metrics: queue depth, batch occupancy, latency, throughput.

One :class:`ServiceMetrics` instance rides along the whole service stack;
every touchpoint (submit, dispatch, chunk completion, job completion)
records into it, and :meth:`snapshot` renders the JSON-ready view that
``bench_service_throughput.py`` dumps into ``BENCH_results.json`` and
``repro serve`` exposes over the wire.

Since the observability layer landed, the counters/gauges/histograms live
in a private :class:`~repro.obs.metrics.MetricsRegistry` (private so that
independent service instances — and tests asserting exact totals — never
share state with the process-wide engine registry).  The public surface is
unchanged: the same recording hooks, the same readable attributes
(``submitted`` … ``generations_executed``, ``latencies_s``/``waits_s``),
and a :meth:`snapshot` with the same key structure.
"""

from __future__ import annotations

import json
import time

from repro.obs.metrics import MetricsRegistry, percentile

__all__ = ["ServiceMetrics", "percentile"]


class ServiceMetrics:
    """Thread-safe counters and gauges for one service lifetime."""

    #: cap on per-job latency samples kept for the percentile estimates
    MAX_SAMPLES = 100_000

    def __init__(self, max_batch: int = 1):
        self.max_batch = max(1, max_batch)
        reg = self._registry = MetricsRegistry()
        self._submitted = reg.counter("service.jobs.submitted")
        self._completed = reg.counter("service.jobs.completed")
        self._failed = reg.counter("service.jobs.failed")
        self._rejected = reg.counter("service.jobs.rejected")
        self._chunks = reg.counter("service.chunks")
        self._occupancy_sum = reg.counter("service.chunk_occupancy_sum")
        self._generations = reg.counter("service.generations_executed")
        self._queue = reg.gauge("service.queue_depth")
        self._occupancy = reg.gauge("service.chunk_occupancy")
        self._latency = reg.histogram(
            "service.job_latency_s", max_samples=self.MAX_SAMPLES
        )
        self._wait = reg.histogram(
            "service.job_wait_s", max_samples=self.MAX_SAMPLES
        )
        # fault-tolerance instruments (retry / watchdog / shedding /
        # checkpoint-resume; see docs/architecture.md "Fault tolerance")
        self._shed = reg.counter("service.jobs.shed")
        self._cancelled = reg.counter("service.jobs.cancelled")
        self._deadline_enforced = reg.counter("service.jobs.deadline_enforced")
        self._retries = reg.counter("service.chunks.retried")
        self._timeouts = reg.counter("service.chunks.timed_out")
        self._respawns = reg.counter("service.pool.respawns")
        self._checkpoints = reg.counter("service.slabs.checkpointed")
        self._resumed = reg.counter("service.jobs.resumed")
        self._dropped_connections = reg.counter(
            "service.connections.dropped"
        )
        self._recovery = reg.histogram(
            "service.recovery_latency_s", max_samples=self.MAX_SAMPLES
        )
        # run-store cache instruments (admission lookups, in-flight
        # coalescing, completion write-backs; see docs/architecture.md
        # "Content-addressed run store")
        self._cache_hits = reg.counter("service.cache.hits")
        self._cache_misses = reg.counter("service.cache.misses")
        self._coalesced = reg.counter("service.cache.coalesced")
        self._cache_writes = reg.counter("service.cache.writes")

    # -- recording hooks ------------------------------------------------
    def job_submitted(self, depth: int) -> None:
        self._submitted.inc()
        self._queue.set(depth)

    def job_rejected(self) -> None:
        self._rejected.inc()

    def queue_drained_to(self, depth: int) -> None:
        self._queue.set(depth)

    def chunk_dispatched(self, n_entries: int) -> None:
        self._chunks.inc()
        self._occupancy_sum.inc(n_entries / self.max_batch)
        self._occupancy.set(n_entries)

    def chunk_completed(self, n_entries: int, chunk_gens: int) -> None:
        """A chunk landed: its generations count as executed (a lost and
        retried chunk counts once, when it finally lands)."""
        self._generations.inc(n_entries * chunk_gens)

    def job_completed(self, latency_s: float, wait_s: float) -> None:
        self._completed.inc()
        self._latency.observe(latency_s)
        self._wait.observe(wait_s)

    def job_failed(self) -> None:
        self._failed.inc()

    def job_shed(self) -> None:
        self._shed.inc()

    def job_cancelled(self) -> None:
        self._cancelled.inc()

    def job_deadline_enforced(self) -> None:
        self._deadline_enforced.inc()

    def chunk_retried(self) -> None:
        self._retries.inc()

    def chunk_timed_out(self) -> None:
        self._timeouts.inc()

    def pool_respawned(self) -> None:
        self._respawns.inc()

    def slab_checkpointed(self) -> None:
        self._checkpoints.inc()

    def jobs_resumed(self, n_jobs: int) -> None:
        self._resumed.inc(n_jobs)

    def connection_dropped(self) -> None:
        self._dropped_connections.inc()

    def cache_hit(self) -> None:
        """A submission was served straight from the run store."""
        self._cache_hits.inc()

    def cache_miss(self) -> None:
        """A store lookup found nothing; the job runs cold."""
        self._cache_misses.inc()

    def job_coalesced(self) -> None:
        """A duplicate submission rode an identical in-flight job."""
        self._coalesced.inc()

    def cache_written(self) -> None:
        """A completed result was written back to the run store."""
        self._cache_writes.inc()

    def chunk_recovered(self, recovery_latency_s: float) -> None:
        """A previously failed slab completed a chunk again; the latency
        runs from the first unrecovered failure to this success."""
        self._recovery.observe(recovery_latency_s)

    # -- readable attributes (the pre-registry public surface) ----------
    @property
    def started_at(self) -> float:
        return self._registry.started_at

    @property
    def submitted(self) -> int:
        return self._submitted.value

    @property
    def completed(self) -> int:
        return self._completed.value

    @property
    def failed(self) -> int:
        return self._failed.value

    @property
    def rejected(self) -> int:
        return self._rejected.value

    @property
    def queue_depth(self) -> int:
        return int(self._queue.value)

    @property
    def max_queue_depth(self) -> int:
        return int(self._queue.max)

    @property
    def chunks(self) -> int:
        return self._chunks.value

    @property
    def chunk_occupancy_sum(self) -> float:
        return float(self._occupancy_sum.value)

    @property
    def max_occupancy(self) -> int:
        return int(self._occupancy.max)

    @property
    def generations_executed(self) -> int:
        return self._generations.value

    @property
    def shed(self) -> int:
        return self._shed.value

    @property
    def cancelled(self) -> int:
        return self._cancelled.value

    @property
    def deadline_enforced(self) -> int:
        return self._deadline_enforced.value

    @property
    def retries(self) -> int:
        return self._retries.value

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def respawns(self) -> int:
        return self._respawns.value

    @property
    def checkpoints(self) -> int:
        return self._checkpoints.value

    @property
    def resumed(self) -> int:
        return self._resumed.value

    @property
    def dropped_connections(self) -> int:
        return self._dropped_connections.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def cache_misses(self) -> int:
        return self._cache_misses.value

    @property
    def coalesced(self) -> int:
        return self._coalesced.value

    @property
    def cache_writes(self) -> int:
        return self._cache_writes.value

    @property
    def latencies_s(self) -> list[float]:
        return self._latency.samples

    @property
    def waits_s(self) -> list[float]:
        return self._wait.samples

    @property
    def registry(self) -> MetricsRegistry:
        """The backing (private) registry, for raw-instrument access."""
        return self._registry

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict:
        """The full service state as a plain JSON-serializable dict."""
        uptime = max(time.monotonic() - self.started_at, 1e-9)
        lat = self._latency.summary()
        rec = self._recovery.summary()
        chunks = self.chunks
        return {
            "uptime_s": round(uptime, 3),
            "jobs": {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "pending": self.queue_depth,
            },
            "queue": {
                "depth": self.queue_depth,
                "max_depth": self.max_queue_depth,
            },
            "batching": {
                "chunks": chunks,
                "max_batch": self.max_batch,
                "mean_occupancy": round(self.chunk_occupancy_sum / chunks, 4)
                if chunks
                else 0.0,
                "max_occupancy": self.max_occupancy,
            },
            "latency": {
                "p50_ms": round(lat["p50"] * 1e3, 3),
                "p95_ms": round(lat["p95"] * 1e3, 3),
                "max_ms": round(lat["max"] * 1e3, 3),
                "mean_wait_ms": round(self._wait.mean * 1e3, 3),
            },
            "throughput": {
                "jobs_per_s": round(self.completed / uptime, 3),
                "generations_per_s": round(
                    self.generations_executed / uptime, 1
                ),
            },
            "faults": {
                "chunk_retries": self.retries,
                "chunk_timeouts": self.timeouts,
                "pool_respawns": self.respawns,
                "jobs_shed": self.shed,
                "jobs_cancelled": self.cancelled,
                "deadlines_enforced": self.deadline_enforced,
                "slabs_checkpointed": self.checkpoints,
                "jobs_resumed": self.resumed,
                "connections_dropped": self.dropped_connections,
                "recovery_p50_ms": round(rec["p50"] * 1e3, 3),
                "recovery_p95_ms": round(rec["p95"] * 1e3, 3),
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "coalesced": self.coalesced,
                "writes": self.cache_writes,
            },
        }

    def to_json(self, path: str | None = None) -> str:
        """Render the snapshot as JSON; optionally also write it to a file."""
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text

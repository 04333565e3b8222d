"""Job types for the GA serving layer: requests, handles, results.

A :class:`GARequest` is one client run of the GA core — the five Table III
parameters plus a fitness *slot* (the Sec. III-B.5 8-way FEM mux, here the
paper test-function registry), scheduling hints (priority, deadline), and
an optional resilience preset for hardened execution.  Submitting one to a
:class:`~repro.service.server.GAService` returns a :class:`JobHandle`
immediately; the scheduler later fulfils it with a :class:`JobResult`
whose best individual / fitness / evaluations / per-generation trace are
bit-identical to a solo serial :class:`~repro.core.behavioral.BehavioralGA`
run of the same seed and parameters (the parity property locked down in
``tests/service/test_determinism.py``).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field

from repro.core.params import GAParameters
from repro.core.stats import GenerationStats
from repro.core.validate import validate_request


def params_to_dict(params: GAParameters) -> dict:
    """The five Table III parameters as a plain JSON-ready dict."""
    return {
        "n_generations": params.n_generations,
        "population_size": params.population_size,
        "crossover_threshold": params.crossover_threshold,
        "mutation_threshold": params.mutation_threshold,
        "rng_seed": params.rng_seed,
    }


class ServiceError(RuntimeError):
    """Base class for serving-layer failures."""


class QueueFullError(ServiceError):
    """Admission control rejected the job: the pending queue is at bound."""


class ServiceClosedError(ServiceError):
    """The service is shutting down and no longer accepts submissions."""


class JobFailedError(ServiceError):
    """The worker executing this job's slab raised; carries the cause."""


class JobCancelledError(ServiceError):
    """The job was cancelled: by a non-draining shutdown, by
    :meth:`JobHandle.cancel`, or because its TCP client disconnected."""


class OverloadedError(ServiceError):
    """Admission control shed this job: the pending queue had reached
    ``BatchPolicy.shed_queue_depth``, and this job was the worst-ordered
    of the queue plus the arrival."""


class DeadlineExceededError(ServiceError):
    """An ``deadline_mode="enforce"`` job blew its deadline and was
    cancelled at the next chunk boundary."""


class WorkerCrashError(ServiceError):
    """A worker died mid-chunk (or chaos killed it).  Retryable: the lost
    chunk is stateless and re-executes bit-identically."""


class ChunkTimeoutError(ServiceError):
    """A chunk exceeded the per-chunk wall-clock watchdog
    (``BatchPolicy.chunk_timeout_s``).  Retryable, like a crash."""


class ShutdownTimeoutError(ServiceError):
    """``Scheduler.shutdown(timeout=...)`` expired with the scheduler
    thread still alive; jobs still in flight fail with this error."""


class RetiredEngineModeError(ServiceError, ValueError):
    """A wire payload or spilled checkpoint asks for an engine mode that
    no longer exists."""


def reject_retired_mode(payload: dict) -> None:
    """Fail a payload naming the retired ``engine_mode: "turbo"``.

    Every job runs the one exact engine, so ``"exact"`` — what old clients
    send — still parses and is otherwise ignored.
    """
    mode = payload.get("engine_mode", "exact")
    if mode != "exact":
        raise RetiredEngineModeError(
            f"engine_mode {mode!r} was retired; every job runs the exact engine"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job chunk-retry behaviour for infrastructure failures.

    A chunk lost to a worker crash, a broken process pool, or the hung-chunk
    watchdog is re-executed up to ``max_attempts`` times (total attempts,
    so ``1`` disables retries); the attempt counter resets on every chunk
    that completes, so the bound is on *consecutive* failures, not failures
    across a long job's lifetime.  Application exceptions raised by the job
    itself are never retried — re-execution is bit-identical, so they would
    simply recur.

    Backoff is exponential with *deterministic* jitter: the jitter fraction
    is derived from ``(rng_seed, attempt)`` by a stable hash, so a retried
    schedule is reproducible run to run — the same discipline as the
    engine's seed-addressed fault streams.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0: {self.backoff_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if self.max_backoff_s < self.backoff_s:
            raise ValueError(
                f"max_backoff_s ({self.max_backoff_s}) must be >= "
                f"backoff_s ({self.backoff_s})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def delay_s(self, attempt: int, seed: int) -> float:
        """Backoff before re-executing after the ``attempt``-th failure
        (1-based), with seed-derived deterministic jitter."""
        base = min(
            self.backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        frac = zlib.crc32(f"{seed}:{attempt}".encode()) % 1000 / 999.0
        return base * (1.0 + self.jitter * frac)

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "multiplier": self.multiplier,
            "max_backoff_s": self.max_backoff_s,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(
            max_attempts=int(data.get("max_attempts", 3)),
            backoff_s=float(data.get("backoff_s", 0.05)),
            multiplier=float(data.get("multiplier", 2.0)),
            max_backoff_s=float(data.get("max_backoff_s", 2.0)),
            jitter=float(data.get("jitter", 0.25)),
        )


@dataclass(frozen=True)
class GARequest:
    """One client job: Table III parameters + fitness slot + scheduling.

    ``priority`` orders the pending queue (lower runs earlier); within a
    priority class jobs run earliest-deadline-first, then FIFO.
    ``deadline_s`` is relative to submission and advisory — the scheduler
    reports misses (``JobResult.deadline_missed``) rather than killing
    late jobs.  ``protection``/``upset_rate``/``campaign_seed`` request
    hardened execution through the resilience layer; hardened jobs run in
    dedicated single-job slabs so their fault injection stays bit-exact
    against a solo hardened run.  Construction refuses a job no engine
    could run as asked (:func:`~repro.core.validate.validate_request`).
    """

    params: GAParameters
    fitness_name: str = "mBF6_2"
    priority: int = 0
    deadline_s: float | None = None
    record_trace: bool = True
    protection: str | None = None
    upset_rate: float = 0.0
    campaign_seed: int = 2026
    #: ``n_islands > 1`` requests an archipelago run: the job executes as
    #: one :class:`~repro.parallel.archipelago.VectorIslandGA` slab
    #: (replica axis = island), routed solo to a worker like hardened
    #: jobs.  ``n_islands == 1`` is an ordinary job and batches normally.
    n_islands: int = 1
    migration_interval: int = 8
    topology: str = "ring"
    #: chunk-retry behaviour for infrastructure failures (crashes, hung
    #: chunks); application errors are never retried
    retry: RetryPolicy = RetryPolicy()
    #: ``"observe"`` reports misses via ``JobResult.deadline_missed``
    #: (the historical behaviour); ``"enforce"`` cancels the job with
    #: :class:`DeadlineExceededError` at the next chunk boundary
    deadline_mode: str = "observe"
    #: ``False`` opts this job out of the run-store read path (no cache
    #: hit, no riding another job's in-flight computation); completed
    #: results are still written back.  Scheduling-only: excluded from
    #: the canonical job key.
    use_cache: bool = True
    #: Which engine substrate executes the job.  ``"behavioral"`` (the
    #: default) runs the behavioural engines and batches normally;
    #: ``"cycle"`` runs the full cycle-accurate Fig. 4 testbench
    #: (:class:`~repro.core.system.GASystem`); ``"dual32"`` runs the
    #: Fig. 6 dual-core 32-bit composition
    #: (:class:`~repro.core.scaling.DualCoreGA32`), whose
    #: ``fitness_name`` must name a 32-bit objective from
    #: ``repro.fitness.ehw_targets.FITNESS32_REGISTRY``.  Non-behavioral
    #: substrates run solo (no islands, no protection), in dedicated
    #: single-job slabs.
    substrate: str = "behavioral"

    def __post_init__(self) -> None:
        # what an engine can run is decided in one place; the scheduling
        # hints below are the serving layer's own
        validate_request(self)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive: {self.deadline_s}")
        if self.deadline_mode not in ("observe", "enforce"):
            raise ValueError(
                f"deadline_mode must be 'observe' or 'enforce': "
                f"{self.deadline_mode!r}"
            )
        if self.deadline_mode == "enforce" and self.deadline_s is None:
            raise ValueError("deadline_mode='enforce' requires deadline_s")

    # -- wire format (the ``repro submit`` TCP client) ------------------
    def to_dict(self) -> dict:
        return {
            "params": params_to_dict(self.params),
            "fitness_name": self.fitness_name,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "record_trace": self.record_trace,
            "protection": self.protection,
            "upset_rate": self.upset_rate,
            "campaign_seed": self.campaign_seed,
            "n_islands": self.n_islands,
            "migration_interval": self.migration_interval,
            "topology": self.topology,
            "retry": self.retry.to_dict(),
            "deadline_mode": self.deadline_mode,
            "use_cache": self.use_cache,
            "substrate": self.substrate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GARequest":
        reject_retired_mode(data)
        return cls(
            params=GAParameters(**data["params"]),
            fitness_name=data.get("fitness_name", "mBF6_2"),
            priority=int(data.get("priority", 0)),
            deadline_s=data.get("deadline_s"),
            record_trace=bool(data.get("record_trace", True)),
            protection=data.get("protection"),
            upset_rate=float(data.get("upset_rate", 0.0)),
            campaign_seed=int(data.get("campaign_seed", 2026)),
            n_islands=int(data.get("n_islands", 1)),
            migration_interval=int(data.get("migration_interval", 8)),
            topology=data.get("topology", "ring"),
            retry=RetryPolicy.from_dict(data.get("retry", {})),
            deadline_mode=data.get("deadline_mode", "observe"),
            use_cache=bool(data.get("use_cache", True)),
            substrate=data.get("substrate", "behavioral"),
        )


@dataclass
class JobResult:
    """What a completed job streams back to its client."""

    job_id: int
    best_individual: int
    best_fitness: int
    evaluations: int
    fitness_name: str
    params: GAParameters
    history: list[GenerationStats] = field(default_factory=list)
    #: seconds from submission to completion / from submission to first
    #: chunk dispatch
    latency_s: float = 0.0
    wait_s: float = 0.0
    #: slab chunks this job rode in (1 = never suspended)
    n_chunks: int = 0
    deadline_missed: bool = False
    #: harness counters for hardened jobs (rollbacks, corrected words, ...)
    protection_stats: dict = field(default_factory=dict)
    #: archipelago counters for island jobs (islands, migrations,
    #: island_bests, topology); empty for ordinary jobs.  An island job's
    #: ``history`` rows are per *epoch*, not per generation.
    island_stats: dict = field(default_factory=dict)
    #: substrate counters for non-behavioral jobs (``substrate``, plus
    #: ``cycles`` for cycle-accurate runs); empty for ordinary jobs
    substrate_stats: dict = field(default_factory=dict)
    #: cache provenance: ``True`` when this result was served from the
    #: content-addressed run store (or rode another job's in-flight
    #: computation) instead of dispatching to the worker pool
    cache_hit: bool = False
    #: the canonical job key this result is stored under (``None`` when
    #: no run store was attached)
    store_key: str | None = None

    def best_series(self) -> list[int]:
        """Best fitness per generation (matches ``GAResult.best_series``)."""
        return [g.best_fitness for g in self.history]

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "best_individual": self.best_individual,
            "best_fitness": self.best_fitness,
            "evaluations": self.evaluations,
            "fitness_name": self.fitness_name,
            "params": params_to_dict(self.params),
            "history": [
                [g.generation, g.best_fitness, g.best_individual, g.fitness_sum]
                for g in self.history
            ],
            "population_size": self.params.population_size,
            "latency_s": self.latency_s,
            "wait_s": self.wait_s,
            "n_chunks": self.n_chunks,
            "deadline_missed": self.deadline_missed,
            "protection_stats": self.protection_stats,
            "island_stats": self.island_stats,
            "substrate_stats": self.substrate_stats,
            "cache_hit": self.cache_hit,
            "store_key": self.store_key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        pop = int(data["population_size"])
        return cls(
            job_id=int(data["job_id"]),
            best_individual=int(data["best_individual"]),
            best_fitness=int(data["best_fitness"]),
            evaluations=int(data["evaluations"]),
            fitness_name=data["fitness_name"],
            params=GAParameters(**data["params"]),
            history=[
                GenerationStats(
                    generation=g, best_fitness=bf, best_individual=bi,
                    fitness_sum=fs, population_size=pop,
                )
                for g, bf, bi, fs in data.get("history", [])
            ],
            latency_s=float(data.get("latency_s", 0.0)),
            wait_s=float(data.get("wait_s", 0.0)),
            n_chunks=int(data.get("n_chunks", 0)),
            deadline_missed=bool(data.get("deadline_missed", False)),
            protection_stats=dict(data.get("protection_stats", {})),
            island_stats=dict(data.get("island_stats", {})),
            substrate_stats=dict(data.get("substrate_stats", {})),
            # pre-PR-9 frames carry no cache provenance: default cold
            cache_hit=bool(data.get("cache_hit", False)),
            store_key=data.get("store_key"),
        )


class JobHandle:
    """Client-side future for one submitted job."""

    def __init__(self, job_id: int, request: GARequest, submitted_at: float):
        self.job_id = job_id
        self.request = request
        self.submitted_at = submitted_at
        self._event = threading.Event()
        self._result: JobResult | None = None
        self._error: BaseException | None = None
        #: set by the scheduler at submission; called by :meth:`cancel`
        self._canceller = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job completes; raises on failure/cancellation.

        A timed-out wait leaves the job running — call :meth:`cancel` if
        the result is no longer wanted.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(f"job {self.job_id} not done after {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Request cancellation: a queued or parked job is evicted at the
        scheduler loop's next pass, an in-flight one cooperatively at its
        next chunk boundary, and a duplicate riding another job's
        computation at once (each way the handle fails with
        :class:`JobCancelledError`).  Returns ``True`` if the request was
        accepted, ``False`` if the job already completed (or the handle
        was never registered with a scheduler)."""
        if self._event.is_set() or self._canceller is None:
            return False
        return bool(self._canceller(self.job_id))

    # -- scheduler side -------------------------------------------------
    def _fulfil(self, result: JobResult) -> None:
        if not self._event.is_set():
            self._result = result
            self._event.set()

    def _fail(self, error: BaseException) -> None:
        if not self._event.is_set():
            self._error = error
            self._event.set()
